"""Tests of the benchmark itself.

  PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import check
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _time_left():
    return 120.0


def _pick(rounds, cmd):
    return next((0, ji) for ji, job in enumerate(rounds[0]) if job["cmd"] == cmd)


def test_checker_counts_wrong_answers_as_failed():
    rounds = workloads.make_jobs("roots", 5, rounds=1)
    cr = _pick(rounds, "count-roots")
    vj = _pick(rounds, "verify")
    cfg = rounds[0][cr[1]]["config"]
    want = check.count_roots_oracle(cfg["m"], cfg["conditions"])
    criteria = [{"name": "sturm_sign_count_oracle", "passed": True, "details": {}}]
    results = [
        [*cr, 0, json.dumps({"count": want}), 0.01, None],
        [*cr, 0, json.dumps({"count": want + 1}), 0.01, None],
        [*vj, 0, json.dumps({"criteria": criteria, "pass": True}), 0.01, None],
        [*vj, 0, json.dumps({"criteria": criteria, "pass": False}), 0.01, None],
        [*cr, 2, json.dumps({"error": "ParseError"}), 0.01, None],
        [*cr, None, "", 0.01, "Traceback ...\nValueError: boom"],
    ]
    attempted, failures = run.tally(rounds, results)
    assert attempted == 6
    assert [f[:2] for f in failures] == [cr, vj, cr, cr]


def test_count_roots_oracle_known_answers():
    # x^2 - 2 with x > 0; x^3 - x with x > -1/2 and x < 1/2 (root 0 only)
    assert check.count_roots_oracle(["-2", "0", "1"], [["0", "1"]]) == 1
    assert check.count_roots_oracle(["0", "-1", "0", "1"], [["1/2", "1"], ["1/2", "-1"]]) == 1


def test_same_seed_same_job_list():
    for name in workloads.ROUNDS:
        a = workloads.digest(workloads.make_jobs(name, 7, rounds=2))
        b = workloads.digest(workloads.make_jobs(name, 7, rounds=2))
        c = workloads.digest(workloads.make_jobs(name, 8, rounds=2))
        assert a == b != c


def _short_list():
    """A few jobs of each workload, small enough for a quick traced run."""
    jobs = []
    for name in workloads.ROUNDS:
        batch = workloads.make_jobs(name, 3, rounds=1)[0]
        jobs += sorted(batch, key=lambda j: j["kind"])[:6]
    return [[j for j in jobs if j["kind"] not in ("count-roots.r9", "count-roots.r8")]]


def test_traced_counts_repeat(tmp_path):
    rounds = _short_list()
    counts = []
    for i in range(2):
        work = tmp_path / f"w{i}"
        joblist = run.write_jobs(work, rounds)
        result = run.run_in_process(ROOT, joblist, "traced 1", work / "out.json", _time_left)
        assert all(j[2] == 0 for j in result["jobs"])
        counts.append(
            {
                k: v
                for k, v in result["trace"].items()
                if ".calls." in k or ".entries." in k or k.endswith(("ratio", "exceptions"))
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["exactnum.calls.gcd"] > 0


def test_failed_job_replays_alone(tmp_path):
    bad = {"cmd": "count-roots", "kind": "count-roots.r1", "seed": 11, "meta": {},
           "config": {"m": ["0", "0", "1"], "conditions": [["1", "1"]]}}
    rounds = [[bad]]
    joblist = run.write_jobs(tmp_path / "w", rounds)
    result = run.run_in_process(ROOT, joblist, "fixed 1", tmp_path / "out.json", _time_left)
    _, failures = run.tally(rounds, result["jobs"], tmp_path / "failed", "replay")
    assert len(failures) == 1
    (config,) = (tmp_path / "failed").iterdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    replay = subprocess.run(
        [sys.executable, "-m", "hermsig", "--seed", "11", "count-roots", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert replay.returncode == result["jobs"][0][2] == 2
    assert replay.stdout == result["jobs"][0][3]
