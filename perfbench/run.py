"""hermsig benchmark: CLI job streams, end to end or traced per layer.

  python3 perfbench/run.py --workload roots|forms|cones --seed N \
      --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/hermsig``).  The job
list is generated from the seed and written as JSON configs under
``.bench_work/``; the program sees only those files.  A job process with one
thread runs the jobs in a closed loop, one client, so no job waits on
another.  Answers are checked after the timed phase; a failed job's config is
kept under ``.bench_work/failed/`` with the command that replays it.

--trace 0: three fresh job processes in turn each run the same whole rounds
for about S/3 seconds; each job keeps its best time of the three.  It prints
set-up time (median over nine job-process starts), checked jobs per second,
per-job latency p50 and p90, and the job processes' peak RSS.  --trace 1
runs one round untraced and the same round traced, compares their stdout
byte for byte, checks that the workload reached its layers, and prints
per-layer counts, self times and kernel timings.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from check import check_job  # noqa: E402

# The 2-core virtual machine this was built on runs interpreted code at two
# speeds about 2x apart, switching on scales from under a second to minutes
# (other tenants of the host).  Two measures keep the figures steady:
#   * every time is scaled to a reference speed: multiplied by PROBE_REF_S
#     over the mean time of a fixed pure-Python probe sampled before, during
#     and after it in the same process (`worker.probe`).  PROBE_REF_S is the
#     probe's time at that machine's fast speed, so scaled times read as
#     fast-speed wall times there;
#   * each job runs in PASSES fresh processes and keeps its best scaled
#     time, which discounts spells the probe samples miss.
# Raw wall-clock figures are printed alongside.  Set-up time is scaled the
# same way, by probe samples taken while the job process imports hermsig.
PROBE_REF_S = 0.0002
PASSES = 3
STARTS_PER_PASS = 3
TRACE_ROUNDS = 1
DEADLINE_S = 170.0

# layers each workload must reach; a traced run that records no call to
# one of them fails
REQUIRED_LAYERS = {
    "roots": ("exactnum",),
    "forms": ("hermitian", "wittideal"),
    "cones": ("cones", "hermitian"),
}

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class JobProcess:
    """One started job process, ready for a command."""

    def __init__(self, root: Path, joblist: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(joblist)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.raw_setup_s = perf_counter() - start
        probe = self.proc.stdout.readline().split()
        if line.strip() != "ready" or len(probe) != 2:
            self.stop()
            raise RuntimeError("job process did not start")
        self.setup_s = self.raw_setup_s * PROBE_REF_S / float(probe[1])

    def command(self, line: str, timeout: float) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=timeout)
        finally:
            self.stop()
        if code != 0:
            raise RuntimeError(f"job process exited with {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


def write_jobs(work: Path, rounds) -> Path:
    cfg = work / "cfg"
    cfg.mkdir(parents=True)
    listed = []
    for ri, jobs in enumerate(rounds):
        row = []
        for ji, job in enumerate(jobs):
            path = cfg / f"r{ri}_j{ji}.json"
            path.write_text(json.dumps(job["config"]), encoding="utf-8")
            row.append([job["cmd"], job["seed"], str(path)])
        listed.append(row)
    joblist = work / "jobs.json"
    joblist.write_text(json.dumps(listed), encoding="utf-8")
    return joblist


def run_in_process(root, joblist, line_head, out: Path, time_left) -> dict:
    proc = JobProcess(root, joblist)
    proc.command(f"{line_head} {out}", timeout=time_left())
    return json.loads(out.read_text(encoding="utf-8"))


def tally(rounds, results, failed_dir: Path | None = None, label: str = ""):
    """Check every job result; returns (attempted, failures)."""
    failures = []
    seen: dict[tuple, str | None] = {}
    for ri, ji, code, out, _latency, error, *_ in results:
        job = rounds[ri][ji]
        key = (ri, ji, code, out, error)
        if key not in seen:
            seen[key] = check_job(job, code, out, error)
        reason = seen[key]
        if reason is not None:
            failures.append((ri, ji, reason))
    if failed_dir is not None:
        for ri, ji, reason in failures:
            job = rounds[ri][ji]
            failed_dir.mkdir(parents=True, exist_ok=True)
            path = failed_dir / f"{label}-r{ri}-j{ji}.json"
            path.write_text(json.dumps(job["config"]), encoding="utf-8")
            print(
                f"FAILED {job['kind']} ({reason}); replay: PYTHONPATH=src python3 -m hermsig "
                f"--seed {job['seed']} {job['cmd']} --config {path}",
                file=sys.stderr,
            )
    return len(results), failures


def kind_summary(rounds, results, latencies) -> None:
    by_kind: dict[str, list[float]] = {}
    for (ri, ji, *_), latency in zip(results, latencies):
        by_kind.setdefault(rounds[ri][ji]["kind"], []).append(latency)
    total = sum(latencies)
    for kind, lat in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        print(
            f"  {kind:42s} jobs={len(lat):4d} share={sum(lat) / total:5.3f} "
            f"p50={1000 * statistics.median(lat):9.2f} ms"
        )


def end_to_end(args, root, joblist, rounds, time_left, work, failed_dir):
    """PASSES fresh job processes run the same whole rounds; each job's
    latency is its best of the PASSES runs."""
    starts, passes = [], []
    line = f"timed {args.seconds / PASSES}"
    for i in range(PASSES):
        for _ in range(STARTS_PER_PASS - 1):
            p = JobProcess(root, joblist)
            starts.append(p)
            p.command("quit", timeout=30)
        proc = JobProcess(root, joblist)
        starts.append(proc)
        out = work / f"pass{i}.json"
        proc.command(f"{line} {out}", timeout=time_left())
        passes.append(json.loads(out.read_text(encoding="utf-8")))
        line = f"fixed {passes[0]['rounds']}"
    order = [j[:2] for j in passes[0]["jobs"]]
    if any([j[:2] for j in p["jobs"]] != order for p in passes):
        raise RuntimeError("passes ran different jobs")
    attempted, failures = 0, []
    for p in passes:
        n, f = tally(rounds, p["jobs"], failed_dir, f"{args.workload}-seed{args.seed}")
        attempted += n
        failures += f
    best = [min(p["jobs"][k][4] * PROBE_REF_S / p["jobs"][k][6] for p in passes) for k in range(len(order))]
    raw_best = [min(p["jobs"][k][4] for p in passes) for k in range(len(order))]
    bad = {(ri, ji) for ri, ji, _ in failures}
    good = sum(1 for ri, ji in order if (ri, ji) not in bad)
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in starts),
        "jobs_per_s": good / sum(best),
        "job_p50_ms": 1000 * statistics.median(best),
        "job_p90_ms": 1000 * statistics.quantiles(best, n=10)[-1],
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    print(
        f"{PASSES} passes of {passes[0]['rounds']} rounds, {len(order)} jobs each; raw pass wall "
        + " ".join(f"{p['wall_s']:.3f}" for p in passes)
        + f" s; best-of-{PASSES} job time {sum(best):.3f} s scaled, {sum(raw_best):.3f} s raw"
    )
    print(
        f"latency over {len(best)} jobs (best of {PASSES} runs each, scaled): p50 {metrics['job_p50_ms']:.3f} ms, "
        f"p90 {metrics['job_p90_ms']:.3f} ms; raw p50 {1000 * statistics.median(raw_best):.3f} ms, "
        f"p90 {1000 * statistics.quantiles(raw_best, n=10)[-1]:.3f} ms"
    )
    print(
        f"setup over {len(starts)} starts, scaled: " + " ".join(f"{p.setup_s:.4f}" for p in starts)
        + "; raw: " + " ".join(f"{p.raw_setup_s:.4f}" for p in starts)
    )
    print(f"failed_ratio: {len(failures)}/{attempted}")
    kind_summary(rounds, passes[0]["jobs"], best)
    ranked = sorted(range(len(best)), key=best.__getitem__)
    for q, name in ((0.5, "p50"), (0.9, "p90")):
        ri, ji = order[ranked[min(len(best) - 1, int(q * len(best)))]]
        print(f"{name} lies among {rounds[ri][ji]['kind']} jobs")
    return attempted, failures, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def traced(args, root, joblist, rounds, time_left, work, failed_dir):
    plain = run_in_process(root, joblist, f"fixed {TRACE_ROUNDS}", work / "plain.json", time_left)
    trace = run_in_process(root, joblist, f"traced {TRACE_ROUNDS}", work / "traced.json", time_left)
    attempted, failures = tally(rounds, plain["jobs"], failed_dir, f"{args.workload}-seed{args.seed}")
    _, traced_failures = tally(rounds, trace["jobs"])
    failures += traced_failures
    attempted += len(trace["jobs"])
    problems = []
    for a, b in zip(plain["jobs"], trace["jobs"]):
        if a[:4] != b[:4]:
            problems.append(f"job r{a[0]}-j{a[1]}: traced output differs from untraced")
    if len(plain["jobs"]) != len(trace["jobs"]):
        problems.append("traced run ran a different number of jobs")
    layer_calls = trace["layer_calls"]
    for layer in REQUIRED_LAYERS[args.workload]:
        if not layer_calls.get(layer):
            problems.append(f"layer {layer} recorded no calls")
    metrics = dict(trace["trace"])
    if args.workload == "cones" and not metrics["orderings.calls.field_mul.deg4"]:
        problems.append("no degree-4 field multiply recorded")
    metrics.update(trace["per_op_us"])
    # scaled job times, as the two passes run at different moments
    plain_s = sum(j[4] / j[6] for j in plain["jobs"])
    metrics["trace.overhead_ratio"] = sum(j[4] / j[6] for j in trace["jobs"]) / plain_s
    for name, roadmap in tracer.ROADMAP_US.items():
        print(f"kernel {name}: {metrics[name]:.3f} us (ROADMAP {roadmap} us, ratio {metrics[name] / roadmap:.2f})")
    print(f"traced {len(trace['jobs'])} jobs; layer calls: {json.dumps(layer_calls, sort_keys=True)}")
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}", file=sys.stderr)
    return attempted, failures, {k: (v, layer_unit(k)) for k, v in metrics.items()}, problems


def layer_unit(name: str) -> str:
    if ".us." in name:
        return "us"
    if name.endswith("_s") or ".s." in name:
        return "s"
    if "ratio" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = perf_counter()

    def time_left() -> float:
        return max(1.0, DEADLINE_S - (perf_counter() - began))

    root = Path.cwd()
    if not (root / "src" / "hermsig" / "cli.py").is_file():
        print("error: run from a hermsig checkout (src/hermsig not found)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    failed_dir = root / ".bench_work" / "failed"
    shutil.rmtree(work, ignore_errors=True)
    try:
        rounds = workloads.make_jobs(args.workload, args.seed)
        print(f"workload {args.workload} seed {args.seed}: {sum(map(len, rounds))} jobs in {len(rounds)} rounds")
        print(f"job list digest: sha256:{workloads.digest(rounds)}")
        joblist = write_jobs(work, rounds)
        problems = []
        if args.trace:
            attempted, failures, metrics, problems = traced(args, root, joblist, rounds, time_left, work, failed_dir)
        else:
            attempted, failures, metrics = end_to_end(args, root, joblist, rounds, time_left, work, failed_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
