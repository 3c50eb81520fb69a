"""Byte-identity of CLI reports against recorded stdout.

Each case in ``tests/golden/cases.json`` is one CLI run (seed, command,
config); ``tests/golden/<name>.out`` holds its stdout byte for byte.  The
cases cover every `verify` criterion at smoke sizes, the seeded or
star-pairing paths of `np`, `sylvester`, `member`, `signature`, `cones`
and `extend`, and `orderings`, `nil` and `count-roots` over quartic
fields (one of them reducible), so a change to the diagonalization, to
sign determination, to root isolation or to the order of random draws
shows up here.

To re-record after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hermsig.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _stdout(case, config_path: Path) -> tuple[int, str]:
    config_path.write_text(json.dumps(case["config"]), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["--seed", str(case["seed"]), case["command"], "--config", str(config_path)]
        )
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, tmp_path):
    code, out = _stdout(case, tmp_path / "config.json")
    assert code == 0
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert out == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            code, out = _stdout(case, Path(tmp) / "config.json")
            if code != 0:
                raise SystemExit(f"{case['name']}: exit {code}\n{out}")
            (GOLDEN / f"{case['name']}.out").write_text(out, encoding="utf-8")
