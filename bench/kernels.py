"""Layer microbenchmarks of the arithmetic kernels, written to BENCH_7.json.

  PYTHONPATH=<checkout>/src python3 bench/kernels.py

Times each operation on fixed operands and records the best of several
repeats in microseconds: `Fraction` mul; `FieldElement` mul and add at
degree 1, 2 and 4; `inverse` at degree 2 and 4; `sign_of` at degree 4;
quaternion `DElement` mul at degree 1 and 4.  The operands are those of
`perfbench/tracer.py`'s kernel timings.  The hermsig measured is whichever
one PYTHONPATH imports, so the same script times any checkout; its figures
go into one column of BENCH_7.json (next to this directory), named by the
checkout's git commit, with "+dirty" when its src/ has uncommitted
changes, and the other columns are kept.
"""

from __future__ import annotations

import json
import platform
import subprocess
import timeit
from fractions import Fraction
from pathlib import Path

import hermsig
from hermsig.algebras import DElement, quaternion_desc
from hermsig.orderings import NumberField, list_orderings, sign_of

OUT = Path(__file__).resolve().parent.parent / "BENCH_7.json"
REPEATS = 15
TARGET_S = 0.02  # time per repeat

X = [Fraction(3, 7), Fraction(-5, 2), Fraction(11, 9), Fraction(-4, 13)]
Y = [Fraction(-8, 5), Fraction(7, 3), Fraction(-2, 11), Fraction(9, 4)]


def _element(field, coords):
    return field.element(coords[: field.degree])


def _quaternions(field):
    minus_one = field.from_rational(-1)
    desc = quaternion_desc(field, minus_one, minus_one)
    a = DElement(desc, tuple(_element(field, X[i:] + X[:i]) for i in range(4)))
    b = DElement(desc, tuple(_element(field, Y[i:] + Y[:i]) for i in range(4)))
    return a, b


def operations() -> dict:
    """Name -> zero-argument callable, on fixed operands."""
    fields = {
        1: NumberField([0, 1]),
        2: NumberField([-2, 0, 1]),
        4: NumberField([-2, 0, 0, 0, 1]),
    }
    x = {d: _element(F, X) for d, F in fields.items()}
    y = {d: _element(F, Y) for d, F in fields.items()}
    ordering = list_orderings(fields[4])[0]
    q1, r1 = _quaternions(fields[1])
    q4, r4 = _quaternions(fields[4])
    ops = {"fraction_mul": lambda: X[0] * Y[0]}
    for d in (1, 2, 4):
        ops[f"field_mul.deg{d}"] = lambda d=d: x[d] * y[d]
        ops[f"field_add.deg{d}"] = lambda d=d: x[d] + y[d]
    for d in (2, 4):
        ops[f"field_inverse.deg{d}"] = x[d].inverse
    ops["sign_of.deg4"] = lambda: sign_of(x[4], ordering)
    ops["delement_mul.quaternion.deg1"] = lambda: q1 * r1
    ops["delement_mul.quaternion.deg4"] = lambda: q4 * r4
    return ops


def best_us(ops: dict) -> dict:
    """Best time per call of each operation, in microseconds.

    Repeats go round-robin over the operations, so a slow spell of the
    machine touches one repeat of each rather than every repeat of one.
    """
    timers, numbers = {}, {}
    for name, fn in ops.items():
        timer = timeit.Timer(fn)
        number = 1
        while timer.timeit(number) < TARGET_S / 4:
            number *= 4
        timers[name], numbers[name] = timer, number
    best = {name: float("inf") for name in ops}
    for _ in range(REPEATS):
        for name, timer in timers.items():
            best[name] = min(best[name], timer.timeit(numbers[name]) / numbers[name])
    return {name: round(t * 1e6, 3) for name, t in best.items()}


def checkout_label() -> str:
    root = Path(hermsig.__file__).resolve().parents[2]
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--", "src"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return commit + ("+dirty" if dirty else "")


def main() -> None:
    column = best_us(operations())
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data["unit"] = "us"
    data["method"] = (
        f"best of {REPEATS} round-robin timeit repeats of about {TARGET_S} s per operation"
    )
    data["machine"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
    data.setdefault("columns", {})[checkout_label()] = column
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    for name, us in column.items():
        print(f"{name:32s} {us:10.3f} us")


if __name__ == "__main__":
    main()
