"""Layer microbenchmarks of the arithmetic kernels, written to a BENCH file.

  PYTHONPATH=<checkout>/src python3 bench/kernels.py BENCH_<n>.json

Times each operation on fixed operands and records the best of several
repeats in microseconds: `Fraction` mul; `FieldElement` mul and add at
degree 1, 2 and 4; `inverse` at degree 2 and 4; `sign_of` at degree 4,
warm: after the first call the ordering's narrowed interval is stored on
the field, so the row times the interval test on it; `sign_of` of the zero
divisor x^2 - 2 over x^4 - 4 (`sign_of.deg4.fallback`), which after the
first call goes straight from an undecided interval test to the Tarski
query; building the `NumberField` x^4 - 180 (screens included);
`sturm_sequence` of a degree-8 polynomial and `isolate_real_roots` of it
(four real roots); `count_roots_with_signs_formula` for one, three and five
quadratic conditions and the localized `count_roots_with_signs` for the
first three, on a sextic with six rational roots (each call gets a fresh
copy of its polynomial, so the
chain, intervals and Tarski chains a `Polynomial` keeps are built every
time); one
`criterion_sturm_oracle` of 30 instances from `random.Random(0)`; quaternion `DElement` mul at degree 1
and 4, quadratic `DElement` mul over Q(sqrt 2) with d = sqrt 2, and the
quaternion norm at degree 4; and, over the Hamilton quaternions
H = (-1,-1)_Q, `AlgebraElement ==`
on two equal but separately built 2 x 2 matrices, one
`diagonalize_hermitian` of a 4 x 4 hermitian matrix, and one `signature` of
the 2 x 2 form over M_2(H) whose flattened Gram is that matrix (the form is
built anew and the algebra's memo of block diagonals emptied on each call,
so the diagonalization is timed too).  Over
M_2(H) it also times `star_pairing(a, a)` of a fixed positive definite unit a
and one `sylvester_reduction` of a fixed 2-entry diagonal form against a,
each with the memo emptied on each call, and one `cli.run` each of the
`orderings` command on a fixed quartic field, of the `member` command
for a fixed 2 x 2 hermitian matrix over (-1,-1) on the quartic field
x^4 - 180, and of the `np` command with the witness search on the golden
`np_search_m2_qq` case (config and seed from `tests/golden/cases.json`),
stdout discarded.  Over M_3(H) it times `mat_inv` of a fixed
3 x 3 matrix, building the algebra with Phi = I, and checking the cone
certificate of a fixed positive definite hermitian matrix.  Over M_3 of
(-1,-1) on x^4 - 180 it times reading a fixed 3 x 3 hermitian element
from its wire form, integer coordinate strings as a `member` job sends
them (`parse_algebra_element`), and deciding its membership in the + cone
at the second ordering (`cone_membership`, a member).  The
arithmetic operands are those of `perfbench/tracer.py`'s kernel timings.
The hermsig measured is whichever one PYTHONPATH imports, so the same
script times any checkout; its figures go into one column of the JSON file
named on the command line, named by the checkout's git commit, with
"+dirty" when its src/ has uncommitted changes, and the other columns of
that file are kept.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import random
import subprocess
import tempfile
import timeit
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import hermsig
from hermsig import cli, jsonio
from hermsig.algebras import DElement, make_algebra, mat_inv, quadratic_desc, quaternion_desc
from hermsig.cones import PositiveConeHandle, cone_membership
from hermsig.exactnum import (
    Polynomial,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    isolate_real_roots,
    sturm_sequence,
)
from hermsig.hermitian import (
    HermitianForm,
    diagonal_form,
    diagonalize_hermitian,
    signature,
    star_pairing,
)
from hermsig.orderings import NumberField, list_orderings, sign_of
from hermsig.verify import criterion_sturm_oracle
from hermsig.wittideal import sylvester_reduction

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


def _hermitian_matrix(desc, size):
    """M + theta(M)^t for a fixed size x size matrix M over D."""
    coords = X + Y

    def entry(i, j):
        start = i * size + j
        return DElement(
            desc,
            tuple(
                desc.field.from_rational(coords[(start + k) % len(coords)])
                for k in range(desc.dim)
            ),
        )

    return [[entry(i, j) + entry(j, i).conj() for j in range(size)] for i in range(size)]


def _hamilton_m3_operations() -> dict:
    """Inverse, algebra construction and cone-certificate check over M_3(H)."""
    qq = NumberField([0, 1])
    minus_one = qq.from_rational(-1)
    desc = quaternion_desc(qq, minus_one, minus_one)
    coords = X + Y
    x = [
        [
            DElement(desc, tuple(qq.from_rational(coords[(3 * i + j + k) % 8]) for k in range(4)))
            for j in range(3)
        ]
        for i in range(3)
    ]
    M3H = make_algebra(desc, 3)
    # a hermitian matrix shifted by 20 I: positive definite, so in the + cone
    S = _hermitian_matrix(desc, 3)
    b = M3H.element([[e + desc.one() * 20 if i == j else e for j, e in enumerate(row)] for i, row in enumerate(S)])
    cone = PositiveConeHandle(M3H, list_orderings(qq)[0], 1)
    member, w = cone_membership(b, cone)
    assert member
    if hasattr(w, "check"):
        check = lambda: w.check(b, cone)
    else:
        # checkouts before `ConeWitness.check` rebuilt the element instead
        check = lambda: w.reconstruct(cone) == b
    return {
        "mat_inv.quaternion.m3": lambda: mat_inv(x),
        "algebra_init.quaternion.m3": lambda: make_algebra(desc, 3),
        "cone_witness_check.quaternion.m3": check,
    }


def _member_m3_deg4_operations() -> dict:
    """Wire parse and cone membership of a 3 x 3 hermitian element over x^4 - 180."""
    field = NumberField([-180, 0, 0, 0, 1])
    minus_one = field.from_rational(-1)
    A = make_algebra(quaternion_desc(field, minus_one, minus_one), 3)
    rng = random.Random(16)

    def coords():
        return [str(rng.randint(-3, 3)) for _ in range(4)]

    wire = [[None] * 3 for _ in range(3)]
    for i in range(3):
        # a scalar diagonal large enough for a positive definite element
        wire[i][i] = [[str(1000 + rng.randint(-3, 3)), "0", "0", "0"], *[["0"] * 4] * 3]
        for j in range(i + 1, 3):
            upper = [coords() for _ in range(4)]
            wire[i][j] = upper
            wire[j][i] = [upper[0]] + [[str(-int(c)) for c in comp] for comp in upper[1:]]
    b = jsonio.parse_algebra_element(A, wire)
    cone = PositiveConeHandle(A, list_orderings(field)[1], 1)
    assert cone_membership(b, cone)[0]
    return {
        "parse_algebra_element.quaternion.m3.deg4": lambda: jsonio.parse_algebra_element(A, wire),
        "cone_membership.quaternion.m3.deg4": lambda: cone_membership(b, cone),
    }


def _hamilton_operations() -> dict:
    """Equality, diagonalization and signature over H = (-1,-1)_Q."""
    qq = NumberField([0, 1])
    minus_one = qq.from_rational(-1)
    desc = quaternion_desc(qq, minus_one, minus_one)
    M2H = make_algebra(desc, 2)
    S = _hermitian_matrix(desc, 4)

    def block(a, b):
        return M2H.element([[S[2 * a + r][2 * b + c] for c in range(2)] for r in range(2)])

    x = block(0, 1)
    # the same values in distinct objects, so equality reads every entry
    y = M2H.element(
        [[DElement(desc, tuple(qq.element(c.coords) for c in e.comps)) for e in row] for row in x.entries]
    )
    gram = [[block(a, b) for b in range(2)] for a in range(2)]
    P = list_orderings(qq)[0]

    def fresh_signature():
        M2H._diagonal_memo.clear()
        return signature(HermitianForm(M2H, gram), P)

    def m(*rows):
        return M2H.element(
            [[DElement(desc, tuple(qq.from_rational(c) for c in e)) for e in row] for row in rows]
        )

    a = m([(2, 0, 0, 0), (1, 0, 1, 0)], [(1, 0, -1, 0), (5, 0, 0, 0)])
    units = [
        m([(2, 0, 0, 0), (1, 1, 0, 0)], [(1, -1, 0, 0), (3, 0, 0, 0)]),
        m([(1, 0, 0, 0), (0, 1, 1, 0)], [(0, -1, -1, 0), (-4, 0, 0, 0)]),
    ]
    cone = PositiveConeHandle(M2H, P, 1)

    def fresh_star_pairing():
        M2H._diagonal_memo.clear()
        return star_pairing(a, a)

    def fresh_sylvester():
        M2H._diagonal_memo.clear()
        return sylvester_reduction(diagonal_form(M2H, units), a, cone)

    return {
        "algebra_eq.quaternion.m2": lambda: x == y,
        "diagonalize_hermitian.quaternion.4x4": lambda: diagonalize_hermitian(desc, S),
        "signature.quaternion.m2": fresh_signature,
        "star_pairing.quaternion.m2": fresh_star_pairing,
        "sylvester_reduction.quaternion.m2": fresh_sylvester,
    }


# a 2 x 2 hermitian matrix over (-1,-1) on Q[y]/(y^4 - 180): scalar diagonal,
# off-diagonal beta and theta(beta), each component a power-basis vector
_BETA = [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["2", "0", "0", "0"], ["0", "0", "1", "0"]]
_THETA_BETA = [["1", "1", "0", "0"], ["0", "-1", "0", "0"], ["-2", "0", "0", "0"], ["0", "0", "-1", "0"]]
_MEMBER = {
    "algebra": {
        "division": {"kind": "quaternion", "a": "-1", "b": "-1"},
        "field": {"min_poly": ["-180", "0", "0", "0", "1"]},
        "n": 2,
    },
    "element": [
        ["70", _BETA],
        [_THETA_BETA, "90"],
    ],
    "ordering_index": 1,
    "orientation": 1,
}


def _golden_case(name: str) -> dict:
    cases = json.loads((Path(__file__).resolve().parents[1] / "tests/golden/cases.json").read_text())
    return next(case for case in cases if case["name"] == name)


def _cli_operations() -> dict:
    """One `orderings`, one `member` and one `np` job through `cli.run`, parser included."""
    tmp = tempfile.TemporaryDirectory()
    np_case = _golden_case("np_search_m2_qq")
    jobs = {
        "orderings": ({"field": {"min_poly": ["1", "0", "-10", "0", "1"]}}, 0),
        "member": (_MEMBER, 0),
        "np": (np_case["config"], np_case["seed"]),
    }
    ops = {}
    for command, (config, seed) in jobs.items():
        path = Path(tmp.name) / f"{command}.json"
        path.write_text(json.dumps(config))

        def run(command=command, path=path, seed=seed, tmp=tmp):
            with redirect_stdout(io.StringIO()):
                return cli.run(["--seed", str(seed), command, "--config", str(path)])

        ops[f"cli_run.{command}"] = run
    return ops


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
    reducible = NumberField([-4, 0, 0, 0, 1])
    zero_divisor = reducible.element([-2, 0, 1, 0])
    root = list_orderings(reducible)[1]
    ops["sign_of.deg4.fallback"] = lambda: sign_of(zero_divisor, root)
    ops["number_field.quartic"] = lambda: NumberField([-180, 0, 0, 0, 1])
    deg8 = Polynomial(X + Y + [1])
    sextic = Polynomial([1])
    for k in range(-2, 4):
        sextic = sextic * Polynomial([-k, 1])
    conditions = [Polynomial([X[i % 4], Y[(i + i // 4) % 4], 1]) for i in range(5)]
    ops["sturm_sequence.deg8"] = lambda: sturm_sequence(Polynomial(deg8.coeffs))
    ops["isolate_real_roots.deg8"] = lambda: isolate_real_roots(Polynomial(deg8.coeffs))
    for r in (1, 3, 5):
        ops[f"count_roots_with_signs_formula.r{r}"] = lambda r=r: count_roots_with_signs_formula(
            Polynomial(sextic.coeffs), conditions[:r]
        )
    ops["count_roots_with_signs.r3"] = lambda: count_roots_with_signs(
        Polynomial(sextic.coeffs), conditions[:3]
    )
    ops["verify_sturm.30"] = lambda: criterion_sturm_oracle(random.Random(0), 30)
    ops["delement_mul.quaternion.deg1"] = lambda: q1 * r1
    ops["delement_mul.quaternion.deg4"] = lambda: q4 * r4
    sqrt2 = quadratic_desc(fields[2], fields[2].generator())
    s2 = DElement(sqrt2, (x[2], y[2]))
    t2 = DElement(sqrt2, (y[2], x[2]))
    ops["delement_mul.quadratic.deg2"] = lambda: s2 * t2
    ops["delement_norm.quaternion.deg4"] = q4.norm
    ops.update(_hamilton_operations())
    ops.update(_hamilton_m3_operations())
    ops.update(_member_m3_deg4_operations())
    ops.update(_cli_operations())
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
    parser = argparse.ArgumentParser(description="Time the kernel rows into one column of a BENCH file.")
    parser.add_argument("out", type=Path, help="JSON file to add the column to, e.g. BENCH_12.json")
    out = parser.parse_args().out
    column = best_us(operations())
    data = json.loads(out.read_text()) if out.exists() else {}
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
    out.write_text(json.dumps(data, indent=2) + "\n")
    for name, us in column.items():
        print(f"{name:32s} {us:10.3f} us")


if __name__ == "__main__":
    main()
