"""Layer microbenchmarks of the arithmetic kernels, written to a BENCH file.

  PYTHONPATH=<checkout>/src python3 bench/kernels.py BENCH_<n>.json
  PYTHONPATH=<checkout>/src python3 bench/kernels.py BENCH_<n>.json --against <other>

Times each operation on fixed operands and records the best of several
repeats in microseconds: `Fraction` mul; `FieldElement` mul and add at
degree 1, 2 and 4; `inverse` at degree 2 and 4; `sign_of` at degree 4,
warm: after the first call the ordering's narrowed interval is stored on
the field, so the row times the interval test on it; `sign_of` of the zero
divisor x^2 - 2 over x^4 - 4 (`sign_of.deg4.fallback`), which after the
first call goes straight from an undecided interval test to the Tarski
query; building the `NumberField` x^4 - 180 (screens included) and
x^2 - (10^12 + 39) (`number_field.quadratic.large_c`, a 13-digit constant,
where a rational-root screen by trial division costs about sqrt(c) steps);
`sturm_sequence` of a degree-8 polynomial and `isolate_real_roots` of it
(four real roots), and the Tarski chain of that polynomial with a cubic
condition (`tarski_chain.deg8`, the chain kernel alone);
`count_roots_with_signs_formula` for one, three and five quadratic
conditions and the localized `count_roots_with_signs` for the first three,
on a sextic with six rational roots (each call gets a fresh copy of its
polynomial, so the chain, intervals and Tarski chains a `Polynomial` keeps
are built every time), and the formula for three conditions on one copy
whose singleton chains the localized count has already built
(`count_roots_with_signs_formula.r3.kept`; the formula fills nothing, so
every call finds the same copy); one
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
stdout discarded.  Over M_3(H) it times `A.invert` of a fixed
3 x 3 element, building the algebra with Phi = I, and checking the cone
certificate of a fixed positive definite hermitian matrix.  Over M_3 of
(-1,-1) on x^4 - 180 it times reading a fixed 3 x 3 hermitian element
from its wire form, integer coordinate strings as a `member` job sends
them (`parse_algebra_element`), and deciding its membership in the + cone
at the second ordering (`cone_membership`, a member, with the algebra's
memo emptied on each call).  Over the standard
algebras of the property suite, each from one fixed rng state per call, it
times one 3 x 3 `random_d_matrix` draw of height 2 per kind (over M_2(Q),
M_2(Q(sqrt 2)(sqrt -1)) and M_2(H) descriptors) and one `sample_cone_member`
of the + cone of M_2(H); `cone_axioms_check` there on ten fixed samples (five
members, five symmetric draws) and four scalars, with the memo emptied on
each call; and `mideal_check` over H
on eight fixed one-entry forms, rebuilt with the memo emptied on each call.
Over M_2(Q) with Phi = diag(1, -1) it times building a fixed non-diagonal
2 x 2 form and its first `signature`, with the memo emptied on each call,
and over H the `trace_transfer` of a fixed diagonal form of four entries,
built once.  On forms built once it times `form_scale` of that 2 x 2 form
by 3/2 (`form_scale.m2_qq_phi`) and `form_tensor_qf` of a 4-entry
quadratic form with a 2-entry diagonal form over M_2(H)
(`form_tensor_qf.m2_ham`); neither reads the result's blocks.  Over fresh quartic fields x^4 - c, cycling through 64
values of c so that nothing kept per field is reused within a cycle, it
times building the base and the (-1,-1) descriptor over a field built
beforehand (`division_desc.*.deg4`), and reading the wire descriptor of
M_2((-1,-1)) on x^4 - c, field and algebra included
(`parse_algebra.quaternion.m2.deg4`).
The arithmetic operands are those of `perfbench/tracer.py`'s kernel timings.
The hermsig measured is whichever one PYTHONPATH imports, so the same
script times any checkout; its figures go into one column of the JSON file
named on the command line, named by the checkout's git commit, with
"+dirty" when its src/ has uncommitted changes, and the other columns of
that file are kept.

With `--against PATH` the script also times the checkout at PATH in the
same process: it copies PATH's `src/hermsig` to a temporary directory under
the package name `hermsig_against` (every import inside the package is
relative, so the copy imports itself), builds the same operations from it,
and runs each operation on both packages back to back in every repeat, the
side that goes first alternating per repeat.  Both columns are written,
plus `ratio`: per row, the median over repeats of the PYTHONPATH checkout's
time over PATH's in the same repeat.  Rows of code neither side changed
should read close to 1.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

REPEATS = 15
TARGET_S = 0.02  # time per repeat
MODULES = (
    "algebras", "cli", "cones", "exactnum", "hermitian", "jsonio", "orderings", "qforms", "verify",
    "wittideal",
)
AGAINST_PACKAGE = "hermsig_against"

X = [Fraction(3, 7), Fraction(-5, 2), Fraction(11, 9), Fraction(-4, 13)]
Y = [Fraction(-8, 5), Fraction(7, 3), Fraction(-2, 11), Fraction(9, 4)]


def load(package: str) -> SimpleNamespace:
    """The package's modules the rows call, imported under its package name."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in MODULES})


def _element(field, coords):
    return field.element(coords[: field.degree])


def _quaternions(h, field):
    minus_one = field.from_rational(-1)
    desc = h.algebras.quaternion_desc(field, minus_one, minus_one)
    a = h.algebras.DElement(desc, tuple(_element(field, X[i:] + X[:i]) for i in range(4)))
    b = h.algebras.DElement(desc, tuple(_element(field, Y[i:] + Y[:i]) for i in range(4)))
    return a, b


def _hermitian_matrix(h, desc, size):
    """M + theta(M)^t for a fixed size x size matrix M over D."""
    coords = X + Y

    def entry(i, j):
        start = i * size + j
        return h.algebras.DElement(
            desc,
            tuple(
                desc.field.from_rational(coords[(start + k) % len(coords)])
                for k in range(desc.dim)
            ),
        )

    return [[entry(i, j) + entry(j, i).conj() for j in range(size)] for i in range(size)]


def _hamilton_m3_operations(h) -> dict:
    """Inverse, algebra construction and cone-certificate check over M_3(H)."""
    qq = h.orderings.NumberField([0, 1])
    minus_one = qq.from_rational(-1)
    desc = h.algebras.quaternion_desc(qq, minus_one, minus_one)
    coords = X + Y
    M3H = h.algebras.make_algebra(desc, 3)
    x = M3H.element(
        [
            [
                h.algebras.DElement(desc, tuple(qq.from_rational(coords[(3 * i + j + k) % 8]) for k in range(4)))
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    # a hermitian matrix shifted by 20 I: positive definite, so in the + cone
    S = _hermitian_matrix(h, desc, 3)
    b = M3H.element([[e + desc.one() * 20 if i == j else e for j, e in enumerate(row)] for i, row in enumerate(S)])
    cone = h.cones.PositiveConeHandle(M3H, h.orderings.list_orderings(qq)[0], 1)
    member, w = h.cones.cone_membership(b, cone)
    assert member
    if hasattr(w, "check"):
        check = lambda: w.check(b, cone)
    else:
        # checkouts before `ConeWitness.check` rebuilt the element instead
        check = lambda: w.reconstruct(cone) == b
    return {
        "invert.quaternion.m3": lambda: M3H.invert(x),
        "algebra_init.quaternion.m3": lambda: h.algebras.make_algebra(desc, 3),
        "cone_witness_check.quaternion.m3": check,
    }


def _member_m3_deg4_operations(h) -> dict:
    """Wire parse and cone membership of a 3 x 3 hermitian element over x^4 - 180."""
    field = h.orderings.NumberField([-180, 0, 0, 0, 1])
    minus_one = field.from_rational(-1)
    A = h.algebras.make_algebra(h.algebras.quaternion_desc(field, minus_one, minus_one), 3)
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
    b = h.jsonio.parse_algebra_element(A, wire)
    cone = h.cones.PositiveConeHandle(A, h.orderings.list_orderings(field)[1], 1)
    assert h.cones.cone_membership(b, cone)[0]
    def fresh_membership():
        # membership reads the congruence of <b> from the algebra's memo
        A._diagonal_memo.clear()
        return h.cones.cone_membership(b, cone)

    return {
        "parse_algebra_element.quaternion.m3.deg4": lambda: h.jsonio.parse_algebra_element(A, wire),
        "cone_membership.quaternion.m3.deg4": fresh_membership,
    }


def _hamilton_operations(h) -> dict:
    """Equality, diagonalization and signature over H = (-1,-1)_Q."""
    qq = h.orderings.NumberField([0, 1])
    minus_one = qq.from_rational(-1)
    desc = h.algebras.quaternion_desc(qq, minus_one, minus_one)
    M2H = h.algebras.make_algebra(desc, 2)
    S = _hermitian_matrix(h, desc, 4)

    def block(a, b):
        return M2H.element([[S[2 * a + r][2 * b + c] for c in range(2)] for r in range(2)])

    x = block(0, 1)
    # the same values in distinct objects, so equality reads every entry
    y = M2H.element(
        [[h.algebras.DElement(desc, tuple(qq.element(c.coords) for c in e.comps)) for e in row] for row in x.entries]
    )
    gram = [[block(a, b) for b in range(2)] for a in range(2)]
    P = h.orderings.list_orderings(qq)[0]

    def fresh_signature():
        M2H._diagonal_memo.clear()
        return h.hermitian.signature(h.hermitian.HermitianForm(M2H, gram), P)

    def m(*rows):
        return M2H.element(
            [[h.algebras.DElement(desc, tuple(qq.from_rational(c) for c in e)) for e in row] for row in rows]
        )

    a = m([(2, 0, 0, 0), (1, 0, 1, 0)], [(1, 0, -1, 0), (5, 0, 0, 0)])
    units = [
        m([(2, 0, 0, 0), (1, 1, 0, 0)], [(1, -1, 0, 0), (3, 0, 0, 0)]),
        m([(1, 0, 0, 0), (0, 1, 1, 0)], [(0, -1, -1, 0), (-4, 0, 0, 0)]),
    ]
    cone = h.cones.PositiveConeHandle(M2H, P, 1)

    def fresh_star_pairing():
        M2H._diagonal_memo.clear()
        return h.hermitian.star_pairing(a, a)

    def fresh_sylvester():
        M2H._diagonal_memo.clear()
        return h.wittideal.sylvester_reduction(h.hermitian.diagonal_form(M2H, units), a, cone)

    return {
        "algebra_eq.quaternion.m2": lambda: x == y,
        "diagonalize_hermitian.quaternion.4x4": lambda: h.hermitian.diagonalize_hermitian(desc, S),
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


def _cli_operations(h) -> dict:
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
                return h.cli.run(["--seed", str(seed), command, "--config", str(path)])

        ops[f"cli_run.{command}"] = run
    return ops


def _sampling_operations(h) -> dict:
    """Seeded draws and sampled checks, each call from one fixed rng state."""
    algebras = h.verify.standard_algebras()
    rng = random.Random(22)
    state = rng.getstate()

    def seeded(fn):
        def run():
            rng.setstate(state)
            return fn(rng)

        return run

    ops = {}
    for kind, key in (("base", "m2_qq"), ("quadratic", "m2_gauss_rt2"), ("quaternion", "m2_ham")):
        desc = algebras[key].desc
        ops[f"random_d_matrix.{kind}.m3"] = seeded(lambda rng, desc=desc: h.algebras.random_d_matrix(desc, 3, rng, 2))
    M2H = algebras["m2_ham"]
    cone = h.cones.list_positive_cones(M2H)[0]
    ops["sample_cone_member.m2_ham"] = seeded(lambda rng: h.cones.sample_cone_member(cone, rng))
    samples = [h.cones.sample_cone_member(cone, rng) for _ in range(5)]
    samples += [h.hermitian.sample_symmetric(M2H, rng) for _ in range(5)]
    scalars = [M2H.field.from_rational(c) for c in (3, -1, Fraction(1, 2), 0)]

    def axioms():
        M2H._diagonal_memo.clear()
        return h.cones.cone_axioms_check(cone, samples, scalars)

    ops["cone_axioms_check.m2_ham"] = axioms
    H = algebras["qq_ham"]
    ham_cone = h.cones.list_positive_cones(H)[0]
    units = [h.hermitian.random_symmetric_unit(H, rng, 2) for _ in range(8)]

    def mideal(rng):
        # fresh forms and an empty memo, so every call diagonalizes
        H._diagonal_memo.clear()
        forms = [h.hermitian.diagonal_form(H, [u]) for u in units]
        return h.wittideal.mideal_check(ham_cone, forms, rng)

    ops["mideal_check.qq_ham"] = seeded(mideal)
    return ops


def _form_operations(h) -> dict:
    """A form's construction with its first signature, and a trace transfer."""
    algebras = h.verify.standard_algebras()
    A = algebras["m2_qq_phi"]
    F = A.field

    def m2(rows):
        return A.element([[A.desc.from_field(F.from_rational(c)) for c in row] for row in rows])

    # Phi = diag(1, -1): the symmetric elements are [[a, b], [-b, c]]
    x = m2([[1, 2], [3, -1]])
    gram = [[m2([[2, 1], [-1, 5]]), x], [A.involution(x), m2([[-3, 0], [0, 1]])]]
    P = h.orderings.list_orderings(F)[0]

    def fresh_form():
        A._diagonal_memo.clear()
        return h.hermitian.signature(h.hermitian.HermitianForm(A, gram), P)

    H = algebras["qq_ham"]
    form = h.hermitian.diagonal_form(H, [3, -1, Fraction(1, 2), 5])
    built = h.hermitian.HermitianForm(A, gram)
    three_halves = F.from_rational(Fraction(3, 2))

    M2H = algebras["m2_ham"]
    QQ = M2H.field

    def m2h(*rows):
        return M2H.element(
            [[h.algebras.DElement(M2H.desc, tuple(QQ.from_rational(c) for c in e)) for e in row] for row in rows]
        )

    units = h.hermitian.diagonal_form(M2H, [
        m2h([(2, 0, 0, 0), (1, 1, 0, 0)], [(1, -1, 0, 0), (3, 0, 0, 0)]),
        m2h([(1, 0, 0, 0), (0, 1, 1, 0)], [(0, -1, -1, 0), (-4, 0, 0, 0)]),
    ])
    q = h.qforms.QuadraticForm(QQ, [QQ.from_rational(c) for c in (1, -2, 3, Fraction(1, 2))])
    return {
        "hermitian_form.m2_qq_phi.2x2": fresh_form,
        "trace_transfer.qq_ham": lambda: h.hermitian.trace_transfer(form),
        "form_scale.m2_qq_phi": lambda: h.hermitian.form_scale(three_halves, built),
        "form_tensor_qf.m2_ham": lambda: h.hermitian.form_tensor_qf(q, units),
    }


def _descriptor_operations(h) -> dict:
    """Descriptors and wire algebras over x^4 - c, a new c on each call."""
    cs = [c for c in range(2, 100) if math.isqrt(c) ** 2 != c][:64]
    fields = itertools.cycle([h.orderings.NumberField([-c, 0, 0, 0, 1]) for c in cs])
    configs = itertools.cycle([
        {
            "field": {"min_poly": [str(-c), "0", "0", "0", "1"]},
            "division": {"kind": "quaternion", "a": "-1", "b": "-1"},
            "n": 2,
        }
        for c in cs
    ])

    def quaternion():
        F = next(fields)
        minus_one = F.from_rational(-1)
        return h.algebras.quaternion_desc(F, minus_one, minus_one)

    return {
        "division_desc.base.deg4": lambda: h.algebras.base_desc(next(fields)),
        "division_desc.quaternion.deg4": quaternion,
        "parse_algebra.quaternion.m2.deg4": lambda: h.jsonio.parse_algebra(next(configs)),
    }


def operations(h) -> dict:
    """Name -> zero-argument callable, on fixed operands, for the modules h."""
    fields = {
        1: h.orderings.NumberField([0, 1]),
        2: h.orderings.NumberField([-2, 0, 1]),
        4: h.orderings.NumberField([-2, 0, 0, 0, 1]),
    }
    x = {d: _element(F, X) for d, F in fields.items()}
    y = {d: _element(F, Y) for d, F in fields.items()}
    ordering = h.orderings.list_orderings(fields[4])[0]
    q1, r1 = _quaternions(h, fields[1])
    q4, r4 = _quaternions(h, fields[4])
    ops = {"fraction_mul": lambda: X[0] * Y[0]}
    for d in (1, 2, 4):
        ops[f"field_mul.deg{d}"] = lambda d=d: x[d] * y[d]
        ops[f"field_add.deg{d}"] = lambda d=d: x[d] + y[d]
    for d in (2, 4):
        ops[f"field_inverse.deg{d}"] = x[d].inverse
    ops["sign_of.deg4"] = lambda: h.orderings.sign_of(x[4], ordering)
    reducible = h.orderings.NumberField([-4, 0, 0, 0, 1])
    zero_divisor = reducible.element([-2, 0, 1, 0])
    root = h.orderings.list_orderings(reducible)[1]
    ops["sign_of.deg4.fallback"] = lambda: h.orderings.sign_of(zero_divisor, root)
    ops["number_field.quartic"] = lambda: h.orderings.NumberField([-180, 0, 0, 0, 1])
    ops["number_field.quadratic.large_c"] = lambda: h.orderings.NumberField([-(10**12 + 39), 0, 1])
    deg8 = h.exactnum.Polynomial(X + Y + [1])
    sextic = h.exactnum.Polynomial([1])
    for k in range(-2, 4):
        sextic = sextic * h.exactnum.Polynomial([-k, 1])
    conditions = [h.exactnum.Polynomial([X[i % 4], Y[(i + i // 4) % 4], 1]) for i in range(5)]
    ops["sturm_sequence.deg8"] = lambda: h.exactnum.sturm_sequence(h.exactnum.Polynomial(deg8.coeffs))
    ops["isolate_real_roots.deg8"] = lambda: h.exactnum.isolate_real_roots(h.exactnum.Polynomial(deg8.coeffs))
    for r in (1, 3, 5):
        ops[f"count_roots_with_signs_formula.r{r}"] = lambda r=r: h.exactnum.count_roots_with_signs_formula(
            h.exactnum.Polynomial(sextic.coeffs), conditions[:r]
        )
    ops["count_roots_with_signs.r3"] = lambda: h.exactnum.count_roots_with_signs(
        h.exactnum.Polynomial(sextic.coeffs), conditions[:3]
    )
    kept = h.exactnum.Polynomial(sextic.coeffs)
    h.exactnum.count_roots_with_signs(kept, conditions[:3])
    ops["count_roots_with_signs_formula.r3.kept"] = lambda: h.exactnum.count_roots_with_signs_formula(
        kept, conditions[:3]
    )
    m8 = h.exactnum._primitive_integer(deg8)
    cubic = h.exactnum._primitive_integer(h.exactnum.Polynomial(Y[:3] + [1]))
    ops["tarski_chain.deg8"] = lambda: h.exactnum._tarski_chain(m8, cubic)
    ops["verify_sturm.30"] = lambda: h.verify.criterion_sturm_oracle(random.Random(0), 30)
    ops["delement_mul.quaternion.deg1"] = lambda: q1 * r1
    ops["delement_mul.quaternion.deg4"] = lambda: q4 * r4
    sqrt2 = h.algebras.quadratic_desc(fields[2], fields[2].generator())
    s2 = h.algebras.DElement(sqrt2, (x[2], y[2]))
    t2 = h.algebras.DElement(sqrt2, (y[2], x[2]))
    ops["delement_mul.quadratic.deg2"] = lambda: s2 * t2
    ops["delement_norm.quaternion.deg4"] = q4.norm
    ops.update(_hamilton_operations(h))
    ops.update(_hamilton_m3_operations(h))
    ops.update(_member_m3_deg4_operations(h))
    ops.update(_cli_operations(h))
    ops.update(_sampling_operations(h))
    ops.update(_form_operations(h))
    ops.update(_descriptor_operations(h))
    return ops


def best_us(sides: list) -> tuple[list, dict]:
    """Best time per call of each operation on each side, in microseconds.

    `sides` holds one name -> callable dict per package.  Repeats go
    round-robin over the operations, so a slow spell of the machine touches
    one repeat of each rather than every repeat of one.  Within a repeat
    each operation runs on every side back to back, and the side that goes
    first alternates from one repeat to the next.  With two sides, the
    second value maps each operation to the median over repeats of the
    first side's time over the second's in the same repeat: a spell that
    lasts one repeat moves one pair, not a side's best.
    """
    names = list(sides[0])
    timed = []
    for ops in sides:
        timers = {}
        for name in names:
            timer = timeit.Timer(ops[name])
            number = 1
            while timer.timeit(number) < TARGET_S / 4:
                number *= 4
            timers[name] = (timer, number)
        timed.append(timers)
    times = [{name: [] for name in names} for _ in sides]
    order = list(range(len(sides)))
    for _ in range(REPEATS):
        for name in names:
            for side in order:
                timer, number = timed[side][name]
                times[side][name].append(timer.timeit(number) / number)
        order.reverse()
    best = [{name: round(min(ts) * 1e6, 3) for name, ts in column.items()} for column in times]
    ratio = {}
    if len(sides) == 2:
        ratio = {
            name: round(statistics.median(a / b for a, b in zip(times[0][name], times[1][name])), 3)
            for name in names
        }
    return best, ratio


def checkout_label(root: Path) -> str:
    """The checkout's short commit, with "+dirty" when its src/ has changes."""
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
    parser.add_argument(
        "--against", type=Path, metavar="PATH",
        help="another checkout, timed interleaved in this process as a second column",
    )
    args = parser.parse_args()
    root = Path(importlib.import_module("hermsig").__file__).resolve().parents[2]
    labels = [checkout_label(root)]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [operations(load("hermsig"))]
        if args.against is not None:
            # the intra-package imports are relative, so a copy of the other
            # checkout's package imports as itself under a second name
            shutil.copytree(
                args.against / "src" / "hermsig", Path(tmp) / AGAINST_PACKAGE,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            sys.path.insert(0, tmp)
            sides.append(operations(load(AGAINST_PACKAGE)))
            label = checkout_label(args.against.resolve())
            labels.append(label if label != labels[0] else label + "+against")
        columns, ratio = best_us(sides)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["unit"] = "us"
    data["method"] = (
        f"best of {REPEATS} round-robin timeit repeats of about {TARGET_S} s per operation"
    )
    if args.against is not None:
        data["method"] += (
            "; both checkouts timed in one process, interleaved per operation, the"
            " first side alternating per repeat; ratio is the median over repeats of the"
            " first side's time over the second's in the same repeat"
        )
    data["machine"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
    for label, column in zip(labels, columns):
        data.setdefault("columns", {})[label] = column
    if ratio:
        data["ratio"] = {"of": labels[0], "over": labels[1], "rows": ratio}
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for name, us in columns[0].items():
        line = f"{name:42s} {us:12.3f} us"
        if ratio:
            line += f" {columns[1][name]:12.3f} us  ratio {ratio[name]:.3f}"
        print(line)


if __name__ == "__main__":
    main()
