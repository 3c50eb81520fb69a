"""Division-algebra arithmetic against independent references.

`DElement` holds one integer block over one denominator and multiplies
through a structure-constant table per shape (field degree and reduced
constants), shared by every field of that shape; the reduction comes from
the descriptor's own field.  Two references check it:

- the benchmark's `perfbench/exact.py` `Division`, which shares no code with
  hermsig and models Q[x]/(x^d - c) for d in {1, 2, 4} with fractions;
- for minimal polynomials that reference cannot model (non-integral, or not
  of the form x^d - c), the hand-written per-kind product and norm formulas
  over `FieldElement`.

Every kind is covered: base, quadratic, definite (-1, -1), split (1, 1) and
quaternions with a non-rational a (the field generator).
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import (  # noqa: E402
    BASE,
    QUADRATIC,
    QUATERNION,
    AlgebraWithInvolution,
    DElement,
    DivisionAlgebraDesc,
    _make,
    base_desc,
    mat_identity,
    quadratic_desc,
    quaternion_desc,
)
from hermsig.hermitian import diagonalize_hermitian  # noqa: E402
from hermsig.orderings import NumberField  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import exact  # noqa: E402

COORD = st.fractions(min_value=-12, max_value=12, max_denominator=9)


def _descs(field: NumberField) -> list[DivisionAlgebraDesc]:
    """Every kind over field, with a non-rational a when the degree allows."""
    c = field.from_rational
    g = field.generator()
    out = [
        base_desc(field),
        quadratic_desc(field, c(-1)),
        quaternion_desc(field, c(-1), c(-1)),
        quaternion_desc(field, c(1), c(1)),
        quaternion_desc(field, c(Fraction(-2, 3)), c(5)),
    ]
    if field.degree > 1:
        out += [quadratic_desc(field, g), quaternion_desc(field, g, c(-3))]
    return out


# (d, c) of exact.Field Q[x]/(x^d - c), and the same field in hermsig
EXACT_FIELDS = [(1, 0), (2, 2), (4, 2), (4, 180)]
EXACT_CASES = [
    (d, c, desc)
    for d, c in EXACT_FIELDS
    for desc in _descs(NumberField([-c] + [0] * (d - 1) + [1]))
]

# minimal polynomials exact.py cannot model
OTHER_FIELDS = [
    NumberField([-1, 0, 3]),  # monic x^2 - 1/3
    NumberField([5, -1, 0, Fraction(2, 3), 7]),  # denominators 21 and 7
    NumberField([1, 3, 0, 2]),  # monic x^3 + 3/2 x + 1/2
]
OTHER_CASES = [desc for F in OTHER_FIELDS for desc in _descs(F)]
ALL_DESCS = [desc for *_, desc in EXACT_CASES] + OTHER_CASES


@st.composite
def elements(draw, desc, count):
    deg = desc.field.degree
    return [
        DElement(
            desc,
            tuple(
                desc.field.element([draw(COORD) for _ in range(deg)])
                for _ in range(desc.dim)
            ),
        )
        for _ in range(count)
    ]


@st.composite
def case_and_elements(draw, cases, count):
    case = draw(st.sampled_from(cases))
    desc = case[-1] if isinstance(case, tuple) else case
    return case, draw(elements(desc, count))


def _exact_division(d: int, c: int, desc: DivisionAlgebraDesc):
    F = exact.Field(d, c)
    lift = lambda x: tuple(x.coords)  # noqa: E731
    params = {"d": desc.d, "a": desc.a, "b": desc.b}
    return exact.Division(
        F, desc.kind, **{k: lift(v) for k, v in params.items() if v is not None}
    )


def _to_exact(x: DElement):
    return tuple(tuple(c.coords) for c in x.comps)


@settings(max_examples=120, deadline=None)
@given(case_and_elements(EXACT_CASES, 2))
def test_matches_exact_division(drawn):
    (d, c, desc), (x, y) = drawn
    D = _exact_division(d, c, desc)
    ex, ey = _to_exact(x), _to_exact(y)
    assert _to_exact(x * y) == D.mul(ex, ey)
    assert _to_exact(x + y) == D.add(ex, ey)
    assert _to_exact(x - y) == D.sub(ex, ey)
    assert _to_exact(x.conj()) == D.conj(ex)
    assert tuple(x.norm().coords) == D.norm(ex)


def formula_mul(x: DElement, y: DElement) -> DElement:
    """The per-kind product formulas over FieldElement."""
    desc = x.desc
    a, b = x.comps, y.comps
    if desc.kind == BASE:
        return DElement(desc, (a[0] * b[0],))
    if desc.kind == QUADRATIC:
        d = desc.d
        return DElement(desc, (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0]))
    p, q = desc.a, desc.b
    pq = p * q
    return DElement(
        desc,
        (
            a[0] * b[0] + p * a[1] * b[1] + q * a[2] * b[2] - pq * a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] - q * a[2] * b[3] + q * a[3] * b[2],
            a[0] * b[2] + a[2] * b[0] + p * a[1] * b[3] - p * a[3] * b[1],
            a[0] * b[3] + a[3] * b[0] + a[1] * b[2] - a[2] * b[1],
        ),
    )


def formula_norm(x: DElement):
    desc, a = x.desc, x.comps
    if desc.kind == BASE:
        return a[0] * a[0]
    if desc.kind == QUADRATIC:
        return a[0] * a[0] - desc.d * a[1] * a[1]
    p, q = desc.a, desc.b
    return a[0] * a[0] - p * a[1] * a[1] - q * a[2] * a[2] + p * q * a[3] * a[3]


@settings(max_examples=120, deadline=None)
@given(case_and_elements(OTHER_CASES, 2), COORD)
def test_matches_per_kind_formulas(drawn, q):
    desc, (x, y) = drawn
    assert x * y == formula_mul(x, y)
    assert x.norm() == formula_norm(x)
    assert x + y == DElement(desc, tuple(s + t for s, t in zip(x.comps, y.comps)))
    assert x.conj() == DElement(desc, (x.comps[0],) + tuple(-s for s in x.comps[1:]))
    g = desc.field.generator() + desc.field.from_rational(q)
    for c in (g, desc.field.from_rational(q)):
        want = DElement(desc, tuple(s * c for s in x.comps))
        assert x.scale(c) == want == x * c == c * x


def assert_canonical(x: DElement):
    deg = x.desc.field.degree
    assert len(x.nums) == x.desc.dim * deg
    assert all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.nums) == 1


@settings(max_examples=100, deadline=None)
@given(case_and_elements(ALL_DESCS, 3))
def test_blocks_are_canonical(drawn):
    desc, (x, y, z) = drawn
    for v in (x, y, x * y, x + y, x - y, -x, x.conj(), (x + y) - y, y.scale(desc.field.generator())):
        assert_canonical(v)
        assert DElement(desc, v.comps) == v
    # equal values built along different paths compare and hash equal
    for u, v in ((x + y) - y, x), (x * (y + z), x * y + x * z), ((x * y) * z, x * (y * z)):
        assert u == v and hash(u) == hash(v)
        assert (u.nums, u.den) == (v.nums, v.den)
    if x.norm().is_zero:
        return
    # conj(x) / norm(x) is a two-sided inverse exactly when the norm is nonzero
    inverse = x.conj().scale(x.norm().inverse())
    one = desc.one()
    assert x * inverse == one == inverse * x


def test_descriptor_check_is_by_value():
    F = NumberField([-2, 0, 1])
    d1 = quaternion_desc(F, F.from_rational(-1), F.from_rational(-1))
    d2 = quaternion_desc(NumberField([-2, 0, 1]), F.from_rational(-1), F.from_rational(-1))
    assert d1 is not d2
    i1, i2 = d1.basis()[1], d2.basis()[1]
    assert i1 == i2 and hash(i1) == hash(i2)
    assert i1 * i2 == d2.from_field(F.from_rational(-1))
    assert i1 != quaternion_desc(F, F.from_rational(-1), F.from_rational(-3)).basis()[1]


@pytest.mark.parametrize("kind", [QUADRATIC, QUATERNION])
def test_unit_products_follow_the_presentation(kind):
    # u^2 = d or a, v^2 = b, uv = -vu = k
    F = NumberField([-3, 0, 1])
    g, c = F.generator(), F.from_rational
    desc = quadratic_desc(F, g) if kind == QUADRATIC else quaternion_desc(F, g, c(7))
    units = desc.basis()
    assert units[1] * units[1] == desc.from_field(g)
    if kind == QUATERNION:
        one, i, j, k = units
        assert i * j == k == -(j * i)
        assert j * j == desc.from_field(c(7))
        assert k * k == desc.from_field(-(g * c(7)))
        assert i * k == j.scale(g) and k * i == -j.scale(g)
        assert j * k == -i.scale(c(7)) and k * j == i.scale(c(7))


def test_zero_and_one_are_shared_and_stay_intact():
    # every zero() and one() of a descriptor is one object, so the
    # elimination, the identity and the inverse, which hold them in their
    # matrices, must never change an element in place
    for A in standard_algebras().values():
        desc = A.desc
        zero, one = desc.zero(), desc.one()
        assert desc.zero() is zero and desc.one() is one
        u = desc.basis()[-1]
        # zero diagonal entries send the elimination through its swap and
        # off-diagonal pivot steps
        B = [[zero, u, zero], [u.conj(), zero, one], [zero, one, one]]
        diagonalize_hermitian(desc, B)
        mat_identity(desc, 3)
        A2 = AlgebraWithInvolution(desc, 2)
        A2.invert(A2.element([[one, u], [zero, one]]))
        A.zero(), A.identity(), A.scalar(A.field.one())
        size = desc.dim * desc.field.degree
        fresh_zero = _make(desc, (0,) * size, 1)
        fresh_one = _make(desc, (1,) + (0,) * (size - 1), 1)
        assert (zero.nums, zero.den) == (fresh_zero.nums, fresh_zero.den)
        assert (one.nums, one.den) == (fresh_one.nums, fresh_one.den)
        assert zero.desc is desc and one.desc is desc


# pairs of fields of one degree: two values of c for x^2 - c and x^4 - c, and
# the non-monic 3x^2 - 2 (its reduction scales every step) next to x^2 - 2
SHARED_FIELD_PAIRS = [
    (NumberField([-2, 0, 1]), NumberField([-3, 0, 1])),
    (NumberField([-2, 0, 0, 0, 1]), NumberField([-5, 0, 0, 0, 1])),
    (NumberField([-2, 0, 3]), NumberField([-2, 0, 1])),
]
SHAPES = {
    "base": base_desc,
    "quadratic -1": lambda F: quadratic_desc(F, F.from_rational(-1)),
    "quaternion (-1, -1)": lambda F: quaternion_desc(F, F.from_rational(-1), F.from_rational(-1)),
    # a = b = the generator: a * b reduces to c, so the two fields of a pair
    # have different constants although a and b have the same coordinates
    "quaternion (g, g)": lambda F: quaternion_desc(F, F.generator(), F.generator()),
}


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(SHARED_FIELD_PAIRS),
    st.sampled_from(sorted(SHAPES)),
    st.booleans(),
    st.data(),
)
def test_shared_tables_keep_each_fields_reduction(pair, shape, swap, data):
    first, second = pair[::-1] if swap else pair
    d1 = SHAPES[shape](first)
    x, y = data.draw(elements(d1, 2))
    d2 = SHAPES[shape](second)
    u, v = data.draw(elements(d2, 2))
    for desc, (p, q) in ((d1, (x, y)), (d2, (u, v))):
        assert p * q == formula_mul(p, q), (shape, desc.field.min_poly)
        assert p.norm() == formula_norm(p), (shape, desc.field.min_poly)
        g = desc.field.generator()
        assert p.scale(g) == DElement(desc, tuple(c * g for c in p.comps))


def test_one_shape_shares_one_table():
    def quaternion(F, a, b):
        return quaternion_desc(F, F.from_rational(a), F.from_rational(b))

    def generator(F):
        return quaternion_desc(F, F.generator(), F.generator())

    F3, F5 = NumberField([-3, 0, 0, 0, 1]), NumberField([-5, 0, 0, 0, 1])
    R2, R3 = NumberField([-2, 0, 1]), NumberField([-3, 0, 1])
    d3, d5 = quaternion(F3, -1, -1), quaternion(F5, -1, -1)
    # rows are the first part of a table; no table holds a field
    assert d3._mul[0] is d5._mul[0]
    assert not any(isinstance(part, NumberField) for part in d3._mul)
    assert base_desc(F3)._mul[0] is base_desc(F5)._mul[0]
    # the non-monic 3x^2 - 2 shares with x^2 - 2; only the reduction differs
    assert quaternion(NumberField([-2, 0, 3]), -1, -1)._mul[0] is quaternion(R2, -1, -1)._mul[0]
    # other constants, another denominator or another degree: another table
    for other in (quaternion(F3, -2, -1), quaternion(F3, Fraction(1, 2), -1), quaternion(R3, -1, -1)):
        assert other._mul[0] is not d3._mul[0]
    # a = b = the generator multiply to 2 over x^2 - 2 and to 3 over x^2 - 3
    assert generator(R2)._mul[0] is not generator(R3)._mul[0]
