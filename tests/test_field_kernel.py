"""Number-field arithmetic against an independent fraction reference.

`FieldElement` keeps integer numerators over one denominator and reduces
products modulo an integer-scaled minimal polynomial.  The reference here
holds coordinates as fractions, multiplies by schoolbook convolution and
reduces by the monic minimal polynomial directly; zero divisors are read
off sympy's polynomial gcd.  The fields run over degrees 1 to 4 and include
a non-integral monic minimal polynomial and the reducible x^4 - 5x^2 + 6.
The rational-root screen of `NumberField`, read off its isolating
intervals, is checked against sympy's factorization over Q.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.errors import (  # noqa: E402
    FieldMismatch,
    NotInvertible,
    NotSquarefree,
    ReducibleMinPoly,
)
from hermsig.orderings import NumberField  # noqa: E402

X = sympy.Symbol("x")

MIN_POLYS = [
    [Fraction(-3, 2), 1],  # Q, generator 3/2
    [-2, 0, 1],
    [-1, 0, 3],  # monic x^2 - 1/3: reduction needs the scale step
    [1, 3, 0, 2],  # monic x^3 + 3/2 x + 1/2
    [-2, 0, 0, 1],
    [-2, 0, 0, 0, 1],
    [5, -1, 0, Fraction(2, 3), 7],  # degree 4, denominators 21 and 7
    [6, 0, -5, 0, 1],  # (x^2 - 2)(x^2 - 3): reducible, has zero divisors
]
REDUCIBLE = [6, 0, -5, 0, 1]

COORD = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def monic(min_poly):
    cs = [Fraction(c) for c in min_poly]
    return [c / cs[-1] for c in cs]


def ref_mul(p, x, y):
    """Fraction coordinates of x*y, reduced by the monic p (lowest first)."""
    deg = len(p) - 1
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for i in range(2 * deg - 2, deg - 1, -1):
        c = prod[i]
        for j in range(deg + 1):
            prod[i - deg + j] -= c * p[j]
    return prod[:deg]


def is_zero_divisor(min_poly, coords):
    a = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coords)], X)
    p = sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(min_poly)], X)
    return a.is_zero or sympy.gcd(a, p).degree() > 0


def assert_canonical(x):
    assert len(x.nums) == x.owner.degree
    assert all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.nums) == 1


@st.composite
def field_and_coords(draw, count):
    min_poly = draw(st.sampled_from(MIN_POLYS))
    deg = len(min_poly) - 1
    coords = [[draw(COORD) for _ in range(deg)] for _ in range(count)]
    return min_poly, coords


FIELDS = {tuple(p): NumberField(p) for p in MIN_POLYS}


def field(min_poly):
    return FIELDS[tuple(min_poly)]


@settings(max_examples=200, deadline=None)
@given(field_and_coords(2), COORD)
def test_ring_operations_match_reference(case, q):
    min_poly, (x, y) = case
    F, p = field(min_poly), monic(min_poly)
    a, b = F.element(x), F.element(y)
    results = {
        "mul": (a * b, ref_mul(p, x, y)),
        "add": (a + b, [s + t for s, t in zip(x, y)]),
        "sub": (a - b, [s - t for s, t in zip(x, y)]),
        "neg": (-a, [-s for s in x]),
        "scale": (a.scale(q), [s * q for s in x]),
        "rmul": (q * a, [s * q for s in x]),
        "square": (a**2, ref_mul(p, x, x)),
    }
    for name, (got, want) in results.items():
        assert got.coords == tuple(want), name
        assert_canonical(got)
    assert a.coords == tuple(x)
    assert_canonical(a)


@settings(max_examples=200, deadline=None)
@given(field_and_coords(1), st.booleans())
def test_inverse_exactly_for_non_zero_divisors(case, force_divisor):
    min_poly, (x,) = case
    F, p = field(min_poly), monic(min_poly)
    if force_divisor and min_poly == REDUCIBLE:
        x = ref_mul(p, x, [Fraction(-2), 0, Fraction(1), 0])  # times x^2 - 2
    a = F.element(x)
    if is_zero_divisor(min_poly, x):
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    inv = a.inverse()
    assert_canonical(inv)
    assert ref_mul(p, x, list(inv.coords)) == [1] + [0] * (F.degree - 1)
    assert a * inv == F.one()
    assert a / a == F.one()


@settings(max_examples=80, deadline=None)
@given(field_and_coords(1), st.integers(1, 5))
def test_negative_powers(case, k):
    min_poly, (x,) = case
    F, p = field(min_poly), monic(min_poly)
    if is_zero_divisor(min_poly, x):
        return
    a = F.element(x)
    ref = [Fraction(1)] + [Fraction(0)] * (F.degree - 1)
    for _ in range(k):
        ref = ref_mul(p, ref, x)
    neg = a ** (-k)
    assert_canonical(neg)
    assert ref_mul(p, ref, list(neg.coords)) == [1] + [0] * (F.degree - 1)
    assert neg == a.inverse() ** k


@settings(max_examples=100, deadline=None)
@given(field_and_coords(2))
def test_equal_values_compare_and_hash_equal(case):
    min_poly, (x, y) = case
    F = field(min_poly)
    a, b = F.element(x), F.element(y)
    # the same value reached along different paths
    for other in ((a + b) - b, a.scale(6).scale(Fraction(1, 6)), -(-a)):
        assert other == a
        assert hash(other) == hash(a)
    # the same value held by two equal, distinct field objects
    G = NumberField(min_poly)
    assert G is not F and G == F
    a2 = G.element(x)
    assert a2 == a and hash(a2) == hash(a)


def test_same_value_from_different_coordinates():
    F = NumberField([-2, 0, 1])
    half = F.element([Fraction(2, 4), 0])
    assert half == F.element([Fraction(1, 2), 0])
    assert half == F.element(["3/6", "0/5"])
    assert hash(half) == hash(F.from_rational(Fraction(1, 2)))
    assert (half.nums, half.den) == ((1, 0), 2)
    zero = F.element([Fraction(3, 7), 0]) - F.element([Fraction(3, 7), 0])
    assert (zero.nums, zero.den) == ((0, 0), 1)
    assert zero == F.zero() and zero.is_zero


def test_mismatched_fields_raise():
    F2 = NumberField([-2, 0, 1])
    F3 = NumberField([-3, 0, 1])
    a, b = F2.element([1, 1]), F3.element([1, 1])
    for op in (
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: a / b,
    ):
        with pytest.raises(FieldMismatch):
            op()


@settings(max_examples=60, deadline=None)
@given(field_and_coords(2))
def test_equal_distinct_fields_combine(case):
    min_poly, (x, y) = case
    F, G, p = NumberField(min_poly), NumberField(min_poly), monic(min_poly)
    a, b = F.element(x), G.element(y)
    assert (a * b).coords == tuple(ref_mul(p, x, y))
    assert (a + b).coords == tuple(s + t for s, t in zip(x, y))
    assert (b - a).coords == tuple(t - s for s, t in zip(x, y))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=4),
    st.integers(-30, 30).filter(bool),
)
def test_rational_root_screen_matches_sympy(low, lead):
    ints = tuple(low) + (lead,)
    poly = sympy.Poly(list(reversed(ints)), X)
    roots = [
        -sympy.Rational(g.nth(0), g.nth(1)) for g, _ in poly.factor_list()[1] if g.degree() == 1
    ]
    if sympy.gcd(poly, poly.diff(X)).degree() > 0:
        with pytest.raises(NotSquarefree):
            NumberField(ints)
    elif roots:
        # the screen names the least |a|, then the least b, then a > 0
        r = min(roots, key=lambda r: (abs(r.p), r.q, r.p < 0))
        message = "zero is a root" if r == 0 else f"rational root {r.p}/{r.q}"
        with pytest.raises(ReducibleMinPoly, match=f"^{message}$"):
            NumberField(ints)
    else:
        NumberField(ints)
