"""Signs of field elements at orderings against sympy, on hypothesis draws.

sympy is a test-only oracle.  It isolates the real roots of the minimal
polynomial p with `Poly.intervals`, detects a zero of alpha at a root by
counting the roots of gcd(alpha, p) in the root's interval, and otherwise
refines the interval with `Poly.refine_root` until exact interval
evaluation of alpha resolves the sign.  No hermsig code is involved in the
expected value.

Fields have degree 1 to 4.  Squarefree reducible minimal polynomials (a
product of two coprime quadratics, which passes the rational-root screen)
and elements drawn as multiples of a factor of p make zero signs occur.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig.orderings import NumberField, list_orderings, sign_of  # noqa: E402

X = sympy.Symbol("x")

COEFF = st.integers(-8, 8)
COORD = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


def _sympy_poly(coeffs):
    """sympy Poly from coefficients listed lowest degree first."""
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X
    )


def _coeffs(poly, degree):
    """Coefficients of a sympy Poly, lowest degree first, padded to degree."""
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return cs + [Fraction(0)] * (degree - len(cs))


@st.composite
def _irreducible_min_poly(draw):
    degree = draw(st.integers(1, 4))
    p = _sympy_poly([Fraction(draw(COEFF)) for _ in range(degree)] + [Fraction(1)])
    assume(p.is_irreducible and p.count_roots() > 0)
    return p


@st.composite
def _reducible_min_poly(draw):
    """(x^2 + b1 x + c1)(x^2 + b2 x + c2), squarefree, no rational root."""
    quadratics = [
        _sympy_poly([Fraction(draw(COEFF)), Fraction(draw(COEFF)), Fraction(1)])
        for _ in range(2)
    ]
    assume(all(q.is_irreducible for q in quadratics))
    assume(sympy.gcd(*quadratics).degree() == 0)
    p = quadratics[0] * quadratics[1]
    assume(p.count_roots() > 0)
    return p


@st.composite
def _element(draw, p):
    """Coordinates of alpha: random, or a random multiple of a factor of p."""
    r = _sympy_poly([draw(COORD) for _ in range(p.degree())])
    if draw(st.booleans()):
        factors = [f for f, _ in p.factor_list()[1]]
        r = (r * draw(st.sampled_from(factors))).rem(p)
    return _coeffs(r, p.degree())


def _interval_eval(poly, lo, hi):
    """Bounds for the values of poly on [lo, hi], by interval Horner."""
    coeffs = poly.all_coeffs()
    vlo = vhi = coeffs[0]
    for c in coeffs[1:]:
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def _sympy_sign(p, alpha, lo, hi):
    """sgn alpha at the one root of p in [lo, hi]."""
    g = sympy.gcd(alpha, p)
    if g.degree() >= 1 and g.count_roots(lo, hi) == 1:
        return 0
    while True:
        if lo == hi:
            return int(sympy.sign(alpha.eval(lo)))
        vlo, vhi = _interval_eval(alpha, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        lo, hi = p.refine_root(lo, hi, eps=(hi - lo) / 2)


@st.composite
def _field_and_elements(draw):
    p = draw(st.one_of(_irreducible_min_poly(), _reducible_min_poly()))
    elements = draw(st.lists(_element(p), min_size=1, max_size=5))
    return p, elements


@settings(max_examples=120, deadline=None)
@given(case=_field_and_elements())
def test_sign_of_matches_sympy(case):
    p, elements = case
    F = NumberField(_coeffs(p, p.degree() + 1))
    orderings = list_orderings(F)
    roots = [iv for iv, mult in p.intervals()]
    assert len(orderings) == len(roots)
    for coords in elements:
        alpha = _sympy_poly(coords)
        expected = [_sympy_sign(p, alpha, lo, hi) for lo, hi in roots]
        assert [sign_of(F.element(coords), P) for P in orderings] == expected
