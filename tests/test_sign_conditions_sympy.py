"""Sign-condition root counts against sympy, on hypothesis-drawn instances.

sympy is a test-only oracle: it isolates the real roots of m with
`Poly.intervals` and decides the sign of each condition at each root by
exact bisection with its own root counts.  No hermsig code is involved in
the expected value.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig.exactnum import (  # noqa: E402
    Polynomial,
    count_roots_with_signs,
    count_roots_with_signs_formula,
)

X = sympy.Symbol("x")

COEFF = st.integers(-12, 12)
# rational roots that the bisection of hermsig's isolation hits often
# (0 is its first midpoint), so that the window-carving branch runs
ROOT = st.sampled_from(
    [Fraction(k) for k in range(-4, 5)]
    + [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(5, 4)]
)


def _sympy_poly(coeffs):
    """sympy Poly from coefficients listed lowest degree first."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)


def _times_linear(coeffs, root):
    """Coefficients of p(x) * (x - root), lowest degree first."""
    shifted = [Fraction(0)] + list(coeffs)
    return [s - root * c for s, c in zip(shifted, list(coeffs) + [Fraction(0)])]


def _draw_poly(draw, deg):
    """Integer coefficients of a polynomial of exactly the given degree."""
    coeffs = [Fraction(draw(COEFF)) for _ in range(deg)]
    return coeffs + [Fraction(draw(COEFF.filter(bool)))]


@st.composite
def _random_m(draw):
    return _draw_poly(draw, draw(st.integers(1, 8)))


@st.composite
def _m_with_rational_roots(draw):
    roots = draw(st.lists(ROOT, min_size=1, max_size=6, unique=True))
    coeffs = _draw_poly(draw, draw(st.integers(0, 8 - len(roots))))
    for root in roots:
        coeffs = _times_linear(coeffs, root)
    return coeffs


@st.composite
def _condition(draw):
    return _draw_poly(draw, draw(st.integers(0, 3)))


def _open_count(m, lo, hi):
    """Roots of m in the open interval (lo, hi)."""
    inside = m.count_roots(lo, hi)
    return inside - (m.eval(lo) == 0) - (m.eval(hi) == 0)


def _sign_at_root(m, g, lo, hi):
    """sgn g at the one root of m in [lo, hi] (open unless lo == hi)."""
    while lo != hi and g.count_roots(lo, hi) > 0:
        mid = (lo + hi) / 2
        if _open_count(m, lo, mid) == 1:
            hi = mid
        elif _open_count(m, mid, hi) == 1:
            lo = mid
        else:
            lo = hi = mid
    return sympy.sign(g.eval(lo))


def _sympy_count(m_coeffs, g_coeffs):
    m = _sympy_poly(m_coeffs)
    gs = [_sympy_poly(g) for g in g_coeffs]
    count = 0
    for (lo, hi), mult in m.intervals():
        assert mult == 1
        if lo != hi:
            assert _open_count(m, lo, hi) == 1
        if all(_sign_at_root(m, g, lo, hi) > 0 for g in gs):
            count += 1
    return count


@settings(max_examples=150, deadline=None)
@given(
    m_coeffs=st.one_of(_random_m(), _m_with_rational_roots()),
    g_coeffs=st.lists(_condition(), min_size=1, max_size=4),
)
def test_sign_condition_counts_match_sympy(m_coeffs, g_coeffs):
    m = _sympy_poly(m_coeffs)
    assume(sympy.gcd(m, m.diff(X)).degree() == 0)
    assume(all(sympy.gcd(m, _sympy_poly(g)).degree() == 0 for g in g_coeffs))
    expected = _sympy_count(m_coeffs, g_coeffs)
    hm = Polynomial(m_coeffs)
    hgs = [Polynomial(g) for g in g_coeffs]
    assert count_roots_with_signs(hm, hgs) == expected
    assert count_roots_with_signs_formula(hm, hgs) == expected
