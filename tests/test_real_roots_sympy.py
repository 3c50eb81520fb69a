"""Real-root counts against sympy, on the whole line and in windows.

`SturmSequence.changes_at` reads each chain member at a rational endpoint
as an integer, so its count needs an oracle that shares no code with it:
sympy's `Poly.count_roots`.  Polynomials are squarefree of degree at most 8
with rational coefficients; several have rational roots whose denominators
run to a million, and windows have endpoints with denominators up to 10^12
placed near those roots.  Endpoints are never roots, so the half-open
window (lo, hi] that hermsig counts and sympy's closed [lo, hi] agree.
Isolation is checked the same way: no endpoint is a root, each interval
holds exactly one root, and the intervals hold them all.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig.exactnum import (  # noqa: E402
    Interval,
    Polynomial,
    count_real_roots,
    isolate_real_roots,
)

X = sympy.Symbol("x")

COEFF = st.fractions(min_value=-12, max_value=12, max_denominator=6)
ROOT = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
).filter(lambda r: abs(r) <= 5)
OFFSET = st.builds(Fraction, st.integers(-(10**3), 10**3), st.integers(10**6, 10**12))


def _sympy_poly(coeffs):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X
    )


def _rat(q):
    return sympy.Rational(q.numerator, q.denominator)


@st.composite
def squarefree_polys(draw):
    """Coefficients of a squarefree polynomial of degree 1..8, lowest first."""
    roots = draw(st.lists(ROOT, max_size=5, unique=True))
    rest = draw(st.integers(0 if roots else 1, 8 - len(roots)))
    coeffs = [draw(COEFF) for _ in range(rest)] + [draw(COEFF.filter(bool))]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    P = _sympy_poly(coeffs)
    assume(sympy.gcd(P, P.diff(X)).degree() == 0)
    return coeffs, roots


@settings(max_examples=150, deadline=None)
@given(squarefree_polys())
def test_whole_line_count_matches_sympy(case):
    coeffs, _ = case
    assert count_real_roots(Polynomial(coeffs)) == _sympy_poly(coeffs).count_roots()


@settings(max_examples=150, deadline=None)
@given(squarefree_polys(), st.data())
def test_window_count_matches_sympy(case, data):
    coeffs, roots = case
    # endpoints near a known root, or anywhere in the root bound
    anchors = roots + [Fraction(0)]
    lo = data.draw(st.sampled_from(anchors)) + data.draw(OFFSET)
    hi = data.draw(st.sampled_from(anchors)) + data.draw(OFFSET)
    lo, hi = min(lo, hi), max(lo, hi)
    P = _sympy_poly(coeffs)
    assume(P.eval(_rat(lo)) != 0 and P.eval(_rat(hi)) != 0)
    want = P.count_roots(_rat(lo), _rat(hi))
    assert count_real_roots(Polynomial(coeffs), Interval(lo, hi)) == want


@settings(max_examples=150, deadline=None)
@given(squarefree_polys())
def test_isolating_intervals_match_sympy(case):
    coeffs, _ = case
    P = _sympy_poly(coeffs)
    ivs = isolate_real_roots(Polynomial(coeffs))
    assert len(ivs) == P.count_roots()
    for iv in ivs:
        lo, hi = _rat(iv.lo), _rat(iv.hi)
        assert P.eval(lo) != 0 and P.eval(hi) != 0
        assert P.count_roots(lo, hi) == 1
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo


def test_close_roots_with_large_denominators():
    # roots 1/10^6 apart, windows that split them
    r1, r2, r3 = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6), Fraction(-7, 999_983)
    coeffs = [Fraction(1)]
    for r in (r1, r2, r3):
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    p = Polynomial(coeffs)
    P = _sympy_poly(coeffs)
    eps = Fraction(1, 10**9)
    for lo, hi in [(r1 - eps, r1 + eps), (r1 - eps, r2 + eps), (r3 - eps, r2 - eps)]:
        assert count_real_roots(p, Interval(lo, hi)) == P.count_roots(_rat(lo), _rat(hi))
    assert count_real_roots(p) == 3
