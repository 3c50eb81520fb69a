"""Root work kept on a `Polynomial`, against sympy, on hypothesis-drawn instances.

A `Polynomial` keeps its isolating intervals and one Tarski chain per
condition once they are built, and `is_coprime`, `isolate_real_roots`,
`tarski_query` and both sign-condition counts read what it keeps.  These
tests check that no call order changes an answer: every count equals the
count sympy gives on its own (`Poly.intervals`, refined with
`Poly.refine_root` until the condition has no root left in the interval),
whether the `Polynomial` is fresh or already holds its intervals and chains.
The formula reads the singleton chains `is_coprime` kept, degenerate ones
included, and must give the fresh answer or raise the fresh error.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig.errors import HermsigError, SignConditionDegenerate  # noqa: E402
from hermsig.exactnum import (  # noqa: E402
    Polynomial,
    _primitive_integer,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    is_coprime,
    isolate_real_roots,
    tarski_query,
)

X = sympy.Symbol("x")
COEFF = st.integers(-9, 9)


def _sympy_poly(coeffs):
    return sympy.Poly([int(c) for c in reversed(coeffs)] or [0], X)


def _poly(min_degree, max_degree):
    """Integer coefficients, lowest first, of exactly the drawn degree."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(st.lists(COEFF, min_size=d, max_size=d), COEFF.filter(bool)).map(
            lambda t: t[0] + [t[1]]
        )
    )


def _squarefree(coeffs):
    f = _sympy_poly(coeffs)
    return sympy.gcd(f, f.diff(X)).degree() == 0


def _times(a, b):
    return list((Polynomial(a) * Polynomial(b)).coeffs)


def _sympy_count(m_coeffs, g_coeffs):
    """Roots of m where every condition is positive, by sympy alone."""
    m = _sympy_poly(m_coeffs)
    gs = [_sympy_poly(g) for g in g_coeffs]
    count = 0
    for (lo, hi), mult in m.intervals():
        assert mult == 1
        signs = []
        for g in gs:
            a, b = lo, hi
            while a != b and g.count_roots(a, b) > 0:
                a, b = m.refine_root(a, b, steps=1)
            signs.append(sympy.sign(g.eval(a)))
        count += all(s > 0 for s in signs)
    return count


def _coprime(m_coeffs, g_coeffs):
    return sympy.gcd(_sympy_poly(m_coeffs), _sympy_poly(g_coeffs)).degree() == 0


@settings(max_examples=40, deadline=None)
@given(_poly(1, 8), st.lists(_poly(0, 3), min_size=1, max_size=3))
def test_counts_match_sympy_in_every_call_order(m_coeffs, g_coeffs):
    assume(_squarefree(m_coeffs))
    assume(all(_coprime(m_coeffs, g) for g in g_coeffs))
    expected = _sympy_count(m_coeffs, g_coeffs)
    reference = isolate_real_roots(Polynomial(m_coeffs))
    assert len(reference) == _sympy_poly(m_coeffs).count_roots()
    gs = [Polynomial(g) for g in g_coeffs]
    calls = {
        "isolate": (isolate_real_roots, reference),
        "coprime": (lambda m: [is_coprime(m, g) for g in gs], [True] * len(gs)),
        "count": (lambda m: count_roots_with_signs(m, gs), expected),
        "formula": (lambda m: count_roots_with_signs_formula(m, gs), expected),
    }
    queries = [tarski_query(Polynomial(m_coeffs), g) for g in gs]
    for order in itertools.permutations(calls):
        m = Polynomial(m_coeffs)
        for name in order:
            call, want = calls[name]
            assert call(m) == want, (order, name)
        # every call has run: m holds its intervals and every chain, and a
        # second round reads them
        assert m._roots is not None
        assert set(m._tarski) == {_primitive_integer(g) for g in gs}
        for name in order:
            call, want = calls[name]
            assert call(m) == want, (order, name, "kept")
        assert [tarski_query(m, g) for g in gs] == queries


@st.composite
def _shared_root(draw):
    """Squarefree m = a * h and a condition h * k sharing the roots of h."""
    h = draw(_poly(1, 2))
    a = draw(_poly(0, 6 - len(h)))
    k = draw(_poly(0, 1))
    m = _times(a, h)
    return m, _times(h, k)


@settings(max_examples=60, deadline=None)
@given(_shared_root(), st.lists(_poly(0, 3), max_size=2))
def test_shared_root_rejected_after_coprimality_reading(instance, others):
    m_coeffs, g_coeffs = instance
    assume(_squarefree(m_coeffs))
    m = Polynomial(m_coeffs)
    g = Polynomial(g_coeffs)
    assert not is_coprime(m, g)
    gs = [Polynomial(o) for o in others] + [g]
    for _ in range(2):  # the degenerate chain is kept on m and read again
        for count in (count_roots_with_signs, count_roots_with_signs_formula):
            with pytest.raises(SignConditionDegenerate):
                count(m, gs)
    assert not is_coprime(m, g)


@st.composite
def _pair(draw):
    """m and g at random, or sharing a factor h when the draw says so."""
    if draw(st.booleans()):
        return draw(_poly(1, 8)), draw(st.lists(COEFF, max_size=4))
    return draw(_shared_root())


@settings(max_examples=150, deadline=None)
@given(_pair())
def test_coprimality_reading_matches_sympy_gcd(instance):
    m_coeffs, g_coeffs = instance
    assume(_squarefree(m_coeffs))
    m = Polynomial(m_coeffs)
    g = Polynomial(g_coeffs)
    want = _coprime(m_coeffs, g_coeffs)
    assert is_coprime(m, g) == want
    assert is_coprime(m, g) == want  # read again off the kept chain
    assert is_coprime(Polynomial(m_coeffs), g * Fraction(3, 7)) == want


@settings(max_examples=60, deadline=None)
@given(_poly(1, 8))
def test_isolation_list_is_fresh_per_call(m_coeffs):
    assume(_squarefree(m_coeffs))
    m = Polynomial(m_coeffs)
    first = isolate_real_roots(m)
    want = list(first)
    first.reverse()
    first.append(None)
    second = isolate_real_roots(m)
    assert second == want == isolate_real_roots(Polynomial(m_coeffs))
    second.clear()
    assert isolate_real_roots(m) == want


@st.composite
def _query(draw):
    """m, squarefree or not, and one to three conditions, some degenerate.

    A drawn factor h enters m up to twice (twice makes m non-squarefree);
    a condition is random, a multiple of h, or zero.
    """
    h = draw(_poly(1, 2))
    m = draw(_poly(0, 4))
    for _ in range(draw(st.integers(0, 2))):
        m = _times(m, h)
    condition = st.one_of(
        _poly(0, 3), _poly(0, 1).map(lambda k: _times(h, k)), st.just([0])
    )
    return m, draw(st.lists(condition, min_size=1, max_size=3))


def _outcome(call):
    """The call's value, or the type of the hermsig error it raised."""
    try:
        return call()
    except HermsigError as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(_query())
def test_formula_after_coprimality_readings_matches_fresh(instance):
    m_coeffs, g_coeffs = instance
    gs = [Polynomial(g) for g in g_coeffs]
    fresh = _outcome(lambda: count_roots_with_signs_formula(Polynomial(m_coeffs), gs))
    m = Polynomial(m_coeffs)
    for g in gs:
        _outcome(lambda: is_coprime(m, g))  # keeps g's chain on squarefree m
    assert _outcome(lambda: count_roots_with_signs_formula(m, gs)) == fresh
