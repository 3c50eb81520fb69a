"""The interval test in `orderings.sign_of` against the localized Tarski query.

`sign_of` decides by integer interval Horner over a narrowed isolating
interval kept on the field, and falls back to the Tarski query after a
capped number of bisections.  The reference here is the raw query: the
variation of `exactnum._tarski_chain(p, alpha)` across the ordering's
isolating interval, which is sgn alpha(root), zero included.
"""

import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig import orderings  # noqa: E402
from hermsig.exactnum import _tarski_chain  # noqa: E402
from hermsig.orderings import NumberField, list_orderings, sign_of  # noqa: E402


def tarski_sign(alpha, P):
    iv = P.isolating
    return _tarski_chain(P.owner._ints, alpha.nums).count_in(iv.lo, iv.hi)


@pytest.fixture
def tarski_calls(monkeypatch):
    """Counts the Tarski chains `sign_of` builds."""
    calls = []
    real = orderings._tarski_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orderings, "_tarski_chain", counting)
    return calls


# x^4 - c for c = 4, 9, 25 is a product of two quadratics, with no rational
# root, so zero divisors get sign 0; x^3 - 3x + 1 and x^3 - 4x + 1 have three
# real roots each
MIN_POLYS = st.one_of(
    st.integers(2, 40).filter(lambda c: math.isqrt(c) ** 2 != c).map(lambda c: [-c, 0, 1]),
    st.sampled_from([2, 3, 4, 5, 9, 12, 25, 30]).map(lambda c: [-c, 0, 0, 0, 1]),
    st.sampled_from([[1, -3, 0, 1], [1, -4, 0, 1]]),
)
COORD = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))


@settings(max_examples=80, deadline=None)
@given(MIN_POLYS, st.lists(st.lists(COORD, min_size=4, max_size=4), min_size=1, max_size=6))
def test_sign_of_matches_the_tarski_count(min_poly, coords):
    F = NumberField(min_poly)
    elements = [F.element(c[: F.degree]) for c in coords]
    elements = [a for a in elements if not a.is_rational]
    assume(elements)
    # sequential calls share the field's narrowed intervals
    for alpha in elements:
        for P in list_orderings(F):
            assert sign_of(alpha, P) == tarski_sign(alpha, P)


def test_dyadic_neighbours_of_the_root_force_bisections(tarski_calls):
    F = NumberField([-2, 0, 1])
    neg, pos = list_orderings(F)
    x = F.generator()
    # floor(sqrt(2) * 2^k) / 2^k lies within 2^-k below sqrt(2)
    for k in (10, 30, 50):
        below = Fraction(math.isqrt(2 * 4**k), 2**k)
        above = below + Fraction(1, 2**k)
        assert sign_of(x - F.from_rational(below), pos) == 1
        assert sign_of(x - F.from_rational(above), pos) == -1
        assert sign_of(x - F.from_rational(below), neg) == -1
    assert F._narrowed[pos.root_index][4] >= 45
    assert tarski_calls == []
    # beyond the cap the interval cannot separate the root from p/q: the
    # Tarski query decides, and still exactly
    k = 2 * orderings._NARROW_CAP
    below = Fraction(math.isqrt(2 * 4**k), 2**k)
    assert sign_of(x - F.from_rational(below), pos) == 1
    assert sign_of(x - F.from_rational(below + Fraction(1, 2**k)), pos) == -1
    assert F._narrowed[pos.root_index][4] == orderings._NARROW_CAP
    assert len(tarski_calls) == 2


def test_zero_divisor_of_a_reducible_min_poly_falls_back(tarski_calls):
    # x^4 - 4 = (x^2 - 2)(x^2 + 2) passes the rational-root screen; its real
    # roots are -sqrt(2) and sqrt(2), where x^2 - 2 vanishes
    F = NumberField([-4, 0, 0, 0, 1])
    zero_divisor = F.element([-2, 0, 1, 0])
    for P in list_orderings(F):
        assert sign_of(zero_divisor, P) == 0
    assert len(tarski_calls) == 2
    # the cap is spent once per ordering; later calls fall back at once
    assert [state[4] for state in F._narrowed] == [orderings._NARROW_CAP] * 2
    for P in list_orderings(F):
        assert sign_of(zero_divisor, P) == 0
        assert sign_of(F.element([0, 1, 0, 0]), P) == 2 * P.root_index - 1


def test_isolating_intervals_stay_fixed():
    F = NumberField([-7, 0, 0, 0, 1])
    handles = list_orderings(F)
    before = [(P.isolating, repr(P)) for P in handles]
    rng = random.Random(5)
    for _ in range(500):
        alpha = F.element([rng.randint(-9, 9) for _ in range(4)])
        for P in handles:
            want = tarski_sign(alpha, P) if not alpha.is_rational else None
            got = sign_of(alpha, P)
            assert want is None or got == want
    assert list_orderings(F) is handles
    assert [(P.isolating, repr(P)) for P in handles] == before
    assert all(state[4] > 0 for state in F._narrowed)
