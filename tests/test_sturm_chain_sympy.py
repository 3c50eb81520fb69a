"""Integer Sturm and Tarski chains against sympy, on hypothesis-drawn polynomials.

hermsig builds every chain on primitive integer members; a division over Q
gives the same members up to positive factors, so sign-change counts agree.
sympy is the test-only oracle for the members over Q: `sympy.sturm`,
`sympy.rem` and `sympy.gcd`.  Every member is also checked to be canonical:
integers with content 1 and a nonzero last entry.  A second test pins the
integer members of one chain with rational input coefficients.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hermsig.exactnum import (  # noqa: E402
    Polynomial,
    _primitive_integer,
    _tarski_chain,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    sturm_sequence,
    tarski_query,
)
from hermsig.orderings import NumberField, list_orderings, sign_of  # noqa: E402

X = sympy.Symbol("x")

COEFF = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
LEAD = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 6))


@st.composite
def _poly(draw, max_degree=8):
    """Rational coefficients, lowest degree first, of exactly the drawn degree."""
    deg = draw(st.integers(0, max_degree))
    return [draw(COEFF) for _ in range(deg)] + [draw(LEAD)]


@st.composite
def _non_squarefree(draw):
    """a * b^2 with deg b >= 1, degree at most 8."""
    b = Polynomial([draw(COEFF), draw(LEAD)])
    if draw(st.booleans()):
        b = b * Polynomial([draw(COEFF), draw(LEAD)])
    a = Polynomial(draw(_poly(8 - 2 * b.degree)))
    return list((a * b * b).coeffs)


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)


def _low_first(f):
    """Coefficients of a sympy Poly, lowest degree first."""
    return [sympy.Rational(c) for c in reversed(f.all_coeffs())]


def _positive_multiple(member, expected, sgn=1):
    """member is c * sgn * expected for some rational c > 0."""
    expected = [sgn * c for c in _low_first(expected)]
    if len(member) != len(expected):
        return False
    c = sympy.Rational(member[-1]) / expected[-1]
    return c > 0 and all(sympy.Rational(m) == c * e for m, e in zip(member, expected))


def _squarefree(f):
    return sympy.gcd(f, f.diff(X)).degree() == 0


def _canonical(member):
    """Integer entries with content 1 and a nonzero last entry."""
    return (
        all(type(c) is int for c in member) and math.gcd(*member) == 1 and member[-1] != 0
    )


def _signed_remainders(f0, f1):
    """f0, f1 and each -rem of the two before, over Q, up to a zero remainder."""
    seq = [f0]
    while not f1.is_zero:
        seq.append(f1)
        f1 = -sympy.rem(seq[-2], seq[-1])
    return seq


@settings(max_examples=150, deadline=None)
@given(_poly())
def test_sturm_members_match_sympy(coeffs):
    f = _sympy_poly(coeffs)
    assume(_squarefree(f))
    members = sturm_sequence(Polynomial(coeffs)).members
    expected = sympy.sturm(f)
    assert len(members) == len(expected)
    # sympy divides p by its leading coefficient before building the chain
    sgn = 1 if coeffs[-1] > 0 else -1
    for member, e in zip(members, expected):
        assert _canonical(member)
        assert _positive_multiple(member, e, sgn)


@settings(max_examples=100, deadline=None)
@given(_non_squarefree())
def test_non_squarefree_chain_ends_at_gcd(coeffs):
    f = _sympy_poly(coeffs)
    members = sturm_sequence(Polynomial(coeffs)).members
    # the Euclidean chain over Q, member by member, by sympy's remainders
    expected = _signed_remainders(f, f.diff(X))
    assert len(members) == len(expected)
    for member, e in zip(members, expected):
        assert _canonical(member)
        assert _positive_multiple(member, e)
    # the last member is the gcd up to a nonzero factor, whose sign varies
    g = sympy.gcd(f, f.diff(X))
    last = members[-1]
    assert _positive_multiple(last, g) or _positive_multiple(last, g, -1)


@settings(max_examples=150, deadline=None)
@given(_poly(), _poly())
def test_tarski_seed_is_positive_multiple_of_remainder(m, g):
    # the whole chain, seed and every later member, against the signed
    # remainder sequence of (m, m'*g mod m) over Q; m need not be squarefree
    assume(len(m) > 1)
    chain = _tarski_chain(_primitive_integer(Polynomial(m)), _primitive_integer(Polynomial(g)))
    fm = _sympy_poly(m)
    expected = _signed_remainders(fm, sympy.rem(fm.diff(X) * _sympy_poly(g), fm))
    assert len(chain.members) == len(expected)
    for member, e in zip(chain.members, expected):
        assert _canonical(member)
        assert _positive_multiple(member, e)


def P(*coeffs):
    return Polynomial(coeffs)


def test_chain_paths_take_no_fraction_remainder():
    # Polynomial has no remainder over Fraction: the chain is integer only
    p = P(Fraction(3, 7), -2, Fraction(1, 2), 5, 0, -1, Fraction(2, 3), 0, 1)
    assert sturm_sequence(p).members == (
        (18, -84, 21, 210, 0, -42, 28, 0, 42),
        (-2, 1, 15, 0, -5, 4, 0, 8),
        (-72, 294, -63, -525, 0, 63, -28),
        (676, -2372, -819, 4977, 2170, -623),
        (433538, -1564713, -352475, 3025932, 1362221),
        (543902082, -2281062030, 735126713, 3679607360),
        (-9469717311194, 21074405929590, 20796620230779),
        (8723174524218236, -25853579404723949),
        (-1,),
    )
    assert sturm_sequence(p).count_all() == 2
    q = P(-1, 0, 1) * P(-1, 1)  # (x^2-1)(x-1): double root at 1
    assert sturm_sequence(q).members[-1] == (-1, 1)  # gcd(q, q') = x - 1
    m = P(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    assert tarski_query(m, P(Fraction(-5, 2), 1)) == -1  # signs -1, -1, +1
    conditions = [P(Fraction(-3, 2), 1), P(Fraction(7, 2), -1), P(1, 0, 1)]
    assert count_roots_with_signs(m, conditions) == 2
    assert count_roots_with_signs_formula(m, conditions) == 2
    # x^4 - 4x^2 - 2 has the two real roots +-sqrt(2 + sqrt 6), near +-2.11,
    # where x^2 - 9/2 is about -0.05
    F = NumberField([-2, 0, -4, 0, 1])
    x = F.generator()
    alpha = x * x - F.from_rational(Fraction(9, 2))
    signs = [[sign_of(a, P_) for P_ in list_orderings(F)] for a in (x, alpha, -x)]
    assert signs == [[-1, 1], [-1, -1], [1, -1]]
