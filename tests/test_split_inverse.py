"""Inverses over split quaternion algebras, against an independent rank.

`AlgebraWithInvolution.invert` reads x^(-1) off the congruence diagonalization of the
theta-hermitian theta(x)^t x, so it needs no pivot of nonzero norm, and
`unit_congruence` decides unit-ness from the same diagonal.  An algebra's
Phi^(-1) comes from the congruence diagonalization of Phi itself.  Over
split quaternions (a or b a rational square) some units have no such pivot
in a column.  The reference is sympy's rank of the Q-matrix of y -> x y on
the 4n^2 rational coordinates of M_n(D): x is a unit exactly when that map
is injective.
"""

import functools
import random
import warnings
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import (  # noqa: E402
    DElement,
    make_algebra,
    mat_identity,
    mat_mul,
    quaternion_desc,
)
from hermsig.errors import NotInvertible, PhiSingular  # noqa: E402
from hermsig.hermitian import sample_symmetric  # noqa: E402
from hermsig.orderings import NumberField  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402

QQ = NumberField([0, 1])


def delt(desc, *vals):
    return DElement(desc, tuple(QQ.from_rational(v) for v in vals))


@functools.cache
def split_algebra(a, b, n):
    """M_n((a, b)_Q); split at Q's one ordering, so it warns on construction."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return make_algebra(quaternion_desc(QQ, QQ.from_rational(a), QQ.from_rational(b)), n)


def _assert_phi_inverse(B):
    """Phi^(-1) Phi = I = Phi Phi^(-1), Phi^(-1) read back as unscale(I)."""
    identity = mat_identity(B.desc, B.n)
    phi_inv = B.unscale(identity)
    phi = [list(row) for row in B.phi]
    assert mat_mul(phi_inv, phi) == identity == mat_mul(phi, phi_inv)


def test_invertible_split_phi_is_accepted():
    # draw 87 is a unit with no pivot of nonzero norm in some column
    A = split_algebra(-1, 2, 3)
    rng = random.Random(1)
    phi = [sample_symmetric(A, rng, 1) for _ in range(88)][87]
    with pytest.warns(UserWarning, match="DNotDivisionAtAnyOrdering"):
        B = make_algebra(A.desc, 3, phi.entries)
    assert B.unscale(phi.entries) == mat_identity(A.desc, 3)
    _assert_phi_inverse(B)


def test_indefinite_rational_phi_inverse():
    B = standard_algebras()["m2_qq_phi"]
    _assert_phi_inverse(B)
    singular = [[B.desc.one(), B.desc.one()], [B.desc.one(), B.desc.one()]]
    with pytest.raises(PhiSingular):
        make_algebra(B.desc, 2, singular)


def test_involutory_matrix_over_split_quaternions():
    # e = (1 + i)/2 and e' = (1 - i)/2 are orthogonal idempotents of
    # (1, 1)_Q with e + e' = 1, so M = [[e, e'], [e', e]] squares to I
    A = split_algebra(1, 1, 2)
    half = Fraction(1, 2)
    e, e2 = delt(A.desc, half, half, 0, 0), delt(A.desc, half, -half, 0, 0)
    M = A.element([[e, e2], [e2, e]])
    assert A.multiply(M, M) == A.identity()
    assert A.invert(M) == M


def _coords(m):
    return [comp.as_fraction() for row in m for e in row for comp in e.comps]


def _left_rank(A, x):
    """sympy's rank of the Q-matrix of y -> x y on M_n(D)."""
    n = A.n
    columns = []
    for r in range(n):
        for c in range(n):
            for t, unit in enumerate(A.desc.basis()):
                y = [[A.desc.zero()] * n for _ in range(n)]
                y[r][c] = unit
                columns.append(_coords(mat_mul(x, y)))
    return sympy.Matrix(columns).rank()


@st.composite
def zero_divisors(draw, s, square_is_a):
    """Coordinates of a nonzero zero divisor of (s^2, b) or (a, s^2)."""
    p, q = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    sp, sq = draw(st.sampled_from((-1, 1))), draw(st.sampled_from((-1, 1)))
    # the norm is (x0^2 - s^2 x1^2) - b (x2^2 - s^2 x3^2), or the same with
    # the roles of x1 and x2 exchanged
    if square_is_a:
        return (s * p, sp * p, s * q, sq * q)
    return (s * p, s * q, sp * p, sq * q)


@st.composite
def split_cases(draw):
    s = draw(st.sampled_from((1, 2, 3)))
    other = draw(st.integers(-5, 5).filter(bool))
    square_is_a = draw(st.booleans())
    a, b = (s * s, other) if square_is_a else (other, s * s)
    n = draw(st.integers(1, 3))
    # zero divisors make columns without a pivot of nonzero norm
    quads = st.tuples(*[st.integers(-2, 2)] * 4) | zero_divisors(s, square_is_a)
    rows = [[draw(quads) for _ in range(n)] for _ in range(n)]
    # optionally make the last row a left multiple of the first, which
    # makes x a left zero divisor
    factor = draw(st.none() | quads) if n > 1 else None
    return a, b, rows, factor


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_inverse_matches_rank_over_split_quaternions(case):
    a, b, rows, factor = case
    n = len(rows)
    A = split_algebra(a, b, n)
    x = [[delt(A.desc, *e) for e in row] for row in rows]
    if factor is not None:
        c = delt(A.desc, *factor)
        x[-1] = [c * e for e in x[0]]
    x = A.element(x)
    unit = _left_rank(A, x.entries) == 4 * n * n
    if not unit:
        with pytest.raises(NotInvertible):
            A.invert(x)
        return
    inverse = A.invert(x)
    assert A.multiply(x, inverse) == A.identity() == A.multiply(inverse, x)


@settings(max_examples=40, deadline=None)
@given(split_cases(), st.booleans())
def test_phi_inverse_over_split_quaternions(case, gram):
    a, b, rows, factor = case
    n = len(rows)
    A = split_algebra(a, b, n)
    x = [[delt(A.desc, *e) for e in row] for row in rows]
    if factor is not None:
        c = delt(A.desc, *factor)
        x[-1] = [c * e for e in x[0]]
    xs = [[x[j][i].conj() for j in range(n)] for i in range(n)]
    # two theta-hermitian matrices built from x: x* x, singular with x, and
    # x + x*, singular or not as it falls
    if gram:
        phi = mat_mul(xs, x)
    else:
        phi = [[x[i][j] + xs[i][j] for j in range(n)] for i in range(n)]
    unit = _left_rank(A, phi) == 4 * n * n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if not unit:
            with pytest.raises(PhiSingular):
                make_algebra(A.desc, n, phi)
            return
        B = make_algebra(A.desc, n, phi)
    _assert_phi_inverse(B)
