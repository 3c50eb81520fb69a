"""Positive cones belong to (A, sigma), not to the Phi that presents it.

Phi and lambda Phi, for a nonzero lambda in F, give the same involution.
The cone (P, eps) over Phi is eps Phi H_P, with H_P the P-semidefinite
theta-hermitian matrices, and eps Phi h = eps s (lambda Phi)(h / (s lambda))
with s = sign_P(lambda), where s lambda > 0 at P: so it is the cone
(P, eps s) over lambda Phi.  For an invertible T, x -> T x T^(-1) carries
(A, sigma_Phi) onto (A, sigma_Phi') with Phi' = T Phi theta(T)^t, and
eps Phi'^(-1) T x T^(-1) = theta(T^(-1))^t (eps Phi^(-1) x) T^(-1) is a
congruence, so each cone goes onto the cone of the same ordering and
orientation.  Both are checked on sampled members of every cone and on
symmetric draws, over the nine standard algebras.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import AlgebraWithInvolution, mat_mul, mat_theta_t  # noqa: E402
from hermsig.cones import (  # noqa: E402
    PositiveConeHandle,
    cone_membership,
    list_positive_cones,
    random_invertible_d_matrix,
    sample_cone_member,
)
from hermsig.hermitian import sample_symmetric  # noqa: E402
from hermsig.orderings import sign_of  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402

ALGEBRAS = standard_algebras()
SEEDS = st.integers(0, 2**16)


def samples(A, rng):
    """The cones of A; a member of each cone, then as many symmetric draws."""
    cones = list_positive_cones(A)
    drawn = [sample_cone_member(cone, rng) for cone in cones]
    return cones, drawn + [sample_symmetric(A, rng) for _ in drawn]


def members(xs, cone):
    return [cone_membership(x, cone)[0] for x in xs]


def scalars(F):
    """-1, 3, -2, and 1 + sqrt 2 over Q(sqrt 2), which has both signs."""
    out = [F.from_rational(c) for c in (-1, 3, -2)]
    if F.degree == 2:
        out.append(F.one() + F.generator())
    return out


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
@settings(max_examples=4, deadline=None)
@given(index=st.integers(0, 3), seed=SEEDS)
def test_scaling_phi_by_lambda_reorients_each_cone_by_its_sign(key, index, seed):
    A = ALGEBRAS[key]
    options = scalars(A.field)
    lam = options[index % len(options)]
    B = AlgebraWithInvolution(
        A.desc, A.n, [[e.scale(lam) for e in row] for row in A.phi]
    )
    cones, xs = samples(A, random.Random(seed))
    moved = [B.element(x.entries) for x in xs]
    for cone in cones:
        eps = cone.orientation * sign_of(lam, cone.ordering)
        moved_cone = PositiveConeHandle(B, cone.ordering, eps)
        assert members(xs, cone) == members(moved, moved_cone)


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
@settings(max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_a_congruent_phi_carries_each_cone_by_conjugation(key, seed):
    A = ALGEBRAS[key]
    rng = random.Random(seed)
    T = random_invertible_d_matrix(A.desc, A.n, rng)
    T_inv = A.invert(A.element(T)).entries
    B = AlgebraWithInvolution(A.desc, A.n, mat_mul(mat_mul(T, A.phi), mat_theta_t(T)))
    cones, xs = samples(A, rng)
    moved = [B.element(mat_mul(mat_mul(T, x.entries), T_inv)) for x in xs]
    for cone in cones:
        moved_cone = PositiveConeHandle(B, cone.ordering, cone.orientation)
        assert members(xs, cone) == members(moved, moved_cone)
