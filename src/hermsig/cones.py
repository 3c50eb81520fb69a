"""Positive cones on (A, sigma) and certified membership.

At each non-nil ordering P the two positive cones are the images of the
P-semidefinite theta-hermitian matrices under x -> eps Phi x, one per
orientation eps.  That map is the algebra's `rescale` (times eps), and
membership inverts it with `unscale`: b is in the cone exactly when
eps Phi^(-1) b diagonalizes by congruence to entries that are >= 0 at P.
b is symmetric exactly when Phi^(-1) b is theta-hermitian, so membership
tests symmetry only through the elimination's one-triangle hermitian test,
and the elimination inverts a pivot only when a later column uses it.
The transform and the diagonal form the certificate, and
`ConeWitness.check` verifies one by multiplication, with no inverse.

The sampled axiom checks draw from here: `sample_cone_member` (transforms
and scalars at the heights of the `algebras` table), `sample_axiom_set` (the
half-members, half-symmetric set both the `cones` command and the
`cone_axioms` criterion check), and `tally`, the one report of a sampled
check, which the m-ideal suite shares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    NilOrdering,
    NotHermitian,
    NotInvertible,
    NotSymmetric,
    OrderingDoesNotRestrict,
)
from .algebras import (
    TRANSFORM_HEIGHT,
    AlgebraElement,
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    extend_scalars,
    mat_mul,
    mat_theta_t,
    nil_orderings,
    push_algebra_element,
    random_d_matrix,
    random_field_element,
    unit_congruence,
)
from .hermitian import _block_congruence, diagonalize_hermitian, sample_symmetric
from .orderings import FieldElement, FieldEmbedding, OrderingHandle, list_orderings, sign_of


@dataclass(frozen=True)
class PositiveConeHandle:
    algebra: AlgebraWithInvolution
    ordering: OrderingHandle
    orientation: int

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.ordering in nil_orderings(self.algebra):
            raise NilOrdering()

    def __repr__(self) -> str:
        s = "+" if self.orientation == 1 else "-"
        return f"PositiveConeHandle(P#{self.ordering.root_index}, {s})"


def _diag(desc: DivisionAlgebraDesc, us):
    """diag(u) over D for field elements u."""
    return [
        [desc.from_field(u) if i == j else desc.zero() for j in range(len(us))]
        for i, u in enumerate(us)
    ]


def _oriented(b: AlgebraElement, cone: PositiveConeHandle) -> AlgebraElement:
    """eps * b, by negation when eps = -1."""
    return b if cone.orientation == 1 else -b


@dataclass(frozen=True)
class ConeWitness:
    """Certificate: theta(G)^t (eps Phi^-1 b) G = diag with entries >= 0 at P."""

    transform: tuple
    diagonal: tuple[FieldElement, ...]

    def check(self, b: AlgebraElement, cone: PositiveConeHandle) -> bool:
        """Whether this certifies b, by multiplication and with no inverse.

        theta(G)^t (eps Phi^(-1) b) G = diag(d), each d_i >= 0 at P, G a unit;
        with no d_i zero the congruence itself gives G a left inverse.
        """
        A = cone.algebra
        G, d = self.transform, self.diagonal
        unscaled = A.unscale(_oriented(b, cone).entries)
        congruent = mat_mul(mat_theta_t(G), mat_mul(unscaled, G)) == _diag(A.desc, d)
        if not congruent or any(sign_of(u, cone.ordering) < 0 for u in d):
            return False
        try:
            if any(u.is_zero for u in d):
                unit_congruence(G)
        except NotInvertible:
            return False
        return True


def psd_membership(
    desc: DivisionAlgebraDesc, B, P: OrderingHandle
) -> tuple[bool, ConeWitness | None]:
    """Positive semidefiniteness of a hermitian matrix over (D, theta) at P."""
    if P.owner != desc.field:
        raise FieldMismatch()
    return _certified(*diagonalize_hermitian(desc, B), P)


def _certified(G, d, P: OrderingHandle) -> tuple[bool, ConeWitness | None]:
    """(True, the certificate (G, d)) when every d_i >= 0 at P, else (False, None)."""
    if all(sign_of(x, P) >= 0 for x in d):
        return True, ConeWitness(G, d)
    return False, None


def cone_membership(
    b: AlgebraElement, cone: PositiveConeHandle
) -> tuple[bool, ConeWitness | None]:
    """Membership of a symmetric element, with a witness on success.

    b is symmetric exactly when Phi^(-1) b is theta-hermitian, since
    sigma(b) = Phi theta(Phi^(-1) b)^t, so the elimination's own hermitian
    test decides symmetry: its NotHermitian is raised as NotSymmetric.  The
    congruence of Phi^(-1) b is the one the form <b> memoizes.  Eliminating
    -Phi^(-1) b takes the same pivots and the same multipliers, so the other
    orientation keeps G and negates d.
    """
    A = cone.algebra
    if b.owner is not A or cone.ordering.owner != A.field:
        raise FieldMismatch()
    try:
        G, d = _block_congruence(A, ((b,),))
    except NotHermitian:
        raise NotSymmetric() from None
    if cone.orientation == -1:
        d = tuple(-x for x in d)
    return _certified(G, d, cone.ordering)


def list_positive_cones(A: AlgebraWithInvolution) -> tuple[PositiveConeHandle, ...]:
    """Both orientations over every non-nil ordering, in root order."""
    nil = set(nil_orderings(A))
    out = []
    for P in list_orderings(A.field):
        if P in nil:
            continue
        out.append(PositiveConeHandle(A, P, 1))
        out.append(PositiveConeHandle(A, P, -1))
    return tuple(out)


def project_pi(cone: PositiveConeHandle) -> OrderingHandle:
    return cone.ordering


def harrison_sigma(A: AlgebraWithInvolution, elements) -> tuple[PositiveConeHandle, ...]:
    """Cones containing all the given symmetric elements."""
    elements = list(elements)
    for a in elements:
        if not A.is_symmetric(a):
            raise NotSymmetric()
    return tuple(
        cone
        for cone in list_positive_cones(A)
        if all(cone_membership(a, cone)[0] for a in elements)
    )


# ---------------------------------------------------------------------------
# deterministic sampling of cone members


def random_field_nonneg(field, P: OrderingHandle, rng, strict: bool = False):
    while True:
        x = random_field_element(field, rng)
        s = sign_of(x, P)
        if s == 0:
            if strict:
                continue
            return x
        return x if s > 0 else -x


def random_invertible_d_matrix(desc: DivisionAlgebraDesc, n: int, rng):
    while True:
        M = random_d_matrix(desc, n, rng, TRANSFORM_HEIGHT)
        try:
            unit_congruence(M)
        except NotInvertible:
            continue
        return M


def sample_cone_member(
    cone: PositiveConeHandle, rng, invertible: bool = False
) -> AlgebraElement:
    """eps * Phi * theta(G)^t diag(u) G for random G and P-nonnegative u.

    diag(u) G is G with row i scaled by u_i.
    """
    A = cone.algebra
    G = random_invertible_d_matrix(A.desc, A.n, rng)
    us = [
        random_field_nonneg(A.field, cone.ordering, rng, strict=invertible)
        for _ in range(A.n)
    ]
    if not invertible and us and rng.random() < 0.3:
        us[rng.randrange(len(us))] = A.field.zero()
    scaled = [[g.scale(u) for g in row] for row, u in zip(G, us)]
    elt = mat_mul(mat_theta_t(G), scaled)
    return _oriented(A.element(A.rescale(elt)), cone)


def sample_axiom_set(cone: PositiveConeHandle, rng, size: int) -> list[AlgebraElement]:
    """The axiom checks' sample set: size // 2 cone members, then symmetric draws."""
    half = size // 2
    members = [sample_cone_member(cone, rng) for _ in range(half)]
    return members + [sample_symmetric(cone.algebra, rng) for _ in range(size - half)]


# ---------------------------------------------------------------------------
# sampled axiom checking


def tally(outcomes) -> dict:
    """The report of one sampled check: each outcome is True when it held."""
    checked = violations = 0
    for held in outcomes:
        checked += 1
        violations += not held
    return {"pass": violations == 0, "checked": checked, "violations": violations}


def cone_axioms_check(
    cone: PositiveConeHandle,
    samples,
    scalars,
    membership=None,
) -> dict:
    """Check the prepositive-cone axioms on the sampled sets.

    ``samples`` are symmetric elements; members among them (plus the
    oriented Phi) drive the closure checks.  ``membership`` may replace the
    real decision procedure, which the negative controls use.  Each axiom
    is one `tally`, evaluated in the order P1 to P5.
    """
    A = cone.algebra
    P = cone.ordering
    if membership is None:
        membership = lambda b: cone_membership(b, cone)[0]
    samples = list(samples)
    for s in samples:
        if not A.is_symmetric(s):
            raise NotSymmetric()
    phi_oriented = _oriented(A.phi_element(), cone)
    members = [s for s in samples if membership(s)]
    members.append(phi_oriented)
    nonzero_members = [m for m in members if not m.is_zero]
    transforms = samples[:6] + [
        a * b for a, b in zip(samples[:4], samples[1:5])
    ]
    probe = nonzero_members[:20]
    report = {
        "P1": tally([membership(A.zero()) and bool(members)]),
        # each member with a cyclic partner: linear in the sample size
        "P2": tally(
            membership(m + members[(i * 7 + 1) % len(members)])
            for i, m in enumerate(members)
        ),
        "P3": tally(
            membership(A.involution(a) * m * a)
            for m, a in zip(nonzero_members, itertools.cycle(transforms))
        ),
        "P4": tally(
            all(membership(m * u) for m in probe) == (sign_of(u, P) >= 0)
            for u in scalars
        ),
        "P5": tally(not membership(-m) for m in nonzero_members),
    }
    report["pass"] = all(check["pass"] for check in report.values())
    return report


# ---------------------------------------------------------------------------
# extension along an ordered field embedding


def extend_cone(
    emb: FieldEmbedding,
    cone: PositiveConeHandle,
    Q: OrderingHandle,
    samples: int = 20,
    rng=None,
) -> tuple[PositiveConeHandle, dict]:
    """The cone over Q on the scalar extension, with a containment report."""
    A = cone.algebra
    if emb.src != A.field or Q.owner != emb.dst:
        raise FieldMismatch()
    if emb.restrict(Q) != cone.ordering:
        raise OrderingDoesNotRestrict()
    AL = extend_scalars(A, emb)
    extended = PositiveConeHandle(AL, Q, cone.orientation)
    contained = 0
    checked = 0
    if rng is not None:
        for _ in range(samples):
            b = sample_cone_member(cone, rng)
            checked += 1
            if cone_membership(push_algebra_element(b, emb, AL), extended)[0]:
                contained += 1
    report = {
        "samples": checked,
        "contained": contained,
        "pass": contained == checked,
    }
    return extended, report
