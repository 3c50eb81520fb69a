"""The seeded draws and the sampled checks, pinned to how they were first built.

Each sampler is compared with a test-local reference built the first way:
every coordinate a `Fraction`, each component a `NumberField.element`, each
entry a `DElement(desc, comps)`, and cone members through a full product
with diag(u).  The values and the rng's state after the draw must be equal,
over the nine standard algebras, so the integer-block draws keep the randint
sequence.  The per-check counts of `cone_axioms_check` and `mideal_check`
at one seed, real decision and negative controls, are literals recorded
before the checks shared `tally`, with a digest of every `randint` result
drawn on the way: a draw the rng stream skips and later realigns over (its
rejection sampling can) still changes the digest.
"""

import hashlib
import random
import warnings
from fractions import Fraction

import pytest

from hermsig.algebras import (
    DElement,
    mat_mul,
    mat_theta_t,
    random_d_matrix,
    random_field_element,
    unit_congruence,
)
from hermsig.cones import (
    PositiveConeHandle,
    cone_axioms_check,
    cone_membership,
    list_positive_cones,
    random_field_nonneg,
    random_invertible_d_matrix,
    sample_axiom_set,
    sample_cone_member,
)
from hermsig.errors import NotInvertible
from hermsig.hermitian import diagonal_form, random_symmetric_unit, sample_symmetric
from hermsig.orderings import sign_of
from hermsig.verify import standard_algebras
from hermsig.wittideal import mideal_check

with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)
    ALGEBRAS = standard_algebras()

SEEDS = range(3)


# ---------------------------------------------------------------------------
# references, built component by component


def ref_field_element(field, rng, height=4):
    return field.element([Fraction(rng.randint(-height, height)) for _ in range(field.degree)])


def ref_d_matrix(desc, n, rng, height):
    return [
        [
            DElement(desc, tuple(ref_field_element(desc.field, rng, height) for _ in range(desc.dim)))
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def ref_field_nonneg(field, P, rng, strict=False):
    while True:
        x = ref_field_element(field, rng)
        s = sign_of(x, P)
        if s == 0:
            if strict:
                continue
            return x
        return x if s > 0 else -x


def ref_invertible_d_matrix(desc, n, rng):
    while True:
        M = ref_d_matrix(desc, n, rng, 2)
        try:
            unit_congruence(M)
        except NotInvertible:
            continue
        return M


def ref_symmetric(A, rng, height=3):
    x = A.element(ref_d_matrix(A.desc, A.n, rng, height))
    return x + A.involution(x)


def ref_cone_member(cone, rng, invertible=False):
    A = cone.algebra
    G = ref_invertible_d_matrix(A.desc, A.n, rng)
    us = [ref_field_nonneg(A.field, cone.ordering, rng, strict=invertible) for _ in range(A.n)]
    if not invertible and us and rng.random() < 0.3:
        us[rng.randrange(len(us))] = A.field.zero()
    diag = [
        [A.desc.from_field(u) if i == j else A.desc.zero() for j in range(A.n)]
        for i, u in enumerate(us)
    ]
    elt = mat_mul(mat_theta_t(G), mat_mul(diag, G))
    return A.element(A.rescale(elt)) * Fraction(cone.orientation)


def ref_axiom_set(cone, rng, size):
    half = size // 2
    members = [ref_cone_member(cone, rng) for _ in range(half)]
    return members + [ref_symmetric(cone.algebra, rng) for _ in range(size - half)]


def assert_same_draw(draw, reference):
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert draw(rng) == reference(ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_field_and_matrix_draws_match_the_reference(key):
    A = ALGEBRAS[key]
    desc, field = A.desc, A.field
    assert_same_draw(
        lambda rng: [random_field_element(field, rng) for _ in range(5)],
        lambda rng: [ref_field_element(field, rng) for _ in range(5)],
    )
    for n, height in ((1, 1), (2, 2), (3, 3)):
        assert_same_draw(
            lambda rng: random_d_matrix(desc, n, rng, height),
            lambda rng: ref_d_matrix(desc, n, rng, height),
        )
    assert_same_draw(
        lambda rng: random_invertible_d_matrix(desc, A.n, rng),
        lambda rng: ref_invertible_d_matrix(desc, A.n, rng),
    )
    assert_same_draw(
        lambda rng: [sample_symmetric(A, rng) for _ in range(2)] + [sample_symmetric(A, rng, 1)],
        lambda rng: [ref_symmetric(A, rng) for _ in range(2)] + [ref_symmetric(A, rng, 1)],
    )


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_cone_draws_match_the_reference(key):
    A = ALGEBRAS[key]
    for cone in list_positive_cones(A):
        for strict in (False, True):
            assert_same_draw(
                lambda rng: [random_field_nonneg(A.field, cone.ordering, rng, strict) for _ in range(4)],
                lambda rng: [ref_field_nonneg(A.field, cone.ordering, rng, strict) for _ in range(4)],
            )
        for invertible in (False, True):
            assert_same_draw(
                lambda rng: [sample_cone_member(cone, rng, invertible) for _ in range(3)],
                lambda rng: [ref_cone_member(cone, rng, invertible) for _ in range(3)],
            )
        assert_same_draw(
            lambda rng: sample_axiom_set(cone, rng, 5),
            lambda rng: ref_axiom_set(cone, rng, 5),
        )


# ---------------------------------------------------------------------------
# per-check (checked, violations) at seed 2024, in report order, then the
# number of randint results drawn and the sha256 of their repr (16 digits);
# recorded before the checks shared `tally`


class RecordingRandom(random.Random):
    """A seeded rng that keeps every `randint` result."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def randint(self, a, b):
        value = super().randint(a, b)
        self.drawn.append(value)
        return value


AXIOMS = ("P1", "P2", "P3", "P4", "P5")
MIDEAL = ("N_plus_N", "WF_times_N", "IP_times_W", "N_proper", "primality", "torsion_free")

# key: (cone axioms, axioms under the union of both orientations,
#       m-ideal suite, m-ideal suite under rank parity, randint results)
RECORDED = {
    "qq_id": (
        ((1, 0), (7, 0), (7, 0), (5, 0), (7, 0)),
        ((1, 0), (5, 0), (4, 0), (1, 0), (4, 4)),
        ((7, 0), (7, 0), (5, 0), (1, 0), (8, 0), (24, 0)),
        ((5, 0), (5, 0), (3, 0), (1, 0), (5, 0), (28, 4)),
        (85, "e6926339bf7a5d0a"),
    ),
    "qq_gauss": (
        ((1, 0), (6, 0), (4, 0), (5, 0), (4, 0)),
        ((1, 0), (5, 0), (5, 0), (1, 0), (5, 5)),
        ((6, 0), (6, 0), (5, 0), (1, 0), (6, 0), (17, 0)),
        ((3, 0), (3, 0), (3, 0), (1, 0), (5, 1), (18, 12)),
        (102, "04d3951218db2332"),
    ),
    "qq_ham": (
        ((1, 0), (7, 0), (7, 0), (5, 0), (7, 0)),
        ((1, 0), (5, 0), (3, 0), (1, 0), (3, 3)),
        ((6, 0), (6, 0), (5, 0), (1, 0), (7, 0), (17, 0)),
        ((4, 0), (4, 0), (3, 0), (1, 0), (4, 0), (23, 8)),
        (135, "25179c3bc0043edb"),
    ),
    "m2_qq": (
        ((1, 0), (6, 0), (6, 0), (5, 0), (6, 0)),
        ((1, 0), (5, 0), (5, 0), (1, 0), (5, 5)),
        ((8, 0), (8, 0), (5, 0), (1, 0), (8, 0), (31, 0)),
        ((6, 0), (6, 0), (3, 0), (1, 1), (6, 0), (31, 0)),
        (140, "ef182074d18dbfa7"),
    ),
    "m2_ham": (
        ((1, 0), (5, 0), (5, 0), (5, 0), (5, 0)),
        ((1, 0), (5, 0), (5, 0), (1, 0), (5, 5)),
        ((10, 0), (10, 0), (5, 0), (1, 0), (10, 0), (45, 0)),
        ((6, 0), (6, 0), (3, 0), (1, 1), (6, 0), (31, 0)),
        (349, "d52a5158ddfb99d8"),
    ),
    "m2_gauss_rt2": (
        ((1, 0), (5, 0), (5, 0), (5, 0), (5, 0)),
        ((1, 0), (5, 0), (5, 0), (1, 0), (5, 5)),
        ((10, 0), (10, 0), (5, 0), (1, 0), (10, 0), (45, 0)),
        ((6, 0), (6, 0), (3, 0), (1, 1), (6, 0), (31, 0)),
        (397, "9d80bb921cb2cc86"),
    ),
    "m2_qq_phi": (
        ((1, 0), (6, 0), (6, 0), (5, 0), (6, 0)),
        ((1, 0), (5, 0), (5, 0), (1, 0), (5, 5)),
        ((10, 0), (10, 0), (5, 0), (1, 0), (10, 0), (45, 0)),
        ((6, 0), (6, 0), (3, 0), (1, 1), (6, 0), (31, 0)),
        (140, "1bbaa0d947cfcbe1"),
    ),
    "rt2_nil_quad": (
        ((1, 0), (7, 0), (6, 0), (5, 0), (6, 0)),
        ((1, 0), (5, 0), (3, 0), (1, 0), (3, 3)),
        ((7, 0), (7, 0), (5, 0), (1, 0), (8, 0), (24, 0)),
        ((4, 0), (4, 0), (3, 0), (1, 0), (6, 1), (23, 8)),
        (189, "0546a8088023fd64"),
    ),
    "rt2_nil_quat": (
        ((1, 0), (7, 0), (6, 0), (5, 0), (6, 0)),
        ((1, 0), (5, 0), (4, 0), (1, 0), (4, 4)),
        ((6, 0), (6, 0), (5, 0), (1, 0), (7, 0), (17, 0)),
        ((3, 0), (3, 0), (3, 0), (1, 0), (4, 1), (18, 12)),
        (247, "9d938930dd553a7e"),
    ),
}


def counts(report, names):
    assert report["pass"] == all(report[name]["pass"] for name in names)
    for name in names:
        check = report[name]
        assert check["pass"] == (check["violations"] == 0)
    return tuple((report[name]["checked"], report[name]["violations"]) for name in names)


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_check_reports_match_the_recorded_counts(key):
    A = ALGEBRAS[key]
    rng = RecordingRandom(2024)
    cone = list_positive_cones(A)[0]
    samples = sample_axiom_set(cone, rng, 8)
    scalars = [random_field_element(A.field, rng) for _ in range(4)] + [A.field.zero()]
    axioms = counts(cone_axioms_check(cone, samples, scalars), AXIOMS)
    # negative control: the union of both orientations is improper
    minus = PositiveConeHandle(A, cone.ordering, -cone.orientation)
    union = lambda b: cone_membership(b, cone)[0] or cone_membership(b, minus)[0]
    small = [sample_cone_member(cone, rng) for _ in range(4)]
    axioms_union = counts(
        cone_axioms_check(cone, small, [A.field.from_rational(2)], membership=union), AXIOMS
    )
    cap = 1 if A.n > 1 else 2
    forms = [
        diagonal_form(A, [random_symmetric_unit(A, rng, 2) for _ in range(rng.randint(1, cap))])
        for _ in range(5)
    ]
    mideal = counts(mideal_check(cone, forms, rng), MIDEAL)
    # negative control: rank parity in place of the signature
    parity = lambda h: h.rank() % 2 == 0
    mideal_parity = counts(mideal_check(cone, forms[:3], rng, membership=parity), MIDEAL)
    drawn = (len(rng.drawn), hashlib.sha256(repr(rng.drawn).encode()).hexdigest()[:16])
    got = (axioms, axioms_union, mideal, mideal_parity, drawn)
    assert got == RECORDED[key]
