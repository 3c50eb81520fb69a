import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hermsig.errors import (
    NilOrdering,
    NotHermitian,
    NotInvertible,
    NotSymmetric,
    OrderingDoesNotRestrict,
)
from hermsig.algebras import (
    BASE,
    DElement,
    base_desc,
    make_algebra,
    quaternion_desc,
    random_d_matrix,
)
from hermsig import jsonio, verify
from hermsig.cones import (
    ConeWitness,
    PositiveConeHandle,
    cone_axioms_check,
    cone_membership,
    extend_cone,
    harrison_sigma,
    list_positive_cones,
    project_pi,
    psd_membership,
    sample_axiom_set,
    sample_cone_member,
)
from hermsig import hermitian
from hermsig.hermitian import (
    congruence_transform,
    diagonal_form,
    local_degree_nP,
    sample_symmetric,
    signature,
)
from hermsig.orderings import NumberField, embed_field, list_orderings
from hermsig.verify import run_suite, standard_algebras

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import exact  # noqa: E402

QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])
HAM = quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1))
BQQ = base_desc(QQ)


def delt(desc, *vals):
    return DElement(desc, tuple(desc.field.from_rational(v) for v in vals))


def m2(vals):
    return [[delt(BQQ, vals[0][0]), delt(BQQ, vals[0][1])],
            [delt(BQQ, vals[1][0]), delt(BQQ, vals[1][1])]]


def test_psd_membership_examples():
    P = list_orderings(QQ)[0]
    ok, w = psd_membership(BQQ, m2([[1, 0], [0, 0]]), P)
    assert ok and [x.as_fraction() for x in w.diagonal] == [1, 0]
    ok, w = psd_membership(BQQ, m2([[0, 1], [1, 0]]), P)
    assert not ok and w is None
    # quaternion: [[1, i], [-i, 1]] is PSD (diagonalizes to (1, 0))
    i = HAM.basis()[1]
    B = [[HAM.one(), i], [-i, HAM.one()]]
    ok, w = psd_membership(HAM, B, P)
    assert ok
    assert sorted(x.as_fraction() for x in w.diagonal) == [0, 1]
    # non-square and non-hermitian inputs are both NotHermitian
    with pytest.raises(NotHermitian):
        psd_membership(BQQ, [[BQQ.one()], [BQQ.one()]], P)
    with pytest.raises(NotHermitian):
        psd_membership(HAM, [[i]], P)


def test_cone_membership_and_witness_roundtrip():
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    plus = PositiveConeHandle(M2, P, 1)
    ok, w = cone_membership(M2.phi_element(), plus)
    assert ok
    assert w.check(M2.phi_element(), plus)
    indef = M2.element(m2([[1, 0], [0, -1]]))
    assert not cone_membership(indef, plus)[0]
    minus = PositiveConeHandle(M2, P, -1)
    assert not cone_membership(indef, minus)[0]


def test_cone_membership_phi_scaled():
    phi = m2([[1, 0], [0, -1]])
    M2 = make_algebra(BQQ, 2, phi)
    P = list_orderings(QQ)[0]
    plus = PositiveConeHandle(M2, P, 1)
    b = M2.element(m2([[1, 0], [0, -1]]))  # equals Phi * I
    ok, w = cone_membership(b, plus)
    assert ok and w.check(b, plus)


def test_cone_membership_rejects_non_symmetric_elements():
    # b is symmetric exactly when Phi^(-1) b is theta-hermitian, so the
    # elimination's hermitian test is the symmetry test, Phi != I included
    algebras = standard_algebras()
    rng = random.Random(5)
    rejected = 0
    for key in ("qq_ham", "m2_ham", "m2_qq_phi"):
        A = algebras[key]
        cones = list_positive_cones(A)
        assert cones
        for _ in range(10):
            x = A.element(random_d_matrix(A.desc, A.n, rng, 2))
            for b in (x, x + A.involution(x)):
                if A.is_symmetric(b):
                    for cone in cones:
                        cone_membership(b, cone)
                    continue
                rejected += 1
                for cone in cones:
                    with pytest.raises(NotSymmetric):
                        cone_membership(b, cone)
    assert rejected >= 25


def test_certificates_check_over_the_standard_algebras():
    rng = random.Random(5)
    for key, A in standard_algebras().items():
        checked = 0
        for cone in list_positive_cones(A):
            for t in range(6):
                if t < 4:
                    b = sample_cone_member(cone, rng, invertible=t % 2 == 0)
                else:
                    b = sample_symmetric(A, rng)
                ok, w = cone_membership(b, cone)
                assert ok == (w is not None)
                if ok:
                    assert w.check(b, cone), key
                    checked += 1
        assert checked >= 4, key


def test_corrupted_certificates_fail():
    rng = random.Random(6)
    for key, A in standard_algebras().items():
        for cone in list_positive_cones(A):
            b = sample_cone_member(cone, rng, invertible=True)
            ok, w = cone_membership(b, cone)
            assert ok and w.check(b, cone)
            # b is a unit, so every diagonal entry is nonzero
            d = list(w.diagonal)
            d[0] = -d[0]
            assert not ConeWitness(w.transform, tuple(d)).check(b, cone), key
            G = [list(row) for row in w.transform]
            G[0][-1] = G[0][-1] + A.desc.one()
            assert not ConeWitness(tuple(map(tuple, G)), w.diagonal).check(b, cone), key
            other = PositiveConeHandle(A, cone.ordering, -cone.orientation)
            assert not w.check(b, other), key
            # against the other orientation the congruence holds with -d,
            # and the signs reject it
            negated = ConeWitness(w.transform, tuple(-x for x in w.diagonal))
            assert not negated.check(b, other), key


def test_cone_equality_checks_singular_certificates(monkeypatch):
    # a certificate whose first diagonal entry is -1 fails its congruence;
    # only singular members read the certificate, and seed 0 draws some
    def run():
        only = ["cone_membership_psd_vs_signature"]
        return run_suite(seed=0, only=only, sizes={"cone_equality": 4})[0]

    real = verify.cone_membership

    def corrupted(b, cone):
        member, w = real(b, cone)
        if member:
            d = (cone.algebra.field.from_rational(-1),) + w.diagonal[1:]
            w = ConeWitness(w.transform, d)
        return member, w

    assert run().passed
    monkeypatch.setattr(verify, "cone_membership", corrupted)
    result = run()
    assert not result.passed and result.details["failures"] > 0


def test_certificate_transform_must_be_a_unit():
    M2 = make_algebra(BQQ, 2)
    cone = list_positive_cones(M2)[0]
    zero = QQ.zero()
    assert ConeWitness(M2.identity().entries, (zero, zero)).check(M2.zero(), cone)
    # theta(0)^t 0 0 = diag(0, 0) holds, but 0 certifies nothing
    assert not ConeWitness(M2.zero().entries, (zero, zero)).check(M2.zero(), cone)


def _exact_hermitian(rng, D, n):
    """A random theta-hermitian n x n matrix over exact's D, diagonal in F."""

    def felem():
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(D.F.d))

    S = [[None] * n for _ in range(n)]
    for i in range(n):
        S[i][i] = D.scalar(felem())
        for j in range(i + 1, n):
            S[i][j] = tuple(felem() for _ in range(D.dim))
            S[j][i] = D.conj(S[i][j])
    return S


def test_member_agrees_with_exact():
    # exact.py shares no code with hermsig: a unit is in a cone exactly when
    # its signature is the orientation times n
    rng = random.Random(11)
    decided = 0
    for degree, quaternion in itertools.product((1, 2, 4), (False, True)):
        F = exact.Field(degree, 0 if degree == 1 else rng.choice((2, 3, 5, 7)))
        m1 = F.const(-1)
        D = exact.Division(F, exact.QUATERNION, a=m1, b=m1) if quaternion else exact.Division(F, exact.BASE)
        division = {"kind": "quaternion", "a": "-1", "b": "-1"} if quaternion else {"kind": "base"}
        for n in (1, 2):
            A = jsonio.parse_algebra({"field": {"min_poly": F.min_poly()}, "division": division, "n": n})
            for _ in range(4):
                S = _exact_hermitian(rng, D, n)
                b = jsonio.parse_algebra_element(A, exact.matrix_json(S))
                for cone in list_positive_cones(A):
                    member, w = cone_membership(b, cone)
                    if member:
                        assert w.check(b, cone)
                    sig = exact.signature_at(D, S, cone.ordering.root_index)
                    if sig is not None:
                        assert member == (sig == cone.orientation * n)
                        decided += 1
    assert decided >= 50


def test_list_positive_cones():
    M2 = make_algebra(BQQ, 2)
    assert len(list_positive_cones(M2)) == 2
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    cones = list_positive_cones(B)
    assert len(cones) == 2
    assert all(c.ordering.root_index == 0 for c in cones)
    # quaternion split at every ordering: no cones at all
    split = make_algebra(
        quaternion_desc(QQ, QQ.from_rational(1), QQ.from_rational(1)), 1
    )
    assert list_positive_cones(split) == ()


def test_cone_handle_rejects_nil():
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    neg, pos = list_orderings(RT2)
    with pytest.raises(NilOrdering):
        PositiveConeHandle(B, pos, 1)


def test_sampled_members_are_members():
    rng = random.Random(42)
    for A in (make_algebra(BQQ, 2), make_algebra(HAM, 1)):
        for cone in list_positive_cones(A):
            for _ in range(10):
                b = sample_cone_member(cone, rng)
                assert cone_membership(b, cone)[0]


def test_cone_axioms_check_passes():
    rng = random.Random(77)
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    cone = PositiveConeHandle(M2, P, 1)
    samples = sample_axiom_set(cone, rng, 20)
    scalars = [QQ.from_rational(v) for v in (3, -1, Fraction(1, 2), 0, -5)]
    report = cone_axioms_check(cone, samples, scalars)
    assert report["pass"], report


def test_cone_axioms_negative_control():
    # mixing the orientations makes the membership improper: P5 must fail
    rng = random.Random(78)
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    plus = PositiveConeHandle(M2, P, 1)
    minus = PositiveConeHandle(M2, P, -1)
    corrupted = lambda b: cone_membership(b, plus)[0] or cone_membership(b, minus)[0]
    samples = [sample_cone_member(plus, rng) for _ in range(8)]
    scalars = [QQ.from_rational(v) for v in (2, -3)]
    report = cone_axioms_check(plus, samples, scalars, membership=corrupted)
    assert not report["P5"]["pass"]
    assert not report["pass"]


def test_cone_axioms_scalar_violation_detected():
    rng = random.Random(79)
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    cone = PositiveConeHandle(M2, P, 1)
    samples = [sample_cone_member(cone, rng) for _ in range(6)]
    scalars = [QQ.from_rational(-1)]
    report = cone_axioms_check(cone, samples, scalars)
    assert report["P4"]["pass"]  # -1 correctly excluded from the scalar cone


def test_harrison_sigma():
    M2 = make_algebra(BQQ, 2)
    phi = M2.phi_element()
    cones = harrison_sigma(M2, [phi])
    assert all(c.orientation == 1 for c in cones) and len(cones) == 1
    assert harrison_sigma(M2, [M2.zero()]) == list_positive_cones(M2)
    assert harrison_sigma(M2, [phi, -phi]) == ()
    with pytest.raises(NotSymmetric):
        nonsym = M2.element(m2([[0, 1], [0, 0]]))
        harrison_sigma(M2, [nonsym])


def test_project_pi_two_to_one():
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    cones = list_positive_cones(B)
    images = [project_pi(c) for c in cones]
    neg, pos = list_orderings(RT2)
    assert images == [neg, neg]
    from hermsig.hermitian import nil_orderings

    assert set(images) == set(list_orderings(RT2)) - set(nil_orderings(B))


def test_extend_cone_q_to_rt2():
    rng = random.Random(90)
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    cone = PositiveConeHandle(M2, P, 1)
    emb = embed_field(QQ, RT2, RT2.zero())
    for Q in list_orderings(RT2):
        ext, report = extend_cone(emb, cone, Q, samples=10, rng=rng)
        assert report["pass"], report
        assert local_degree_nP(ext.algebra, Q).value == 2


def test_extend_cone_wrong_ordering():
    rng = random.Random(91)
    L = NumberField([-2, 0, 0, 0, 1])
    emb = embed_field(RT2, L, L.element([0, 0, 1, 0]))
    neg, pos = list_orderings(RT2)
    A = make_algebra(quaternion_desc(RT2, RT2.from_rational(-1), RT2.from_rational(-1)), 1)
    cone_neg = PositiveConeHandle(A, neg, 1)
    for Q in list_orderings(L):
        with pytest.raises(OrderingDoesNotRestrict):
            extend_cone(emb, cone_neg, Q)
    cone_pos = PositiveConeHandle(A, pos, 1)
    ext, report = extend_cone(emb, cone_pos, list_orderings(L)[0], samples=8, rng=rng)
    assert report["pass"]


def diagonalize_over_algebra(h):
    """Diagonal entries of a congruence diagonalization over A itself.

    Pivots must be invertible in A, which can fail even for nonsingular
    forms when A is not a division algebra; NotInvertible then signals the
    caller to retry with a different presentation.
    """
    A = h.owner
    k = h.dim
    B = [list(row) for row in h.gram]

    def swap(r, s):
        for i in range(k):
            B[i][r], B[i][s] = B[i][s], B[i][r]
        B[r], B[s] = B[s], B[r]

    for r in range(k):
        pivot_col = None
        for s in range(r, k):
            if B[s][s].is_zero:
                continue
            try:
                A.invert(B[s][s])
            except NotInvertible:
                continue
            pivot_col = s
            break
        if pivot_col is None:
            if all(
                B[s][t].is_zero for s in range(r, k) for t in range(r, k)
            ):
                break  # radical
            raise NotInvertible("no invertible diagonal pivot")
        swap(r, pivot_col)
        pinv = A.invert(B[r][r])
        for t in range(r + 1, k):
            if B[r][t].is_zero:
                continue
            c = -(pinv * B[r][t])
            cs = A.involution(c)
            for i in range(k):
                if not B[i][r].is_zero:
                    B[i][t] = B[i][t] + B[i][r] * c
            for j in range(k):
                if not B[r][j].is_zero:
                    B[t][j] = B[t][j] + cs * B[r][j]
    return tuple(B[i][i] for i in range(k))


def test_samenr_balanced_transforms():
    # a congruence image of a balanced cone-entry diagonal form, whenever it
    # diagonalizes over A with classifiable entries, is balanced again
    rng = random.Random(314)
    for A in (make_algebra(HAM, 1), make_algebra(BQQ, 2)):
        cone = list_positive_cones(A)[0]
        confirmed = 0
        attempts = 0
        while confirmed < 12 and attempts < 200:
            attempts += 1
            r = rng.randint(1, 2)
            pos = [sample_cone_member(cone, rng, invertible=True) for _ in range(r)]
            neg = [sample_cone_member(cone, rng, invertible=True) for _ in range(r)]
            h = diagonal_form(A, pos + [-q for q in neg])
            k = 2 * r
            G = [[A.identity() if i == j else A.zero() for j in range(k)] for i in range(k)]
            for _ in range(3):
                i, j = rng.randrange(k), rng.randrange(k)
                if i == j:
                    continue
                c = sample_symmetric(A, rng, height=1)
                for t in range(k):
                    G[t][j] = G[t][j] + G[t][i] * c
            try:
                entries = diagonalize_over_algebra(congruence_transform(h, G))
            except NotInvertible:
                continue
            in_cone = 0
            in_neg = 0
            for e in entries:
                if cone_membership(e, cone)[0]:
                    in_cone += 1
                elif cone_membership(-e, cone)[0]:
                    in_neg += 1
                else:
                    break
            else:
                assert in_cone == in_neg == r
                confirmed += 1
        assert confirmed >= 12


def test_member_signature_orientation():
    rng = random.Random(99)
    M2 = make_algebra(BQQ, 2)
    P = list_orderings(QQ)[0]
    for cone in list_positive_cones(M2):
        for _ in range(8):
            b = sample_cone_member(cone, rng, invertible=True)
            assert signature(diagonal_form(M2, [b]), P) == cone.orientation * 2


def test_membership_shares_one_congruence_per_element(monkeypatch):
    # both orientations read the congruence the form <b> memoizes: the first
    # eliminates Phi^(-1) b, the second keeps G and negates d, and both give
    # the witness a direct elimination of eps Phi^(-1) b gives
    eliminations = []
    real = hermitian.diagonalize_hermitian

    def counting(desc, B):
        eliminations.append(B)
        return real(desc, B)

    monkeypatch.setattr(hermitian, "diagonalize_hermitian", counting)
    rng = random.Random(24)
    for key, A in standard_algebras().items():
        desc, cones = A.desc, list_positive_cones(A)
        samples = [A.zero()]
        if A.n > 1:
            # Phi diag(1, 0): a singular member of every + cone
            samples.append(A.element(A.rescale(
                [[desc.one() if i == j == 0 else desc.zero() for j in range(A.n)] for i in range(A.n)]
            )))
        for cone in cones:
            samples.append(sample_cone_member(cone, rng))
        samples += [sample_symmetric(A, rng) for _ in range(3)]
        for s, b in enumerate(samples):
            for pair in range(0, len(cones), 2):
                A._diagonal_memo.clear()
                # the + cone first on even samples, the - cone first on odd ones
                for i, cone in enumerate(cones[pair : pair + 2][:: 1 - 2 * (s % 2)]):
                    before = len(eliminations)
                    got = cone_membership(b, cone)
                    assert len(eliminations) - before == (i == 0), key
                    oriented = b if cone.orientation == 1 else -b
                    assert got == psd_membership(desc, A.unscale(oriented.entries), cone.ordering), key


@pytest.mark.parametrize("key", sorted(standard_algebras()))
def test_a_non_symmetric_element_raises_every_time(key):
    A = standard_algebras()[key]
    desc = A.desc
    cones = list_positive_cones(A)
    candidates = [
        A.element([[t if (r, c) == (0, A.n - 1) else desc.zero() for c in range(A.n)] for r in range(A.n)])
        for t in desc.basis()
    ]
    b = next((x for x in candidates if not A.is_symmetric(x)), None)
    if b is None:
        # (Q, id) at n = 1 has only symmetric elements
        assert desc.kind == BASE and A.n == 1
        return
    for _ in range(2):
        with pytest.raises(NotSymmetric):
            cone_membership(b, cones[0])
    assert not A._diagonal_memo
