import random
from collections import Counter
from fractions import Fraction

import pytest

from hermsig.errors import ExpectedNPMember
from hermsig.algebras import (
    AlgebraWithInvolution,
    DElement,
    base_desc,
    make_algebra,
    quaternion_desc,
)
from hermsig.cones import PositiveConeHandle, sample_cone_member
from hermsig.hermitian import (
    diagonal_form,
    form_direct_sum,
    form_tensor_qf,
    random_symmetric_unit,
    signature,
)
from hermsig.orderings import NumberField, list_orderings
from hermsig.qforms import QuadraticForm, signature_qf
from hermsig import wittideal
from hermsig.wittideal import (
    NotFound,
    ZWitness,
    find_Z_witness,
    in_IP,
    in_NP,
    mideal_check,
    sylvester_reduction,
    verify_witness,
)


def hyperbolic(a):
    """The hyperbolic form <a, -a>."""
    return diagonal_form(a.owner, [a, -a])


QQ = NumberField([0, 1])
HAM = quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1))
P0 = list_orderings(QQ)[0]


def qf(*vals):
    return QuadraticForm(QQ, [QQ.from_rational(v) for v in vals])


@pytest.fixture(scope="module")
def rational_cone():
    A = make_algebra(base_desc(QQ), 1)
    return PositiveConeHandle(A, P0, 1)


@pytest.fixture(scope="module")
def ham_cone():
    A = make_algebra(HAM, 1)
    return PositiveConeHandle(A, P0, 1)


@pytest.fixture(scope="module")
def m2_cone():
    A = make_algebra(base_desc(QQ), 2)
    return PositiveConeHandle(A, P0, 1)


def test_in_IP():
    u = QQ.from_rational(3)
    assert in_IP(QuadraticForm(QQ, [QQ.one(), -u]), P0)
    assert not in_IP(qf(1), P0)
    assert in_IP(qf(1, 1, -1, -1), P0)


def test_in_NP(m2_cone):
    A = m2_cone.algebra
    assert in_NP(hyperbolic(A.identity()), m2_cone)
    assert not in_NP(diagonal_form(A, [A.phi_element()]), m2_cone)
    rng = random.Random(3)
    for _ in range(10):
        s = random_symmetric_unit(A, rng)
        h = diagonal_form(A, [s])
        two_dim = qf(1, -5)  # u = 5 > 0 at the ordering
        assert in_NP(form_tensor_qf(two_dim, h), m2_cone)


def test_sylvester_reduction_rational(rational_cone):
    A = rational_cone.algebra
    h = diagonal_form(A, [1, -1])
    q, u, v, ev = sylvester_reduction(h, A.identity(), rational_cone)
    assert [x.as_fraction() for x in q.diag] == [1]
    assert [x.as_fraction() for x in u] == [1]
    assert [x.as_fraction() for x in v] == [1]
    assert ev["match"]


def test_sylvester_reduction_quaternion(ham_cone):
    A = ham_cone.algebra
    h = diagonal_form(A, [1])
    q, u, v, ev = sylvester_reduction(h, A.identity(), ham_cone)
    assert sorted(x.as_fraction() for x in q.diag) == [2, 2, 2, 2]
    assert signature_qf(q, P0) == 4
    assert len(u) == 4 and len(v) == 0
    assert ev["match"]


def test_sylvester_reduction_checks_each_value_once(monkeypatch):
    # over M_2(H): h is checked once, a is checked symmetric once and found
    # a unit from its hermitian diagonal, and nothing is inverted
    A = make_algebra(HAM, 2)
    cone = PositiveConeHandle(A, P0, 1)

    def m(*rows):
        return A.element([[DElement(HAM, tuple(QQ.from_rational(c) for c in e)) for e in row] for row in rows])

    h = diagonal_form(
        A,
        [
            m([(2, 0, 0, 0), (1, 1, 0, 0)], [(1, -1, 0, 0), (3, 0, 0, 0)]),
            m([(1, 0, 0, 0), (0, 1, 1, 0)], [(0, -1, -1, 0), (-4, 0, 0, 0)]),
        ],
    )
    a = m([(2, 0, 0, 0), (1, 0, 1, 0)], [(1, 0, -1, 0), (5, 0, 0, 0)])
    calls = Counter()
    for name in ("is_symmetric", "invert"):
        real = getattr(AlgebraWithInvolution, name)

        def counted(self, x, real=real, name=name):
            calls[name] += 1
            return real(self, x)

        monkeypatch.setattr(AlgebraWithInvolution, name, counted)
    q, u, v, ev = sylvester_reduction(h, a, cone)
    assert calls["is_symmetric"] == 1 and calls["invert"] == 0
    assert q.dim == 16 and len(u) + len(v) == 32
    assert ev["match"] and ev["rank_left"] == ev["rank_right"] == 64


def test_sylvester_reduction_m2(m2_cone):
    A = m2_cone.algebra
    h = diagonal_form(A, [A.identity()])
    q, u, v, ev = sylvester_reduction(h, A.identity(), m2_cone)
    assert signature_qf(q, P0) == 4
    assert ev["match"]


def test_find_witness_trivial_hyperbolic(m2_cone):
    A = m2_cone.algebra
    h = diagonal_form(A, [A.phi_element(), -A.phi_element()])
    w = find_Z_witness(h, m2_cone)
    assert isinstance(w, ZWitness)
    assert [x.as_fraction() for x in w.q.diag] == [1]
    assert w.a_list == (A.phi_element(),)
    assert w.b_list == (A.phi_element(),)
    assert verify_witness(w, h, m2_cone)


def test_find_witness_rational_pair(rational_cone):
    A = rational_cone.algebra
    h = diagonal_form(A, [2, -3])
    w = find_Z_witness(h, rational_cone)
    assert isinstance(w, ZWitness)
    assert [x.as_fraction() for x in w.q.diag] == [1]
    assert verify_witness(w, h, rational_cone)


def test_find_witness_rejects_nonzero_signature(m2_cone):
    A = m2_cone.algebra
    with pytest.raises(ExpectedNPMember):
        find_Z_witness(diagonal_form(A, [A.phi_element()]), m2_cone)


def test_witness_transport_under_hyperbolic_addition(ham_cone):
    rng = random.Random(8)
    A = ham_cone.algebra
    h = diagonal_form(A, [5, -7])
    w = find_Z_witness(h, ham_cone, rng=rng)
    assert isinstance(w, ZWitness)
    bigger = form_direct_sum(h, hyperbolic(A.phi_element()))
    w2 = find_Z_witness(bigger, ham_cone, rng=rng)
    assert isinstance(w2, ZWitness)
    assert verify_witness(w2, bigger, ham_cone)


def test_witness_concatenation_counts(ham_cone):
    # combining two witnessed forms with tensored q's stays balanced with
    # (dim q_psi) * r + (dim q_phi) * s entries on each side
    A = ham_cone.algebra
    h1 = diagonal_form(A, [2, -1])
    h2 = diagonal_form(A, [3, -4])
    w1 = find_Z_witness(h1, ham_cone)
    w2 = find_Z_witness(h2, ham_cone)
    assert isinstance(w1, ZWitness) and isinstance(w2, ZWitness)
    from hermsig.qforms import tensor

    combined = form_tensor_qf(tensor(w1.q, w2.q), form_direct_sum(h1, h2))
    r, s = len(w1.a_list), len(w2.a_list)
    expected = w2.q.dim * r + w1.q.dim * s
    count_pos = 0
    count_neg = 0
    from hermsig.cones import cone_membership

    assert combined.is_diagonal()
    for i in range(combined.dim):
        e = combined.gram[i][i]
        if cone_membership(e, ham_cone)[0]:
            count_pos += 1
        elif cone_membership(-e, ham_cone)[0]:
            count_neg += 1
    assert count_pos == count_neg == expected


def test_mideal_check_passes(m2_cone):
    rng = random.Random(12)
    A = m2_cone.algebra
    samples = [
        diagonal_form(A, [random_symmetric_unit(A, rng) for _ in range(rng.randint(1, 2))])
        for _ in range(12)
    ]
    report = mideal_check(m2_cone, samples, rng)
    assert report["pass"], report


def test_mideal_negative_control(m2_cone):
    # replacing the signature criterion by flattened-rank parity makes
    # <Phi> a member, so N != W(A, sigma) must fail
    rng = random.Random(13)
    A = m2_cone.algebra
    samples = [diagonal_form(A, [random_symmetric_unit(A, rng)]) for _ in range(6)]
    fake = lambda h: h.rank() % 2 == 0
    report = mideal_check(m2_cone, samples, rng, membership=fake)
    assert not report["N_proper"]["pass"]
    assert not report["pass"]


def test_same_signature_consequence(ham_cone):
    # <a, -b> is in the kernel for members a, b of the same cone
    rng = random.Random(14)
    A = ham_cone.algebra
    for _ in range(10):
        a = sample_cone_member(ham_cone, rng, invertible=True)
        b = sample_cone_member(ham_cone, rng, invertible=True)
        assert in_NP(diagonal_form(A, [a, -b]), ham_cone)


def test_small_scale_witness_completeness(rational_cone, ham_cone):
    # every dimension <= 2 diagonal form with zero signature and small
    # entries admits a witness, and the witness re-verifies
    for cone in (rational_cone, ham_cone):
        A = cone.algebra
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                if c1 == 0 or c2 == 0:
                    continue
                h = diagonal_form(A, [c1, c2])
                if signature(h, P0) != 0:
                    continue
                w = find_Z_witness(h, cone)
                assert isinstance(w, ZWitness)
                assert verify_witness(w, h, cone)


def _nondiagonal_kernel_form(A, rng):
    """A congruent copy of <Phi, -Phi> whose Gram is not diagonal."""
    from hermsig.hermitian import congruence_transform, sample_symmetric

    h0 = hyperbolic(A.phi_element())
    G = [[A.identity() if i == j else A.zero() for j in range(2)] for i in range(2)]
    c = sample_symmetric(A, rng, 1)
    for t in range(2):
        G[t][1] = G[t][1] + G[t][0] * c
    h = congruence_transform(h0, G)
    assert not h.is_diagonal()
    return h


def test_sylvester_witness_path_nondiagonal(m2_cone):
    # non-diagonal kernel forms over a matrix algebra go through the
    # star-pairing reduction; q has dimension dim_Z(A) A
    rng = random.Random(31)
    h = _nondiagonal_kernel_form(m2_cone.algebra, rng)
    w = find_Z_witness(h, m2_cone, search_bound=6, rng=rng)
    assert isinstance(w, ZWitness)
    assert w.q.dim == 4
    assert verify_witness(w, h, m2_cone)


def _counted_draws(monkeypatch):
    draws = []
    real = wittideal.sample_cone_member

    def counted(cone, rng, invertible=False):
        draws.append(real(cone, rng, invertible=invertible))
        return draws[-1]

    monkeypatch.setattr(wittideal, "sample_cone_member", counted)
    return draws


def _failing_first(monkeypatch, k):
    """Make the first k Sylvester reductions report an evidence mismatch."""
    real = wittideal.sylvester_reduction
    calls = []

    def reduction(h, a, cone):
        calls.append(a)
        q, u, v, evidence = real(h, a, cone)
        if len(calls) <= k:
            evidence = {**evidence, "match": False}
        return q, u, v, evidence

    monkeypatch.setattr(wittideal, "sylvester_reduction", reduction)
    return calls


def _eager_witness(h, cone, search_bound, rng):
    """The pool drawn in full before any reduction is tried."""
    A = cone.algebra
    pool = [A.phi_element() * Fraction(cone.orientation)]
    pool += [sample_cone_member(cone, rng, invertible=True) for _ in range(search_bound)]
    for a in pool:
        q, u_list, v_list, evidence = wittideal.sylvester_reduction(h, a, cone)
        if len(u_list) == len(v_list) and evidence["match"]:
            return q, tuple(u * a for u in u_list), tuple(v * a for v in v_list), evidence
    return None


def test_witness_search_draws_nothing_when_phi_succeeds(m2_cone, monkeypatch):
    h = _nondiagonal_kernel_form(m2_cone.algebra, random.Random(31))
    draws = _counted_draws(monkeypatch)
    w = find_Z_witness(h, m2_cone, search_bound=6, rng=random.Random(5))
    assert isinstance(w, ZWitness)
    assert draws == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_witness_search_draws_one_member_per_failed_reduction(m2_cone, monkeypatch, k):
    h = _nondiagonal_kernel_form(m2_cone.algebra, random.Random(31))
    draws = _counted_draws(monkeypatch)
    calls = _failing_first(monkeypatch, k)
    w = find_Z_witness(h, m2_cone, search_bound=6, rng=random.Random(5))
    assert isinstance(w, ZWitness)
    assert len(draws) == k and calls[1:] == draws
    assert verify_witness(w, h, m2_cone)

    monkeypatch.undo()
    _failing_first(monkeypatch, k)
    q, a_list, b_list, evidence = _eager_witness(h, m2_cone, 6, random.Random(5))
    assert (w.q.diag, w.a_list, w.b_list, w.evidence) == (q.diag, a_list, b_list, evidence)


def test_witness_search_draws_at_most_the_bound(m2_cone, monkeypatch):
    h = _nondiagonal_kernel_form(m2_cone.algebra, random.Random(31))
    draws = _counted_draws(monkeypatch)
    _failing_first(monkeypatch, 10)
    assert find_Z_witness(h, m2_cone, search_bound=4, rng=random.Random(5)) == NotFound(4)
    assert len(draws) == 4
