import random
from fractions import Fraction

import pytest

import sympy

from hermsig.errors import NilOrdering, NotHermitian
from hermsig.algebras import (
    DElement,
    base_desc,
    make_algebra,
    mat_identity,
    mat_mul,
    quadratic_desc,
    quaternion_desc,
)
from hermsig.hermitian import (
    congruence_transform,
    diagonal_form,
    diagonalize_hermitian,
    form_direct_sum,
    form_repeat,
    form_tensor_qf,
    is_unit,
    local_degree_nP,
    max_signature_mP,
    nil_orderings,
    random_symmetric_unit,
    sample_symmetric,
    signature,
    signature_vector,
    star_pairing,
    star_pairing_form,
    trace_transfer,
)
from hermsig.orderings import NumberField, list_orderings, sign_of
from hermsig.qforms import QuadraticForm, signature_qf

QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])

GAUSS = quadratic_desc(QQ, QQ.from_rational(-1))  # Q(i)
HAM = quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1))


def delt(desc, *vals):
    return DElement(desc, tuple(desc.field.from_rational(v) for v in vals))


def _check_hermitian_congruence(desc, B, G, d):
    ell = len(B)
    field = desc.field
    for i in range(ell):
        for j in range(ell):
            acc = desc.zero()
            for a in range(ell):
                for b in range(ell):
                    acc = acc + G[a][i].conj() * B[a][b] * G[b][j]
            if i == j:
                assert (acc - desc.from_field(d[i])).is_zero
            else:
                assert acc.is_zero


def test_diagonalize_hermitian_gauss_example():
    # [[2, i], [-i, 1]] over Q(i) diagonalizes to (2, 1/2)
    B = [
        [delt(GAUSS, 2, 0), delt(GAUSS, 0, 1)],
        [delt(GAUSS, 0, -1), delt(GAUSS, 1, 0)],
    ]
    G, d = diagonalize_hermitian(GAUSS, B)
    _check_hermitian_congruence(GAUSS, B, G, d)
    assert [x.as_fraction() for x in d] == [2, Fraction(1, 2)]


def test_diagonalize_hermitian_identity():
    B = [[GAUSS.one() if i == j else GAUSS.zero() for j in range(3)] for i in range(3)]
    G, d = diagonalize_hermitian(GAUSS, B)
    assert all(x.as_fraction() == 1 for x in d)
    assert all((G[i][j] - B[i][j]).is_zero for i in range(3) for j in range(3))


def test_diagonalize_hermitian_offdiag_quaternion():
    # [[0, j], [-j, 0]] over (-1,-1): rank 2 with one sign each
    j = HAM.basis()[2]
    B = [[HAM.zero(), j], [-j, HAM.zero()]]
    G, d = diagonalize_hermitian(HAM, B)
    _check_hermitian_congruence(HAM, B, G, d)
    P = list_orderings(QQ)[0]
    signs = sorted(sign_of(x, P) for x in d)
    assert signs == [-1, 1]


def test_diagonalize_hermitian_rejects_nonhermitian():
    i = GAUSS.basis()[1]
    with pytest.raises(NotHermitian):
        diagonalize_hermitian(GAUSS, [[i]])
    # the hermitian test reads one triangle, diagonal included: a lone
    # non-identity component on the diagonal, or a lower entry that is not
    # the mirror of the upper one, is found wherever it sits
    beta = delt(HAM, 1, 2, 0, -1)
    one = HAM.one()
    base = [[one * 3, beta, HAM.zero()], [beta.conj(), one, beta], [HAM.zero(), beta.conj(), one]]
    diagonalize_hermitian(HAM, base)
    for r in range(3):
        for unit in HAM.basis()[1:]:
            B = [list(row) for row in base]
            B[r][r] = B[r][r] + unit
            with pytest.raises(NotHermitian):
                diagonalize_hermitian(HAM, B)
    for r, c in ((1, 0), (2, 1), (2, 0)):
        B = [list(row) for row in base]
        B[r][c] = B[r][c] + HAM.basis()[1]
        with pytest.raises(NotHermitian):
            diagonalize_hermitian(HAM, B)
    # over the base kind, theta is the identity and the diagonal is free
    Q = base_desc(QQ)
    S = [[delt(Q, 1), delt(Q, 2)], [delt(Q, 2), delt(Q, 0)]]
    diagonalize_hermitian(Q, S)
    S[1][0] = delt(Q, 3)
    with pytest.raises(NotHermitian):
        diagonalize_hermitian(Q, S)


def test_nil_orderings_tables():
    assert nil_orderings(make_algebra(base_desc(QQ), 2)) == ()
    neg, pos = list_orderings(RT2)
    A = make_algebra(quadratic_desc(RT2, RT2.generator()), 1)
    assert nil_orderings(A) == (pos,)
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    assert nil_orderings(B) == (pos,)


def test_local_degree():
    P = list_orderings(QQ)[0]
    assert local_degree_nP(make_algebra(base_desc(QQ), 2), P).value == 2
    H = make_algebra(HAM, 1)
    assert local_degree_nP(H, P) .value == 1
    neg, pos = list_orderings(RT2)
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    ld = local_degree_nP(B, pos)
    assert ld.value == 2 and ld.nil
    ld = local_degree_nP(B, neg)
    assert ld.value == 1 and not ld.nil


def test_signature_examples():
    P = list_orderings(QQ)[0]
    Ai = make_algebra(GAUSS, 1)
    assert signature(diagonal_form(Ai, [1]), P) == 1
    M2 = make_algebra(base_desc(QQ), 2)
    assert signature(diagonal_form(M2, [M2.identity()]), P) == 2
    d13 = M2.element(
        [[delt(base_desc(QQ), 1), delt(base_desc(QQ), 0)],
         [delt(base_desc(QQ), 0), delt(base_desc(QQ), -3)]]
    )
    assert signature(diagonal_form(M2, [d13]), P) == 0


def test_signature_vector_examples():
    H = make_algebra(HAM, 1)
    hyp = diagonal_form(H, [H.identity(), -H.identity()])  # hyperbolic plane
    assert signature_vector(hyp).values == (0,)
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    vec = signature_vector(diagonal_form(B, [1])).values
    assert vec[1] == 0 and vec[0] in (-1, 1)
    phi_vec = signature_vector(diagonal_form(B, [B.phi_element()]))
    assert phi_vec.values == (1, 0)


def test_trace_transfer_kinds():
    P = list_orderings(QQ)[0]
    base = make_algebra(base_desc(QQ), 1)
    h = diagonal_form(base, [5, -2])
    assert [d.as_fraction() for d in trace_transfer(h).diag] == [5, -2]

    Ai = make_algebra(GAUSS, 1)
    q = trace_transfer(diagonal_form(Ai, [1]))
    assert [d.as_fraction() for d in q.diag] == [1, 1]

    H = make_algebra(HAM, 1)
    q = trace_transfer(diagonal_form(H, [1]))
    assert [d.as_fraction() for d in q.diag] == [1, 1, 1, 1]


def test_trace_transfer_consistency_randomized():
    rng = random.Random(101)
    factors = {
        "base": 1,
        "quadratic": 2,
        "quaternion": 4,
    }
    algebras = [
        make_algebra(base_desc(QQ), 1),
        make_algebra(GAUSS, 1),
        make_algebra(HAM, 1),
        make_algebra(quadratic_desc(RT2, RT2.generator()), 1),
        make_algebra(quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1),
    ]
    for A in algebras:
        factor = factors[A.desc.kind]
        nil = set(nil_orderings(A))
        for _ in range(25):
            k = rng.randint(1, 3)
            entries = [rng.randint(-6, 6) for _ in range(k)]
            h = diagonal_form(A, entries)
            bq = trace_transfer(h)
            for P in list_orderings(A.field):
                left = signature_qf(bq, P)
                if P in nil:
                    assert left == 0 and signature(h, P) == 0
                else:
                    assert left == factor * signature(h, P)


def test_congruence_invariance_randomized():
    rng = random.Random(55)
    algebras = [
        make_algebra(base_desc(QQ), 2),
        make_algebra(GAUSS, 1),
        make_algebra(HAM, 2),
    ]
    for A in algebras:
        orderings = list_orderings(A.field)
        for _ in range(10):
            k = rng.randint(1, 2)
            h = diagonal_form(
                A, [random_symmetric_unit(A, rng, 2) for _ in range(k)]
            )
            # random invertible G over A from unit column operations
            G = [[A.identity() if i == j else A.zero() for j in range(k)] for i in range(k)]
            for _ in range(3):
                i, j = rng.randrange(k), rng.randrange(k)
                if i == j:
                    continue
                c = random_symmetric_unit(A, rng, 1)
                for r in range(k):
                    G[r][j] = G[r][j] + G[r][i] * c
            h2 = congruence_transform(h, G)
            for P in orderings:
                assert signature(h, P) == signature(h2, P)


def test_nil_vanishing_random_forms():
    rng = random.Random(606)
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    nil = nil_orderings(B)
    for _ in range(30):
        h = diagonal_form(B, [random_symmetric_unit(B, rng, 3) for _ in range(2)])
        for P in nil:
            assert signature(h, P) == 0


def test_star_pairing_examples():
    P = list_orderings(QQ)[0]
    base1 = make_algebra(base_desc(QQ), 1)
    q = star_pairing(base1.identity(), base1.identity())
    assert signature_qf(q, P) == 1

    H = make_algebra(HAM, 1)
    q = star_pairing(H.identity(), H.identity())
    assert sorted(d.as_fraction() for d in q.diag) == [2, 2, 2, 2]
    assert signature_qf(q, P) == 4

    M2 = make_algebra(base_desc(QQ), 2)
    q = star_pairing(M2.identity(), M2.identity())
    assert signature_qf(q, P) == 4


def test_star_pairing_quadratic_center():
    P = list_orderings(QQ)[0]
    Ai = make_algebra(GAUSS, 1)
    q = star_pairing(Ai.identity(), Ai.identity())
    assert q.dim == 1
    assert signature_qf(q, P) == 1


def test_star_pairing_on_split_quaternion_unit():
    # over the split quaternions (-1,2)_Q, row reduction by pivots of
    # nonzero norm misses some units; the hermitian diagonal does not
    with pytest.warns(UserWarning, match="DNotDivisionAtAnyOrdering"):
        A = make_algebra(quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(2)), 3)
    rng = random.Random(1)
    x = [sample_symmetric(A, rng, 1) for _ in range(88)][87]
    assert is_unit(x)
    q = star_pairing(x, x)
    assert q.dim == 36

    # a two-sided inverse, solved for independently over Q: y -> x * y is
    # Q-linear in the 36 coordinates of y
    basis = []
    for r in range(3):
        for c in range(3):
            for t in range(4):
                entries = [[delt(A.desc, 0, 0, 0, 0)] * 3 for _ in range(3)]
                entries[r][c] = delt(A.desc, *[int(i == t) for i in range(4)])
                basis.append(entries)

    def coords(m):
        return [comp.as_fraction() for row in m for e in row for comp in e.comps]

    left = sympy.Matrix([coords(mat_mul(x.entries, b)) for b in basis]).T
    solution = left.LUsolve(sympy.Matrix(coords(mat_identity(A.desc, 3))))
    y = [[delt(A.desc, 0, 0, 0, 0)] * 3 for _ in range(3)]
    for coef, b in zip(solution, basis):
        coef = Fraction(int(coef.p), int(coef.q))
        y = [[u + v * coef for u, v in zip(ry, rb)] for ry, rb in zip(y, b)]
    identity = mat_identity(A.desc, 3)
    assert mat_mul(x.entries, y) == identity
    assert mat_mul(y, x.entries) == identity


def test_is_unit_follows_the_diagonal():
    M2 = make_algebra(base_desc(QQ), 2)
    assert is_unit(M2.identity())
    singular = M2.element([[delt(M2.desc, 1), delt(M2.desc, 2)], [delt(M2.desc, 2), delt(M2.desc, 4)]])
    assert not is_unit(singular)
    assert not is_unit(M2.zero())


def test_tensor_with_empty_quadratic_form():
    M2 = make_algebra(base_desc(QQ), 2)
    h = diagonal_form(M2, [M2.identity()])
    empty = form_tensor_qf(QuadraticForm(QQ, []), h)
    assert empty.dim == 0 and empty.rank() == 0
    assert signature(empty, list_orderings(QQ)[0]) == 0


def test_max_signature():
    rng = random.Random(9)
    P = list_orderings(QQ)[0]
    M2 = make_algebra(base_desc(QQ), 2)
    val, witness = max_signature_mP(M2, P, trials=20, rng=rng)
    assert val == 2 and witness == M2.phi_element()
    H = make_algebra(HAM, 1)
    val, witness = max_signature_mP(H, P, trials=20, rng=rng)
    assert val == 1
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    neg, pos = list_orderings(RT2)
    with pytest.raises(NilOrdering):
        max_signature_mP(B, pos)


def test_signature_rank_bound():
    rng = random.Random(70)
    M2 = make_algebra(base_desc(QQ), 2)
    P = list_orderings(QQ)[0]
    for _ in range(20):
        k = rng.randint(1, 3)
        h = diagonal_form(M2, [random_symmetric_unit(M2, rng, 2) for _ in range(k)])
        assert abs(signature(h, P)) <= k * 2


def test_signature_report_shape():
    B = make_algebra(
        quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1
    )
    vec = signature_vector(diagonal_form(B, [B.phi_element()]))
    assert vec.values == (1, 0)
    assert nil_orderings(B) == list_orderings(RT2)[1:]


def test_block_diagonals_stay_small(monkeypatch):
    # a diagonal form over M_2(Q), its repeat and its direct sum are
    # diagonalized one n x n block at a time, each distinct block once, and
    # with Phi = I no Phi^(-1) product is taken
    from hermsig import algebras, hermitian

    M2 = make_algebra(base_desc(QQ), 2)
    rng = random.Random(88)
    units = [random_symmetric_unit(M2, rng, 2) for _ in range(8)]
    b = random_symmetric_unit(M2, rng, 2)
    # drawing units fills the memo with their diagonals; start from empty,
    # and record from there on, since a form's blocks are eliminated when
    # the form is built
    M2._diagonal_memo.clear()
    sizes = []
    real = hermitian.diagonalize_hermitian

    def recording(desc, B):
        sizes.append(len(B))
        return real(desc, B)

    def no_mat_mul(x, y):
        raise AssertionError("mat_mul called with Phi = I")

    monkeypatch.setattr(hermitian, "diagonalize_hermitian", recording)
    monkeypatch.setattr(algebras, "mat_mul", no_mat_mul)
    h = diagonal_form(M2, units)
    forms = (h, form_repeat(3, h), form_direct_sum(h, h))
    vectors = [signature_vector(f).values for f in forms]
    assert 0 < len(sizes) <= 8 and max(sizes) <= M2.n
    assert vectors[1] == tuple(3 * v for v in vectors[0])
    assert vectors[2] == tuple(2 * v for v in vectors[0])

    # the star pairing is taken one block at a time too: each one-entry
    # block gives a Gram of dim_Z M_2(Q) = 4 rows
    monkeypatch.undo()
    monkeypatch.setattr(hermitian, "diagonalize_hermitian", recording)
    sizes.clear()
    paired = star_pairing_form(h, b)
    assert paired.dim == 32 and sizes == [4] * 8
