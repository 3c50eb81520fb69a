import random
from fractions import Fraction

import pytest

from hermsig.algebras import base_desc
from hermsig.errors import NotHermitian, ZeroElement
from hermsig.hermitian import diagonalize_hermitian
from hermsig.orderings import NumberField, list_orderings, sign_of
from hermsig.qforms import (
    QuadraticForm,
    pfister,
    signature_qf,
    tensor,
)

QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])
# a quadratic form over QQ is a hermitian form over the base kind (QQ, id)
BQQ = base_desc(QQ)


def qf(field, *vals):
    return QuadraticForm(field, [field.from_rational(v) for v in vals])


def _gram(rows):
    return [[BQQ.from_field(QQ.from_rational(v)) for v in row] for row in rows]


def _from_gram(gram):
    _, d = diagonalize_hermitian(BQQ, [[BQQ.from_field(x) for x in row] for row in gram])
    return QuadraticForm(QQ, d)


def _check_congruence(gram, G, d):
    n = len(gram)
    # G^t M G == diag(d), entry by entry
    for i in range(n):
        for j in range(n):
            acc = BQQ.zero()
            for a in range(n):
                for b in range(n):
                    acc = acc + G[a][i] * gram[a][b] * G[b][j]
            expected = BQQ.from_field(d[i]) if i == j else BQQ.zero()
            assert (acc - expected).is_zero


def test_diagonalize_already_diagonal():
    gram = _gram([[1, 0], [0, -3]])
    G, d = diagonalize_hermitian(BQQ, gram)
    assert [x.as_fraction() for x in d] == [1, -3]
    _check_congruence(gram, G, d)


def test_diagonalize_hyperbolic_gram():
    gram = _gram([[0, 1], [1, 0]])
    G, d = diagonalize_hermitian(BQQ, gram)
    _check_congruence(gram, G, d)
    P = list_orderings(QQ)[0]
    assert sign_of(d[0] * d[1], P) == -1  # mixed signs, e.g. (2, -1/2)


def test_diagonalize_rank_one():
    gram = _gram([[1, 1], [1, 1]])
    G, d = diagonalize_hermitian(BQQ, gram)
    _check_congruence(gram, G, d)
    assert sum(1 for x in d if not x.is_zero) == 1


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        diagonalize_hermitian(BQQ, _gram([[0, 1], [-1, 0]]))


def test_signature_basics():
    P = list_orderings(QQ)[0]
    assert signature_qf(qf(QQ, 1, -1), P) == 0
    assert signature_qf(qf(QQ, 1, 1, 1), P) == 3
    g = RT2.generator()
    neg, pos = list_orderings(RT2)
    q = QuadraticForm(RT2, [g])
    assert signature_qf(q, pos) == 1
    assert signature_qf(q, neg) == -1


def test_pfister():
    one = QQ.one()
    u = QQ.from_rational(3)
    assert pfister([u]).diag == (one, u)
    assert [x.as_fraction() for x in pfister([one, one]).diag] == [1, 1, 1, 1]
    P = list_orderings(QQ)[0]
    assert signature_qf(pfister([-one]), P) == 0
    with pytest.raises(ZeroElement):
        pfister([QQ.zero()])


def test_tensor_and_sum_signatures():
    rng = random.Random(3)
    P = list_orderings(QQ)[0]
    for _ in range(40):
        a = qf(QQ, *[rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 3))])
        b = qf(QQ, *[rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 3))])
        assert signature_qf(tensor(a, b), P) == signature_qf(a, P) * signature_qf(b, P)
        a_plus_b = QuadraticForm(QQ, a.diag + b.diag)  # orthogonal sum
        assert signature_qf(a_plus_b, P) == signature_qf(a, P) + signature_qf(b, P)
    assert signature_qf(tensor(qf(QQ, 1, -1), qf(QQ, 2, 3, 7)), P) == 0


def test_tensor_opposite_units_cancel():
    u = RT2.generator() + RT2.one()
    q = tensor(
        QuadraticForm(RT2, [RT2.one(), u]),
        QuadraticForm(RT2, [RT2.one(), -u]),
    )
    for P in list_orderings(RT2):
        assert signature_qf(q, P) == 0


def test_congruence_invariance_random():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        raw = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        gram = [[QQ.from_rational(raw[i][j] + raw[j][i]) for j in range(n)] for i in range(n)]
        # random invertible G via unit upper/lower products
        G = [[QQ.from_rational(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = QQ.from_rational(rng.randint(-3, 3))
            for r in range(n):
                G[r][j] = G[r][j] + G[r][i] * c
        transformed = [
            [
                sum(
                    (G[a][i] * gram[a][b] * G[b][j] for a in range(n) for b in range(n)),
                    QQ.zero(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        P = list_orderings(QQ)[0]
        q1 = _from_gram(gram)
        q2 = _from_gram(transformed)
        assert signature_qf(q1, P) == signature_qf(q2, P)


def test_quaternion_norm_form_signature():
    # <1,-a,-b,ab> has signature 4 iff a,b both negative, else 0
    rng = random.Random(29)
    for field in (QQ, RT2):
        orderings = list_orderings(field)
        for _ in range(40):
            coords = lambda: [rng.randint(-4, 4) for _ in range(field.degree)]
            a = field.element(coords())
            b = field.element(coords())
            if a.is_zero or b.is_zero:
                continue
            q = QuadraticForm(field, [field.one(), -a, -b, a * b])
            for P in orderings:
                expected = 4 if (sign_of(a, P) < 0 and sign_of(b, P) < 0) else 0
                assert signature_qf(q, P) == expected
