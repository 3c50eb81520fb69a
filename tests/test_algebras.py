import random

import pytest

from hermsig.errors import (
    NotInvertible,
    PhiNotSymmetric,
    PhiSingular,
    ZeroElement,
)
from hermsig.algebras import (
    DElement,
    base_desc,
    extend_scalars,
    make_algebra,
    mat_theta_t,
    push_algebra_element,
    quadratic_desc,
    quaternion_desc,
    quaternion_division_check,
)
from hermsig.orderings import NumberField, embed_field

QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])


def q_elt(desc, *vals):
    return DElement(desc, tuple(desc.field.from_rational(v) for v in vals))


@pytest.fixture(scope="module")
def ham():
    # Hamilton quaternions (-1,-1) over Q
    return quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1))


def test_quaternion_multiplication_table(ham):
    one, i, j, k = ham.basis()
    assert i * j == k
    assert j * i == -k
    assert i * i == q_elt(ham, -1, 0, 0, 0)
    assert j * j == q_elt(ham, -1, 0, 0, 0)
    assert k * k == q_elt(ham, -1, 0, 0, 0)
    assert i * k == -j and k * i == j
    assert j * k == i and k * j == -i


def test_quaternion_conj_antihomomorphism(ham):
    rng = random.Random(1)
    for _ in range(30):
        x = q_elt(ham, *[rng.randint(-4, 4) for _ in range(4)])
        y = q_elt(ham, *[rng.randint(-4, 4) for _ in range(4)])
        assert (x * y).conj() == y.conj() * x.conj()
        assert x.conj().conj() == x


def _d_inverse(A, x):
    """x^(-1) in D, as the inverse of the 1 x 1 matrix [x] in A = M_1(D)."""
    return A.invert(A.element([[x]])).entries[0][0]


def test_delement_inverse(ham):
    H = make_algebra(ham, 1)
    x = q_elt(ham, 1, 2, -1, 3)
    assert x * _d_inverse(H, x) == ham.one() == _d_inverse(H, x) * x
    with pytest.raises(NotInvertible):
        _d_inverse(H, ham.zero())
    split = quaternion_desc(QQ, QQ.from_rational(1), QQ.from_rational(5))
    with pytest.warns(UserWarning, match="DNotDivisionAtAnyOrdering"):
        S = make_algebra(split, 1)
    zero_divisor = q_elt(split, 1, 1, 0, 0)  # norm 1 - 1 = 0
    with pytest.raises(NotInvertible):
        _d_inverse(S, zero_divisor)


def test_quadratic_kind_is_commutative_field():
    desc = quadratic_desc(QQ, QQ.from_rational(-1))  # Q(i)
    x = q_elt(desc, 1, 2)
    y = q_elt(desc, -3, 1)
    assert x * y == y * x
    assert x * _d_inverse(make_algebra(desc, 1), x) == desc.one()
    assert x.conj() == q_elt(desc, 1, -2)
    with pytest.raises(ValueError):
        quadratic_desc(QQ, QQ.from_rational(4))  # rational square


def test_make_algebra_validation(ham):
    A = make_algebra(base_desc(QQ), 2)
    assert A.n == 2
    desc = base_desc(QQ)
    skew = [
        [q_elt(desc, 0), q_elt(desc, 1)],
        [q_elt(desc, -1), q_elt(desc, 0)],
    ]
    with pytest.raises(PhiNotSymmetric):
        make_algebra(desc, 2, skew)
    singular = [
        [q_elt(desc, 1), q_elt(desc, 1)],
        [q_elt(desc, 1), q_elt(desc, 1)],
    ]
    with pytest.raises(PhiSingular):
        make_algebra(desc, 2, singular)


def _random_element(A, rng, height=3):
    desc = A.desc
    return A.element(
        [
            [
                DElement(
                    desc,
                    tuple(
                        A.field.element(
                            [rng.randint(-height, height) for _ in range(A.field.degree)]
                        )
                        for _ in range(desc.dim)
                    ),
                )
                for _ in range(A.n)
            ]
            for _ in range(A.n)
        ]
    )


@pytest.fixture(scope="module")
def algebra_zoo(ham):
    zoo = [
        make_algebra(base_desc(QQ), 2),
        make_algebra(quadratic_desc(QQ, QQ.from_rational(-1)), 1),
        make_algebra(ham, 1),
        make_algebra(ham, 2),
        make_algebra(quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()), 1),
    ]
    desc = base_desc(QQ)
    phi = [
        [q_elt(desc, 1), q_elt(desc, 0)],
        [q_elt(desc, 0), q_elt(desc, -1)],
    ]
    zoo.append(make_algebra(desc, 2, phi))
    return zoo


def test_involution_properties(algebra_zoo):
    rng = random.Random(7)
    for A in algebra_zoo:
        for _ in range(20):
            x = _random_element(A, rng)
            y = _random_element(A, rng)
            assert A.involution(A.involution(x)) == x
            assert A.involution(A.multiply(x, y)) == A.multiply(
                A.involution(y), A.involution(x)
            )
            # Phi^(-1) is undone by Phi, and it carries exactly the
            # symmetric elements onto the theta-hermitian matrices
            assert A.element(A.rescale(A.unscale(x.entries))) == x
            for z in (x, x + A.involution(x)):
                m = [list(row) for row in A.unscale(z.entries)]
                assert A.is_symmetric(z) == (mat_theta_t(m) == m)
        assert A.involution(A.identity()) == A.identity()
        assert A.is_symmetric(A.phi_element())


def test_matrix_inverse_roundtrip(algebra_zoo):
    rng = random.Random(13)
    for A in algebra_zoo:
        found = 0
        while found < 8:
            x = _random_element(A, rng)
            try:
                xi = A.invert(x)
            except NotInvertible:
                continue
            assert A.multiply(x, xi) == A.identity()
            assert A.multiply(xi, x) == A.identity()
            found += 1
        with pytest.raises(NotInvertible):
            A.invert(A.zero())


def test_reduced_trace_values(ham):
    H = make_algebra(ham, 1)
    one, i, j, k = ham.basis()
    assert H.reduced_trace(H.element([[one]])).scalar_part().as_fraction() == 2
    assert H.reduced_trace(H.element([[i]])).is_zero
    # Trd(theta(i) * i) = Trd(-i*i) = Trd(-a) = -2a with a = -1
    x = H.element([[i]])
    v = H.reduced_trace(H.multiply(H.involution(x), x))
    assert v.scalar_part().as_fraction() == 2

    M2 = make_algebra(base_desc(QQ), 2)
    assert M2.reduced_trace(M2.identity()).scalar_part().as_fraction() == 2


def test_sym_dimension_by_enumeration(algebra_zoo):
    # solve sigma(x) = x coordinatewise over F and compare to the frozen
    # dimension formulas n(n+1)/2, n^2, n(2n-1) for base/quadratic/quaternion
    from hermsig.algebras import BASE, QUADRATIC, QUATERNION

    expected = {
        BASE: lambda n: n * (n + 1) // 2,
        QUADRATIC: lambda n: n * n,
        QUATERNION: lambda n: n * (2 * n - 1),
    }
    for A in algebra_zoo:
        dim = _sym_dimension(A)
        assert dim == expected[A.desc.kind](A.n)


def _sym_dimension(A):
    """Kernel dimension of x -> sigma(x) - x by row reduction over F."""
    field = A.field
    desc = A.desc
    basis = []
    for r in range(A.n):
        for c in range(A.n):
            for t in range(desc.dim):
                entries = [[desc.zero() for _ in range(A.n)] for _ in range(A.n)]
                comps = [field.zero()] * desc.dim
                comps[t] = field.one()
                entries[r][c] = DElement(desc, tuple(comps))
                basis.append(A.element(entries))
    dim_f = len(basis) * field.degree

    def flatten(x):
        out = []
        for row in x.entries:
            for e in row:
                for comp in e.comps:
                    out.extend(comp.coords)
        return out

    rows = []
    for bvec in basis:
        for p in range(field.degree):
            scaled = bvec * field.element(
                [1 if q == p else 0 for q in range(field.degree)]
            )
            diff = A.involution(scaled) - scaled
            rows.append(flatten(diff))
    # row reduce the transpose-free system: kernel dim = dim_f - rank
    mat = rows
    rank = 0
    cols = len(mat[0])
    pivot_col = 0
    r = 0
    while r < len(mat) and pivot_col < cols:
        piv = next((i for i in range(r, len(mat)) if mat[i][pivot_col] != 0), None)
        if piv is None:
            pivot_col += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][pivot_col]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][pivot_col] != 0:
                f = mat[i][pivot_col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        rank += 1
        r += 1
        pivot_col += 1
    # the map is F-linear, so its Q-kernel splits into degree many copies
    return (dim_f - rank) // field.degree


def test_division_check():
    minus1 = QQ.from_rational(-1)
    res = quaternion_division_check(QQ, minus1, minus1)
    assert res.status == "Division"
    res = quaternion_division_check(QQ, QQ.from_rational(1), QQ.from_rational(5))
    assert res.status == "Split"
    assert res.witness is not None and res.witness.norm().is_zero
    res = quaternion_division_check(QQ, QQ.from_rational(2), QQ.from_rational(3), bound=1)
    assert res.status in ("Unknown", "Split")
    with pytest.raises(ZeroElement):
        quaternion_division_check(QQ, QQ.zero(), minus1)


def test_extend_scalars_pushes_structure(ham):
    A = make_algebra(ham, 1)
    emb = embed_field(QQ, RT2, RT2.zero())
    AL = extend_scalars(A, emb)
    assert AL.field == RT2 and AL.desc.kind == "quaternion"
    x = A.element([[q_elt(ham, 1, 2, 3, 4)]])
    y = A.element([[q_elt(ham, 0, -1, 1, 2)]])
    px = push_algebra_element(x, emb, AL)
    py = push_algebra_element(y, emb, AL)
    assert push_algebra_element(A.multiply(x, y), emb, AL) == AL.multiply(px, py)
    assert push_algebra_element(A.involution(x), emb, AL) == AL.involution(px)


def test_split_everywhere_warning():
    import warnings as _warnings

    with pytest.warns(UserWarning, match="DNotDivisionAtAnyOrdering"):
        make_algebra(
            quaternion_desc(QQ, QQ.from_rational(1), QQ.from_rational(1)), 1
        )
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        make_algebra(
            quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1)), 1
        )
