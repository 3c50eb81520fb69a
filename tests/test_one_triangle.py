"""`diagonalize_hermitian` against the two-triangle elimination it replaced.

The reference below updates column t and row t of the theta-hermitian
matrix at every pivot, each by its own products, exactly as the library did
before it computed one triangle of the Schur complement and wrote the other
as its theta-image.  Pivots come in the same order and every entry is the
same exact value, so (G, d) must be equal, not merely congruent.  Matrices
are drawn over the D of each of the nine standard algebras and over the
split quaternions (1, 1)_Q, with zero entries and zero diagonals, so the
off-diagonal pivot step runs too.  The same one-triangle test decides
`is_symmetric` on Phi^(-1) x and `HermitianForm`'s check of its unscaled,
flattened Gram; both are checked against building sigma.
"""

import warnings
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import DElement, mat_identity, quaternion_desc  # noqa: E402
from hermsig.errors import NotHermitian  # noqa: E402
from hermsig.hermitian import HermitianForm, diagonalize_hermitian  # noqa: E402
from hermsig.orderings import FieldElement, NumberField  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402


def reference_diagonalize(desc, B):
    """The two-triangle elimination: col_t += col_r c, row_t += theta(c) row_r."""
    ell = len(B)
    B = [list(row) for row in B]
    G = mat_identity(desc, ell)

    def col_row_op(t, r, c):
        cc = c.conj()
        for i in range(ell):
            v = B[i][r]
            if not v.is_zero:
                B[i][t] = B[i][t] + v * c
        for j in range(ell):
            v = B[r][j]
            if not v.is_zero:
                B[t][j] = B[t][j] + cc * v
        for i in range(ell):
            v = G[i][r]
            if not v.is_zero:
                G[i][t] = G[i][t] + v * c

    def swap(r, s):
        for i in range(ell):
            B[i][r], B[i][s] = B[i][s], B[i][r]
        B[r], B[s] = B[s], B[r]
        for i in range(ell):
            G[i][r], G[i][s] = G[i][s], G[i][r]

    diag = []
    for r in range(ell):
        if B[r][r].is_zero:
            s_diag = next((s for s in range(r + 1, ell) if not B[s][s].is_zero), None)
            if s_diag is not None:
                swap(r, s_diag)
            else:
                off = next(
                    (
                        (s, t)
                        for s in range(r, ell)
                        for t in range(s + 1, ell)
                        if not B[s][t].is_zero
                    ),
                    None,
                )
                if off is None:
                    diag.extend(desc.field.zero() for _ in range(r, ell))
                    break
                s, t = off
                beta = B[s][t]
                c = next(
                    cand
                    for cand in desc.basis()
                    if not (beta * cand + (beta * cand).conj()).is_zero
                )
                col_row_op(s, t, c)
                if s != r:
                    swap(r, s)
        pval = B[r][r].scalar_part()
        pinv = pval.inverse()
        for t in range(r + 1, ell):
            if not B[r][t].is_zero:
                col_row_op(t, r, -(B[r][t] * pinv))
        diag.append(pval)
    return [tuple(row) for row in G], tuple(diag)


def _algebras():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return standard_algebras()


ALGEBRAS = _algebras()


def _descs():
    descs = {key: A.desc for key, A in ALGEBRAS.items()}
    QQ = NumberField([0, 1])
    one = QQ.from_rational(1)
    descs["split_1_1"] = quaternion_desc(QQ, one, one)
    return descs


DESCS = _descs()

# mostly small integers, with zeros common enough to empty whole diagonals
COMPONENT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2])),
)


@st.composite
def hermitian_matrices(draw):
    key = draw(st.sampled_from(sorted(DESCS)))
    desc = DESCS[key]
    field = desc.field

    def field_element():
        return field.element([draw(COMPONENT) for _ in range(field.degree)])

    def d_element():
        if draw(st.integers(0, 2)) == 0:
            return desc.zero()
        return DElement(desc, tuple(field_element() for _ in range(desc.dim)))

    ell = draw(st.integers(1, 4))
    zero_diagonal = draw(st.booleans())
    B = [[None] * ell for _ in range(ell)]
    for i in range(ell):
        B[i][i] = desc.zero() if zero_diagonal else desc.from_field(field_element())
        for j in range(i + 1, ell):
            B[i][j] = d_element()
            B[j][i] = B[i][j].conj()
    return key, desc, B


@settings(max_examples=200, deadline=None)
@given(hermitian_matrices())
def test_one_triangle_matches_the_two_triangle_elimination(case):
    key, desc, B = case
    assert diagonalize_hermitian(desc, B) == reference_diagonalize(desc, B), key


def _count_inverses(monkeypatch):
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(hermitian_matrices())
def test_pivots_are_inverted_only_when_used(case):
    key, desc, B = case
    expected = reference_diagonalize(desc, B)
    diagonal = [[e if i == j else desc.zero() for j, e in enumerate(row)] for i, row in enumerate(B)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_inverses(monkeypatch)
        result = diagonalize_hermitian(desc, B)
        used = len(calls)
        diagonalize_hermitian(desc, diagonal)
    assert result == expected, key
    # the last pivot has no later column, so at most ell - 1 inverses
    assert used <= len(B) - 1
    # a diagonal input has no later column at any pivot
    assert len(calls) == used


def test_a_dense_matrix_inverts_each_pivot_but_the_last(monkeypatch):
    desc = DESCS["qq_ham"]
    one = desc.one()
    beta = DElement(desc, tuple(desc.field.from_rational(c) for c in (1, -1, 2, 1)))
    ell = 4
    # diagonal dominance keeps every pivot nonzero and every later entry too
    B = [
        [one * 20 if i == j else (beta if i < j else beta.conj()) for j in range(ell)]
        for i in range(ell)
    ]
    expected = reference_diagonalize(desc, B)
    calls = _count_inverses(monkeypatch)
    assert diagonalize_hermitian(desc, B) == expected
    assert len(calls) == ell - 1


@st.composite
def algebra_elements(draw, A):
    """A random element, a symmetric one, or a symmetric one with a lower entry moved."""
    desc, field = A.desc, A.field

    def d_element():
        return DElement(
            desc,
            tuple(
                field.element([draw(COMPONENT) for _ in range(field.degree)])
                for _ in range(desc.dim)
            ),
        )

    x = A.element([[d_element() for _ in range(A.n)] for _ in range(A.n)])
    shape = draw(st.sampled_from(["random", "symmetric", "perturbed"]))
    if shape != "random":
        x = x + A.involution(x)
    if shape == "perturbed":
        # below the diagonal when there is one, else the lone entry
        i = draw(st.integers(min(1, A.n - 1), A.n - 1))
        j = draw(st.integers(0, max(i - 1, 0)))
        delta = d_element()
        entries = [list(row) for row in x.entries]
        entries[i][j] = entries[i][j] + (desc.one() if delta.is_zero else delta)
        x = A.element(entries)
    return shape, x


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_is_symmetric_matches_the_involution(key):
    # sigma(x) = x exactly when Phi^(-1) x is theta-hermitian
    A = ALGEBRAS[key]

    @settings(max_examples=40, deadline=None)
    @given(algebra_elements(A))
    def check(case):
        shape, x = case
        symmetric = x == A.involution(x)
        assert A.is_symmetric(x) == symmetric, shape
        if shape == "symmetric":
            assert symmetric

    check()


def test_is_symmetric_reads_phi():
    # over M_2(Q) with Phi = diag(1, -1), sigma(x) = Phi x^t Phi, so the
    # symmetric elements are [[a, b], [-b, c]], not the symmetric matrices
    A = ALGEBRAS["m2_qq_phi"]
    F = A.desc.field

    def m2(rows):
        return A.element([[A.desc.from_field(F.from_rational(c)) for c in row] for row in rows])

    assert A.is_symmetric(m2([[1, 2], [-2, 3]]))
    assert not A.is_symmetric(m2([[1, 2], [2, 3]]))
    assert A.is_symmetric(A.phi_element())


@st.composite
def gram_matrices(draw, A):
    """A 2 x 2 Gram over A: hermitian, hermitian with one entry moved, or random."""
    a, b, c, d = (draw(algebra_elements(A))[1] for _ in range(4))
    shape = draw(st.sampled_from(["hermitian", "perturbed", "random"]))
    if shape == "random":
        return shape, [[a, b], [c, d]]
    gram = [[a + A.involution(a), b], [A.involution(b), c + A.involution(c)]]
    if shape == "perturbed":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        gram[i][j] = gram[i][j] + (A.identity() if d.is_zero else d)
    return shape, gram


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_hermitian_form_raises_exactly_when_sigma_disagrees(key):
    # a Gram is hermitian when g_ij = sigma(g_ji) for all i, j; the form
    # tests Phi^(-1) g_ij = theta(Phi^(-1) g_ji)^t on one flattened triangle
    A = ALGEBRAS[key]

    @settings(max_examples=25, deadline=None)
    @given(gram_matrices(A))
    def check(case):
        shape, gram = case
        hermitian = all(A.involution(gram[j][i]) == gram[i][j] for i in range(2) for j in range(2))
        if shape == "hermitian":
            assert hermitian
        if hermitian:
            HermitianForm(A, gram)
        else:
            with pytest.raises(NotHermitian):
                HermitianForm(A, gram)

    check()
