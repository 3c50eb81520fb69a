"""Signatures of rational symmetric matrices against sympy.

sympy is a test-only oracle: it builds the characteristic polynomial
chi(x) = det(x I - M).  Every root of chi is real, so Descartes' rule of
signs is exact: the sign changes in the coefficients of chi count the
positive eigenvalues and those of chi(-x) the negative ones.  No hermsig
code is involved in the expected value, which keeps these checks
independent of the congruence diagonalization they test.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import (  # noqa: E402
    base_desc,
    make_algebra,
    quaternion_desc,
)
from hermsig.hermitian import (  # noqa: E402
    diagonal_form,
    diagonalize_hermitian,
    random_symmetric_unit,
    signature,
)
from hermsig.orderings import NumberField, list_orderings, sign_of  # noqa: E402

QQ = NumberField([0, 1])
BQQ = base_desc(QQ)
HAM = quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1))
P = list_orderings(QQ)[0]
X = sympy.Symbol("x")


def charpoly_signature(rows) -> int:
    """Positive minus negative eigenvalues of a rational symmetric matrix."""
    M = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
    )
    chi = M.charpoly(X)

    def sign_changes(poly):
        signs = [c > 0 for c in poly.all_coeffs() if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(chi) - sign_changes(chi.compose(sympy.Poly(-X, X)))


def test_charpoly_signature_examples():
    assert charpoly_signature([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == 0
    assert charpoly_signature([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]) == 1
    assert charpoly_signature([[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(-1, 3)]]) == -2


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 4))
    upper = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    it = iter(upper)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
def test_base_kind_signature_against_charpoly(rows):
    # a quadratic form over QQ is a hermitian form over (QQ, id), and a form
    # on M_n(QQ) with the transpose is the same rational symmetric matrix
    n = len(rows)
    expected = charpoly_signature(rows)
    lifted = [[BQQ.from_field(QQ.from_rational(v)) for v in row] for row in rows]
    _, d = diagonalize_hermitian(BQQ, lifted)
    assert sum(sign_of(x, P) for x in d) == expected
    A = make_algebra(BQQ, n)
    assert signature(diagonal_form(A, [A.element(lifted)]), P) == expected


def test_quaternion_matrix_signature_against_trace_form():
    # the rational trace form of theta(x)^t b x on D^n has four times the
    # signature of <b>
    A = make_algebra(HAM, 2)
    basis = HAM.basis()
    rng = random.Random(5151)
    n = 2
    for _ in range(10):
        b = random_symmetric_unit(A, rng, 2)
        vecs = []
        for r in range(n):
            for w in basis:
                v = [HAM.zero()] * n
                v[r] = w
                vecs.append(v)

        def qval(x, y):
            acc = HAM.zero()
            for i in range(n):
                for j in range(n):
                    acc = acc + x[i].conj() * b.entries[i][j] * y[j]
            return acc

        gram = []
        for u in vecs:
            row = []
            for v in vecs:
                z = qval(u, v) + qval(v, u)
                assert z.is_scalar
                row.append(z.scalar_part().as_fraction() / 2)
            gram.append(row)
        assert charpoly_signature(gram) == 4 * signature(diagonal_form(A, [b]), P)
