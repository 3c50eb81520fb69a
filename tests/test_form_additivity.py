"""Signatures are additive on orthogonal sums and invariant under congruence.

Forms are held as orthogonal sums of Gram blocks and their signatures are
added up from per-block diagonals.  The reference here ignores the blocks:
it scales the whole dense Gram matrix on the left by Phi^(-1), flattens it
to a matrix over D and diagonalizes it in one congruence elimination.  The
forms are drawn over the nine standard algebras (Phi != I, quaternions, nil
orderings), with zero and singular diagonal entries allowed.  The star
pairing and the congruence transform, which the library also computes block
by block, are checked against dense computations built here from the
assembled Gram matrix.

Scaling leaves a central scalar pending on each block, so the scaled,
repeated, summed and tensored forms below are also compared with forms
whose blocks are multiplied out entry by entry here, and D-operations are
counted to show that the blocks are only multiplied when read.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import QUADRATIC, DElement, base_desc, mat_mul  # noqa: E402
from hermsig.hermitian import (  # noqa: E402
    HermitianForm,
    _parts,
    _star_gram_diagonal,
    congruence_transform,
    diagonal_form,
    diagonalize_hermitian,
    form_direct_sum,
    form_repeat,
    form_scale,
    form_tensor_qf,
    nil_orderings,
    signature,
    signature_vector,
    star_pairing_form,
)
from hermsig.orderings import list_orderings, sign_of  # noqa: E402
from hermsig.qforms import QuadraticForm, signature_qf  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402

ALGEBRAS = standard_algebras()


def reference(h):
    """Rank and per-ordering signatures from one dense diagonalization."""
    A = h.owner
    n = A.n
    k = h.dim
    flat = [[None] * (k * n) for _ in range(k * n)]
    for i, row in enumerate(h.gram):
        for j, e in enumerate(row):
            scaled = mat_mul(A._phi_inv, e.entries)
            for r in range(n):
                for c in range(n):
                    flat[i * n + r][j * n + c] = scaled[r][c]
    _, d = diagonalize_hermitian(A.desc, flat)
    nil = set(nil_orderings(A))
    sigs = tuple(
        0 if P in nil else sum(sign_of(x, P) for x in d)
        for P in list_orderings(A.field)
    )
    return sum(1 for x in d if not x.is_zero), sigs


def dense_congruence(h, G):
    """sigma(G)^t * gram * G over the whole dense Gram."""
    A = h.owner
    k = h.dim
    C = h.gram
    return [
        [
            sum(
                (
                    A.involution(G[a][i]) * C[a][b] * G[b][j]
                    for a in range(k)
                    for b in range(k)
                ),
                A.zero(),
            )
            for j in range(k)
        ]
        for i in range(k)
    ]


def trace_product_gram(C, b):
    """The Gram of (x, y) -> sum_ij Trd(sigma(x_i) C_ij y_j b) on A^k.

    Each entry is the reduced trace of a product built in full, over a basis
    of A as a center space: matrix units times a basis of D (times 1 only in
    the quadratic kind, where the center is F(sqrt d)).  Quaternion reduced
    traces are F-valued, so that Gram is returned over the base kind.
    """
    A = b.owner
    n = A.n
    d_basis = A.desc.basis()[: 1 if A.desc.kind == QUADRATIC else None]
    basis = []
    for r in range(n):
        for c in range(n):
            for t in d_basis:
                entries = [[A.desc.zero()] * n for _ in range(n)]
                entries[r][c] = t
                basis.append(A.element(entries))
    slots = [(i, e) for i in range(len(C)) for e in basis]
    zero = A.desc.zero()
    gram = [
        [
            zero
            if C[i][j].is_zero
            else A.reduced_trace(A.involution(e) * C[i][j] * f * b)
            for j, f in slots
        ]
        for i, e in slots
    ]
    desc = A.desc
    if desc.dim == 4:
        desc = base_desc(A.field)
        gram = [[DElement(desc, (x.scalar_part(),)) for x in row] for row in gram]
    return desc, gram


def dense_star_signatures(h, b):
    """Signatures of h * <b> from one Gram over all (slot, basis) pairs."""
    _, d = diagonalize_hermitian(*trace_product_gram(h.gram, b))
    return tuple(sum(sign_of(x, P) for x in d) for P in list_orderings(h.owner.field))


def invariants(h):
    return h.rank(), tuple(signature(h, P) for P in list_orderings(h.owner.field))


@st.composite
def field_elements(draw, field, height=2):
    return field.element(
        [draw(st.integers(-height, height)) for _ in range(field.degree)]
    )


@st.composite
def algebra_elements(draw, A, height=2):
    return A.element(
        [
            [
                DElement(
                    A.desc,
                    tuple(
                        draw(field_elements(A.field, height))
                        for _ in range(A.desc.dim)
                    ),
                )
                for _ in range(A.n)
            ]
            for _ in range(A.n)
        ]
    )


@st.composite
def symmetric_entries(draw, A):
    """x + sigma(x), the zero element, or sigma(E) s E with E = e_11."""
    shape = draw(st.sampled_from(["sum", "zero", "compressed"]))
    if shape == "zero":
        return A.zero()
    x = draw(algebra_elements(A))
    s = x + A.involution(x)
    if shape == "compressed":
        unit = [[A.desc.zero()] * A.n for _ in range(A.n)]
        unit[0][0] = A.desc.one()
        e = A.element(unit)
        s = A.involution(e) * s * e
    return s


@st.composite
def cases(draw):
    A = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    h1 = diagonal_form(A, draw(st.lists(symmetric_entries(A), min_size=1, max_size=2)))
    h2 = diagonal_form(A, draw(st.lists(symmetric_entries(A), min_size=1, max_size=2)))
    u = draw(field_elements(A.field, 3))
    ell = draw(st.integers(2, 3))
    # G = L U: unit lower triangular times upper triangular with nonzero
    # rational diagonal, hence invertible
    k = h1.dim + h2.dim
    lower = [[A.zero()] * k for _ in range(k)]
    upper = [[A.zero()] * k for _ in range(k)]
    for i in range(k):
        lower[i][i] = A.identity()
        upper[i][i] = A.identity() * draw(st.sampled_from([-2, -1, 1, 3]))
        for j in range(i + 1, k):
            lower[j][i] = draw(algebra_elements(A, 1))
            upper[i][j] = draw(algebra_elements(A, 1))
    G = [
        [sum((lower[i][t] * upper[t][j] for t in range(k)), A.zero()) for j in range(k)]
        for i in range(k)
    ]
    return h1, h2, u, ell, G


@settings(max_examples=60, deadline=None)
@given(cases())
def test_additivity_and_congruence_against_dense_reference(case):
    h1, h2, u, ell, G = case
    A = h1.owner
    orderings = list_orderings(A.field)
    total = form_direct_sum(h1, h2)
    scaled = form_scale(u, h1)
    repeated = form_repeat(ell, h1)
    moved = congruence_transform(total, G)
    assert [list(row) for row in moved.gram] == dense_congruence(total, G)
    for h in (h1, h2, total, scaled, repeated, moved):
        assert invariants(h) == reference(h)

    r1, s1 = invariants(h1)
    r2, s2 = invariants(h2)
    rt, sig_total = invariants(total)
    assert rt == r1 + r2
    assert sig_total == tuple(a + b for a, b in zip(s1, s2))
    rs, ss = invariants(scaled)
    assert rs == (0 if u.is_zero else r1)
    assert ss == tuple(sign_of(u, P) * v for P, v in zip(orderings, s1))
    rr, sr = invariants(repeated)
    assert (rr, sr) == (ell * r1, tuple(ell * v for v in s1))
    assert invariants(moved) == (rt, sig_total)


@st.composite
def star_cases(draw):
    A = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    h1 = diagonal_form(A, draw(st.lists(symmetric_entries(A), min_size=1, max_size=2)))
    h2 = diagonal_form(A, [draw(symmetric_entries(A))])
    return h1, h2, draw(symmetric_entries(A))


@settings(max_examples=25, deadline=None)
@given(star_cases())
def test_star_pairing_of_orthogonal_sum_against_dense_reference(case):
    h1, h2, b = case
    total = form_direct_sum(h1, h2)
    paired = star_pairing_form(total, b)
    assert paired.diag == star_pairing_form(h1, b).diag + star_pairing_form(h2, b).diag
    signatures = tuple(signature_qf(paired, P) for P in list_orderings(b.owner.field))
    assert signatures == dense_star_signatures(total, b)


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_star_gram_coordinates_match_trace_products(key, data):
    # the library reads each star-Gram entry off one coordinate of
    # Phi^(-1) C f b Phi; the same Gram from trace products, eliminated the
    # same way block by block, must give the same diagonal entry for entry
    A = ALGEBRAS[key]
    s1, s2, b = (data.draw(symmetric_entries(A)) for _ in range(3))
    x = data.draw(algebra_elements(A))
    h = HermitianForm(A, [[s1, x], [A.involution(x), s2]])
    expected = tuple(
        d
        for block in h.blocks
        for d in diagonalize_hermitian(*trace_product_gram(block, b))[1]
    )
    assert _star_gram_diagonal(h, b) == expected


def eager(block, *scalars):
    """The block with every entry multiplied by each scalar in turn."""
    for u in scalars:
        block = tuple(tuple(e * u for e in row) for row in block)
    return block


def unit_triangular(draw, A, k):
    """A unit upper triangular k x k matrix over A, hence invertible."""
    G = [[A.identity() if i == j else A.zero() for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            G[i][j] = draw(algebra_elements(A, 1))
    return G


@st.composite
def scaled_cases(draw):
    """(form built by the library, its blocks multiplied out here, G)."""
    A = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    F = A.field
    if draw(st.booleans()):
        h = diagonal_form(A, draw(st.lists(symmetric_entries(A), min_size=1, max_size=2)))
    else:
        x = draw(algebra_elements(A))
        s1, s2 = draw(symmetric_entries(A)), draw(symmetric_entries(A))
        h = HermitianForm(A, [[s1, x], [A.involution(x), s2]])
    other = diagonal_form(A, [draw(symmetric_entries(A))])
    u, v = (draw(field_elements(F, 3)) for _ in range(2))
    shape = draw(st.sampled_from(["nested", "repeat", "sum", "tensor"]))
    if shape == "nested":
        form = form_scale(u, form_scale(v, h))
        blocks = [eager(b, v, u) for b in h.blocks]
    elif shape == "repeat":
        form = form_repeat(2, form_scale(u, h))
        blocks = [eager(b, u) for b in h.blocks] * 2
    elif shape == "sum":
        scaled = form_scale(u, h)
        if draw(st.booleans()):
            form = form_direct_sum(scaled, other)
            blocks = [eager(b, u) for b in h.blocks] + list(other.blocks)
        else:
            form = form_scale(v, form_direct_sum(other, scaled))
            blocks = [eager(b, v) for b in other.blocks]
            blocks += [eager(b, u, v) for b in h.blocks]
    else:
        diag = draw(st.permutations([u, F.zero()]))
        form = form_tensor_qf(QuadraticForm(F, diag), form_scale(v, h))
        blocks = [eager(b, v, w) for w in diag for b in h.blocks]
    return form, tuple(blocks), unit_triangular(draw, A, form.dim), draw(symmetric_entries(A))


@settings(max_examples=60, deadline=None)
@given(scaled_cases())
def test_pending_scalars_match_blocks_multiplied_out(case):
    form, blocks, G, b = case
    reference = HermitianForm._of(form.owner, _parts(form.owner, blocks))
    # every reader that needs no block runs before the blocks are built
    assert form.dim == reference.dim
    assert form.is_diagonal() == reference.is_diagonal()
    assert form.rank() == reference.rank()
    assert form.flattened_diagonal() == reference.flattened_diagonal()
    assert signature_vector(form) == signature_vector(reference)
    assert star_pairing_form(form, b).diag == star_pairing_form(reference, b).diag
    assert form.blocks == blocks
    assert form.gram == reference.gram
    moved = congruence_transform(form, G)
    assert moved.gram == congruence_transform(reference, G).gram
    assert moved.flattened_diagonal() == congruence_transform(reference, G).flattened_diagonal()


@pytest.mark.parametrize("key", ["m2_ham", "m2_qq_phi", "rt2_nil_quat"])
def test_scaling_makes_no_d_operation_until_blocks_are_read(key, monkeypatch):
    A = ALGEBRAS[key]
    F = A.field
    phi, one = A.phi_element(), A.identity()
    h = HermitianForm(A, [[phi, one], [A.involution(one), phi * 3]])
    h = form_direct_sum(h, diagonal_form(A, [phi * -2]))
    u, v = F.from_rational(-3), F.element([1, 1][: F.degree])
    q = QuadraticForm(F, [u, F.zero(), v])
    calls = []
    for name in ("scale", "__mul__"):
        real = getattr(DElement, name)

        def counted(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(DElement, name, counted)
    forms = [form_scale(u, h), form_tensor_qf(q, h), form_repeat(3, form_scale(v, h))]
    forms.append(form_tensor_qf(q, form_repeat(2, forms[0])))
    forms.append(form_direct_sum(forms[1], h))
    for f in forms:
        f.dim, f.rank(), f.is_diagonal(), f.flattened_diagonal()
    assert calls == []
    forms[0].blocks
    assert calls
    calls.clear()
    forms[0].blocks
    assert calls == []
    forms[1].gram
    assert calls
