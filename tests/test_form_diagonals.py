"""Each hermitian form is made together with its block diagonals.

Building a form unscales each Gram entry once, by Phi^(-1), and eliminates
each block once; that elimination is the form's hermitian test, so a
non-hermitian Gram raises NotHermitian from it, over every standard algebra,
and raises again when the same coordinates come back (only hermitian blocks
are memoized).  The trace transfer reads the form's own diagonal: over
(D, theta) with Phi = (phi), phi a central scalar, the raw Gram's diagonal is
phi times the unscaled one.  The reference below eliminates the raw 1 x 1
entries of each block itself, over the five n = 1 kinds with phi != 1, on
diagonal Grams and on congruence transforms of them.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig.algebras import (  # noqa: E402
    BASE,
    QUADRATIC,
    DElement,
    base_desc,
    make_algebra,
    quadratic_desc,
    quaternion_desc,
)
from hermsig.cones import cone_membership, list_positive_cones  # noqa: E402
from hermsig.errors import FieldMismatch, NotHermitian  # noqa: E402
from hermsig.hermitian import (  # noqa: E402
    HermitianForm,
    congruence_transform,
    diagonal_form,
    diagonalize_hermitian,
    signature,
    trace_transfer,
)
from hermsig.orderings import NumberField, list_orderings, sign_of  # noqa: E402
from hermsig.qforms import QuadraticForm, tensor  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402
from hermsig.wittideal import ZWitness, find_Z_witness  # noqa: E402

ALGEBRAS = standard_algebras()


def test_a_two_by_two_gram_is_unscaled_once(monkeypatch):
    # over M_2(Q) with Phi = diag(1, -1) the symmetric elements are
    # [[a, b], [-b, c]]; a non-diagonal 2 x 2 Gram is one block of four
    # entries, each unscaled once, by the elimination that also tests it
    A = standard_algebras()["m2_qq_phi"]
    F = A.field

    def m2(rows):
        return A.element([[A.desc.from_field(F.from_rational(c)) for c in row] for row in rows])

    x = m2([[1, 2], [3, -1]])
    gram = [[m2([[2, 1], [-1, 5]]), x], [A.involution(x), m2([[-3, 0], [0, 1]])]]
    calls = []
    real = A.unscale

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(A, "unscale", counting)
    h = HermitianForm(A, gram)
    assert len(h.blocks) == 1 and len(calls) == 4
    # the signature reads the diagonal made with the form
    signature(h, list_orderings(F)[0])
    assert len(calls) == 4


def test_a_diagonal_entry_is_unscaled_once(monkeypatch):
    # the elimination of <x> is the entry's symmetry test, so a fresh entry
    # is unscaled once, as `is_unit` unscales it
    A = standard_algebras()["m2_qq_phi"]
    F = A.field

    def m2(rows):
        return A.element([[A.desc.from_field(F.from_rational(c)) for c in row] for row in rows])

    calls = []
    real = A.unscale

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(A, "unscale", counting)
    h = diagonal_form(A, [m2([[2, 1], [-1, 5]])])
    assert len(calls) == 1 and h.rank() == 2
    # a non-symmetric entry keeps its message, and an entry of another
    # algebra is rejected before any elimination
    with pytest.raises(NotHermitian, match="diagonal entry is not symmetric"):
        diagonal_form(A, [m2([[2, 1], [1, 5]])])
    other = make_algebra(A.desc, A.n, A.phi)
    with pytest.raises(FieldMismatch):
        diagonal_form(A, [m2([[2, 1], [1, 5]]), other.identity()])


def _non_symmetric(A):
    """E_ij t for the first basis element t of D that is not symmetric, or None."""
    desc = A.desc
    for i in range(A.n):
        for j in range(A.n):
            for t in desc.basis():
                x = A.element([[t if (r, c) == (i, j) else desc.zero() for c in range(A.n)] for r in range(A.n)])
                if not A.is_symmetric(x):
                    return x
    return None


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_only_one_entry_blocks_keep_their_transform(key):
    # cone membership reads G of <b> only; a k-entry block's key holds
    # (k n)^2 coordinates and its memo entry keeps d alone
    A = ALGEBRAS[key]
    A._diagonal_memo.clear()
    phi, one = A.phi_element(), A.identity()
    h = HermitianForm(A, [[phi, one], [A.involution(one), phi * 3]])
    h = congruence_transform(h, [[one, one], [A.zero(), one]])
    diagonal_form(A, [phi * -2])
    kept = {len(k): G is not None for k, (G, d) in A._diagonal_memo.items()}
    assert kept == {A.n**2: True, 4 * A.n**2: False}
    member, witness = cone_membership(phi * 2, list_positive_cones(A)[0])
    assert member and witness.transform is not None


@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_a_non_hermitian_gram_raises_from_the_elimination(key):
    A = ALGEBRAS[key]
    one, zero = A.identity(), A.zero()
    # g_01 = 1 but g_10 = 0: one non-diagonal block that is not hermitian
    grams = [[[one, one], [zero, one]]]
    x = _non_symmetric(A)
    if x is None:
        # only (F, id) at n = 1 has every element symmetric
        assert A.desc.kind == BASE and A.n == 1
    else:
        # a diagonal Gram: one symmetric block, then one that is not
        grams.append([[one, zero], [zero, x]])
    for gram in grams:
        for _ in range(2):
            # the same coordinates built again are tested again
            with pytest.raises(NotHermitian):
                HermitianForm(A, [[A.element(e.entries) for e in row] for row in gram])
    # an entry of another algebra is rejected before the hermitian test
    other = make_algebra(A.desc, A.n, A.phi)
    with pytest.raises(FieldMismatch):
        HermitianForm(A, [[one, one], [zero, other.identity()]])


QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])
_QQ_DESCS = [
    base_desc(QQ),
    quadratic_desc(QQ, QQ.from_rational(-1)),
    quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1)),
]
_RT2_DESCS = [
    quadratic_desc(RT2, RT2.generator()),
    quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator()),
]
# the five n = 1 kinds, each with Phi = (phi) for phi in {2, -3}, and the
# two over Q(sqrt 2) with phi = 1 + sqrt 2 as well
DIVISION_ALGEBRAS = [
    make_algebra(desc, 1, [[desc.from_field(phi)]])
    for desc in _QQ_DESCS + _RT2_DESCS
    for phi in (desc.field.from_rational(2), desc.field.from_rational(-3))
] + [make_algebra(desc, 1, [[desc.from_field(RT2.one() + RT2.generator())]]) for desc in _RT2_DESCS]


def raw_diagonal(h):
    """The raw, not Phi-unscaled, 1 x 1 entries of each block, eliminated over D."""
    return tuple(
        x
        for block in h.blocks
        for x in diagonalize_hermitian(h.owner.desc, [[e.entries[0][0] for e in row] for row in block])[1]
    )


def reference_transfer(A, diag) -> QuadraticForm:
    """<1, -d> or <1, -a, -b, ab> tensor the diagonal, as a quadratic form over F."""
    F, desc = A.field, A.desc
    q = QuadraticForm(F, diag)
    if desc.kind == BASE:
        return q
    if desc.kind == QUADRATIC:
        return tensor(QuadraticForm(F, [F.one(), -desc.d]), q)
    return tensor(QuadraticForm(F, [F.one(), -desc.a, -desc.b, desc.a * desc.b]), q)


@st.composite
def division_forms(draw, balanced: bool):
    """A form over one of DIVISION_ALGEBRAS: diagonal, or sigma(G)^t C G for unitriangular G."""
    A = draw(st.sampled_from(DIVISION_ALGEBRAS))
    if balanced:
        # as many entries > 0 as < 0, all rational: signature 0 everywhere
        pos = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
        neg = draw(st.lists(st.integers(1, 6), min_size=len(pos), max_size=len(pos)))
        entries = [v for pair in zip(pos, neg) for v in (pair[0], -pair[1])]
    else:
        entries = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    h = diagonal_form(A, entries)
    if draw(st.booleans()):
        desc, F = A.desc, A.field
        k = len(entries)

        def d_element():
            coords = draw(st.lists(st.integers(-2, 2), min_size=desc.dim * F.degree, max_size=desc.dim * F.degree))
            return DElement(desc, tuple(F.element(coords[i : i + F.degree]) for i in range(0, len(coords), F.degree)))

        G = [
            [A.element([[desc.one() if i == j else d_element() if i < j else desc.zero()]]) for j in range(k)]
            for i in range(k)
        ]
        h = congruence_transform(h, G)
    return h


@settings(max_examples=60, deadline=None)
@given(division_forms(balanced=False))
def test_trace_transfer_reads_the_raw_diagonal(h):
    assert trace_transfer(h) == reference_transfer(h.owner, raw_diagonal(h))


@settings(max_examples=40, deadline=None)
@given(division_forms(balanced=True))
def test_z_witness_entries_are_the_raw_diagonal(h):
    # at n = 1 the direct split uses the raw diagonal's entries: those in
    # the + cone as members, the others negated as antimembers
    A = h.owner
    cone = list_positive_cones(A)[0]
    P = cone.ordering
    phi = A.phi[0][0].scalar_part()
    members, antimembers = [], []
    for x in raw_diagonal(h):
        if sign_of(x, P) * sign_of(phi, P) > 0:
            members.append(A.scalar(x))
        else:
            antimembers.append(A.scalar(-x))
    w = find_Z_witness(h, cone)
    assert isinstance(w, ZWitness)
    assert w.a_list == tuple(members) and w.b_list == tuple(antimembers)
