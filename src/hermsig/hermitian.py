"""Hermitian forms over (A, sigma) and their signatures at orderings.

`diagonalize_hermitian` is the library's one elimination over D.  It works
over any (D, theta); a quadratic form over F is the hermitian form over the
base kind (F, id), for which hermitian means symmetric, so Gram matrices of
quadratic forms (the first-kind star pairing) are diagonalized here as
well, and so are theta(x)^t x when `algebras.unit_congruence` tests x and
Phi when an algebra inverts it.  It tests hermitian-ness once, on one
triangle of its input (`algebras.is_theta_hermitian`), and that test is
also the cones' symmetry test, `is_symmetric`'s, and `HermitianForm`'s on
each of its unscaled and flattened Gram blocks.
Each Schur complement is theta-hermitian, so the elimination computes its
lower triangle and mirrors the upper one by theta, and it inverts a pivot
only when a later column needs the inverse.

A `HermitianForm` is an orthogonal sum of parts.  A part is a square Gram
block over A, a pending scalar in F or None, and the block's diagonal:
diagonal forms have one one-entry part per entry, and direct sums,
scalings, repeats and tensors with diagonal quadratic forms combine parts
instead of building a dense Gram matrix.  Every computation on a form reads
its parts: signatures (the diagonals), the star pairing (one star Gram per
block, each entry read off one coordinate of a product, no trace products),
the congruence transform (a sum over nonzero block entries) and the trace
transfer (read off the form's diagonal).  The dense `gram` is only an
assembled view for reports.  A new block's diagonal is made with its part,
in two explicit steps: unscale each entry by Phi^(-1) with the algebra's
`unscale`, then flatten the m x m matrix over M_n(D) to an mn x mn
theta-hermitian matrix over D and diagonalize it by congruence, which is
also the block's hermitian test.  Block congruences are memoized on the
algebra, (G, d) for one-entry blocks, which cone membership reads for <b>,
and d alone for larger blocks.  Sums and repeats of forms concatenate the
parts of their summands.  Scaling a form by u in F (<u> tensor h, and
q tensor h entry by entry) maps each part (B, v, d) to (B, v u, u d), with
u alone when v is None: the diagonal is scaled now, and the scaled block
is built only when something reads `blocks`.  With the reference form
fixed as the one-dimensional form on Phi itself, the scaling sends the
reference to the identity matrix, so no further sign normalization is
needed: the signature at a non-nil ordering is the count of positive minus
negative entries over all the parts' diagonals, which is the additivity of
the signature on orthogonal sums.  At nil orderings
(`algebras.nil_orderings`) every signature is zero.

The same memoized diagonal decides whether a symmetric x is a unit
(`is_unit`: no zero in the diagonal of <x>), over every D, split quaternions
included; the star pairing, the unit sampler, the Sylvester reduction and
the cone-equality criterion ask it, and nothing is inverted to decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatch,
    NilOrdering,
    NotHermitian,
    NotInvertible,
    NotSymmetric,
)
from .algebras import (
    BASE,
    QUADRATIC,
    QUATERNION,
    SYMMETRIC_HEIGHT,
    AlgebraElement,
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    base_desc,
    is_theta_hermitian,
    mat_identity,
    mat_theta_t,
    nil_orderings,
    random_d_matrix,
)
from .orderings import FieldElement, OrderingHandle, list_orderings, sign_of
from .qforms import QuadraticForm, tensor


# ---------------------------------------------------------------------------
# hermitian congruence diagonalization over (D, theta)


def diagonalize_hermitian(desc: DivisionAlgebraDesc, B):
    """Congruence diagonalization of a theta-hermitian matrix over D.

    Returns (G, d) with theta(G)^t B G = diag(d); the entries d_i lie in
    Sym(D, theta) = F.  B is hermitian when B[j][i] = theta(B[i][j]) for
    i <= j, which is tested on that one triangle (on the base kind, off the
    diagonal only) and raises NotHermitian at the first mismatch.  Pivots
    are always field scalars because hermitian diagonal entries have no
    non-identity components, so this works even when D has zero divisors.
    At pivot p = B[r][r], each later column t with B[r][t] nonzero gets
    c_t = -B[r][t] p^(-1), with p inverted at the first such column and not
    at all when there is none; the Schur complement is hermitian, so only
    its lower triangle is computed, B[i][t] += B[i][r] c_t for i >= t, and
    B[t][i] is written as theta(B[i][t]).  Row and column r are then zero.
    When every remaining diagonal entry is zero but some off-diagonal entry
    beta is not, a column of the off-diagonal pair is added, with the
    matching row, with a basis multiplier c chosen so that the new diagonal
    entry beta*c + theta(beta*c) is a nonzero field element.
    """
    ell = len(B)
    if any(len(row) != ell for row in B):
        raise NotHermitian("matrix is not square")
    if not is_theta_hermitian(desc, B):
        raise NotHermitian()
    B = [list(row) for row in B]
    # theta is the identity on the base kind, so a mirror is the entry itself
    mirror = desc.kind != BASE
    G = mat_identity(desc, ell)

    def col_row_op(t, r, c):
        # col_t += col_r * c and row_t += theta(c) * row_r, both triangles
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

    field = desc.field
    zero = desc.zero()
    diag: list[FieldElement] = []
    for r in range(ell):
        if B[r][r].is_zero:
            s_diag = next(
                (s for s in range(r + 1, ell) if not B[s][s].is_zero), None
            )
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
                    diag.extend(field.zero() for _ in range(r, ell))
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
        pivot = B[r][r]
        if not pivot.is_scalar:
            raise AssertionError("hermitian diagonal entry is not central")
        pval = pivot.scalar_part()
        pinv = None
        row_r = B[r]
        for t in range(r + 1, ell):
            if row_r[t].is_zero:
                continue
            if pinv is None:
                pinv = pval.inverse()
            c = -(row_r[t] * pinv)
            row_t = B[t]
            for i in range(t, ell):
                row_i = B[i]
                v = row_i[r]
                if not v.is_zero:
                    x = row_i[t] + v * c
                    row_i[t] = x
                    if i != t:
                        row_t[i] = x.conj() if mirror else x
            for row in G:
                v = row[r]
                if not v.is_zero:
                    row[t] = row[t] + v * c
        # the off-diagonal pivot step reads whole rows and columns
        for t in range(r + 1, ell):
            row_r[t] = B[t][r] = zero
        diag.append(pval)
    return [tuple(row) for row in G], tuple(diag)


# ---------------------------------------------------------------------------
# block flattening: M_k(M_n(D)) -> M_kn(D)


def flatten_blocks(A: AlgebraWithInvolution, blocks):
    """The k x k matrix of n x n matrices over D as one kn x kn matrix."""
    return [[x for m in row for x in m[r]] for row in blocks for r in range(A.n)]


def _block_congruence(A: AlgebraWithInvolution, block):
    """(G, d) of one Gram block, unscaled by Phi^(-1) and flattened.

    The elimination tests the block hermitian and raises NotHermitian.
    Memoized on the algebra by the block's coordinates, so a block that
    recurs (a reused sample, a cone member rebuilt with its sign, the same
    element asked about at another cone) is diagonalized once per algebra;
    only hermitian blocks are memoized.  G is kept for one-entry blocks
    only, which is all cone membership reads; a k-entry block memoizes
    (None, d).  A key holds (k n)^2 coordinates, so within one algebra its
    length fixes k and the two kinds of entry never share a key.  G and d
    are shared by every caller and never changed.
    """
    key = tuple(
        (x.nums, x.den)
        for row in block
        for e in row
        for entry_row in e.entries
        for x in entry_row
    )
    found = A._diagonal_memo.get(key)
    if found is None:
        unscaled = [[A.unscale(e.entries) for e in row] for row in block]
        G, d = diagonalize_hermitian(A.desc, flatten_blocks(A, unscaled))
        found = (G if len(block) == 1 else None, d)
        A._diagonal_memo[key] = found
    return found


# ---------------------------------------------------------------------------
# forms


def _parts(owner: AlgebraWithInvolution, blocks) -> tuple:
    """Unscaled parts (block, None, diagonal) on new, unchecked blocks.

    Each block is eliminated through `_block_congruence`, which is also its
    hermitian test.
    """
    return tuple((b, None, _block_congruence(owner, b)[1]) for b in blocks)


class HermitianForm:
    """A hermitian form over (A, sigma), held as an orthogonal sum of parts.

    A part is a triple (block, scalar, diagonal).  The block is a square
    Gram matrix over A, and the form's Gram matrix is the block-diagonal sum
    of the parts' blocks, each times its scalar.  A diagonal Gram splits
    into one block per entry; any other Gram given here is one block.  The
    scalar is a central u in F still pending on the stored block, or None;
    the diagonal is the block's congruence diagonal, already scaled by u,
    made with the part.  `blocks` multiplies the pending scalars out on its
    first read and keeps the result; signatures, ranks, `dim` and
    `is_diagonal` read the parts alone and build no block.  `gram` only
    assembles the dense view for callers that print or compare whole Grams.
    """

    __slots__ = ("owner", "_parts", "_blocks")

    def __init__(self, owner: AlgebraWithInvolution, gram):
        gram = tuple(tuple(row) for row in gram)
        k = len(gram)
        if any(len(row) != k for row in gram):
            raise NotHermitian("Gram matrix is not square")
        if any(e.owner is not owner for row in gram for e in row):
            raise FieldMismatch()
        if all(gram[i][j].is_zero for i in range(k) for j in range(k) if i != j):
            blocks = tuple(((row[i],),) for i, row in enumerate(gram))
        else:
            blocks = (gram,)
        # g_ij = sigma(g_ji) exactly when Phi^(-1) g_ij = theta(Phi^(-1) g_ji)^t,
        # so each block's elimination is its hermitian test
        self.owner = owner
        self._parts = _parts(owner, blocks)
        self._blocks = None

    @classmethod
    def _of(cls, owner, parts: tuple) -> "HermitianForm":
        """The form on already-made parts."""
        h = cls.__new__(cls)
        h.owner = owner
        h._parts = parts
        h._blocks = None
        return h

    @property
    def blocks(self):
        """The Gram blocks, each times its pending scalar, built once."""
        if self._blocks is None:
            self._blocks = tuple(
                b if u is None else tuple(tuple(e * u for e in row) for row in b)
                for b, u, _ in self._parts
            )
        return self._blocks

    @property
    def dim(self) -> int:
        return sum(len(b) for b, _, _ in self._parts)

    @property
    def gram(self):
        """The dense Gram matrix, assembled from the blocks."""
        zero = self.owner.zero()
        k = self.dim
        rows = []
        for b in self.blocks:
            left = len(rows)
            pad = k - left - len(b)
            rows.extend((zero,) * left + row + (zero,) * pad for row in b)
        return tuple(rows)

    def flattened_diagonal(self) -> tuple[FieldElement, ...]:
        """Diagonal of the scaled and flattened form.

        The flattened Gram is block diagonal, so it is the concatenation of
        the parts' diagonals.
        """
        return tuple(x for _, _, d in self._parts for x in d)

    def rank(self) -> int:
        return sum(1 for d in self.flattened_diagonal() if not d.is_zero)

    @property
    def is_nonsingular(self) -> bool:
        return self.rank() == self.dim * self.owner.n

    def is_diagonal(self) -> bool:
        # a nonzero scalar keeps every zero and nonzero entry; a zero one
        # makes the whole block zero
        return all(
            (u is not None and u.is_zero)
            or all(
                b[i][j].is_zero
                for i in range(len(b))
                for j in range(len(b))
                if i != j
            )
            for b, u, _ in self._parts
        )

    def __repr__(self) -> str:
        return f"HermitianForm<{self.dim} over n={self.owner.n}>"


def diagonal_form(A: AlgebraWithInvolution, entries) -> HermitianForm:
    """The diagonal form on the given symmetric entries, one block each."""
    elems = []
    for e in entries:
        if isinstance(e, (int, Fraction)):
            e = A.field.from_rational(e)
        if isinstance(e, FieldElement):
            e = A.scalar(e)
        else:
            A._own(e)
        elems.append(e)
    # e is symmetric exactly when Phi^(-1) e is theta-hermitian, which the
    # elimination of its one-entry block tests
    try:
        return HermitianForm._of(A, _parts(A, [((e,),) for e in elems]))
    except NotHermitian:
        raise NotHermitian("diagonal entry is not symmetric") from None


def form_direct_sum(h1: HermitianForm, h2: HermitianForm) -> HermitianForm:
    if h1.owner is not h2.owner:
        raise FieldMismatch()
    return HermitianForm._of(h1.owner, h1._parts + h2._parts)


def form_scale(u: FieldElement, h: HermitianForm) -> HermitianForm:
    """The form <u> tensor h.

    u is central and fixed by the involution, so
    theta(G)^t (u B) G = u theta(G)^t B G: the diagonals are scaled by u
    now, and each block only gains u as a pending scalar, composed with the
    one it has (v, then u, gives v u).  No block entry is multiplied until
    `blocks` is read.
    """
    return form_tensor_qf(QuadraticForm(h.owner.field, (u,)), h)


def form_tensor_qf(q: QuadraticForm, h: HermitianForm) -> HermitianForm:
    """The orthogonal sum of <u> tensor h over q's entries u; empty if q is.

    The parts of h, repeated once per entry u, each with its pending
    scalar composed with u and its diagonal scaled by u; the block entries
    are not copied or multiplied.
    """
    if q.owner != h.owner.field:
        raise FieldMismatch()
    return HermitianForm._of(
        h.owner,
        tuple(
            (b, u if v is None else v * u, tuple(x * u for x in d))
            for u in q.diag
            for b, v, d in h._parts
        ),
    )


def form_repeat(ell: int, h: HermitianForm) -> HermitianForm:
    """Orthogonal sum of ell copies of h, sharing its parts."""
    return HermitianForm._of(h.owner, h._parts * ell)


def _entry_form(x: AlgebraElement) -> HermitianForm:
    """The one-dimensional form <x> on an x already known to be symmetric."""
    return HermitianForm._of(x.owner, _parts(x.owner, [((x,),)]))


def is_unit(x: AlgebraElement) -> bool:
    """Whether x, which the caller has checked symmetric, is invertible in A.

    theta(G)^t Phi^(-1) x G = diag(d) with G invertible, so x is a unit
    exactly when the memoized diagonal d of <x> has no zero.
    """
    return _entry_form(x).is_nonsingular


def congruence_transform(h: HermitianForm, G) -> HermitianForm:
    """The form with Gram sigma(G)^t * C * G for G over A, as one block.

    C is the block-diagonal sum of h's blocks, so the triple products run
    over the blocks' nonzero entries C_ab only.
    """
    A = h.owner
    k = h.dim
    Gs = [[A.involution(G[j][i]) for j in range(k)] for i in range(k)]
    prod = [[A.zero()] * k for _ in range(k)]
    offset = 0
    for block in h.blocks:
        for a, row in enumerate(block, offset):
            for b, c in enumerate(row, offset):
                if c.is_zero:
                    continue
                for i in range(k):
                    left = Gs[i][a] * c
                    if not left.is_zero:
                        prod[i] = [p + left * g for p, g in zip(prod[i], G[b])]
        offset += len(block)
    return HermitianForm._of(A, _parts(A, [tuple(tuple(row) for row in prod)]))


# ---------------------------------------------------------------------------
# local degrees, signatures


@dataclass(frozen=True)
class LocalDegree:
    value: int
    nil: bool


def local_degree_nP(A: AlgebraWithInvolution, P: OrderingHandle) -> LocalDegree:
    """Matrix size of A at the real closure of P, with a nil flag."""
    nil = P in nil_orderings(A)
    if A.desc.kind == QUATERNION and nil:
        return LocalDegree(2 * A.n, True)
    return LocalDegree(A.n, nil)


def signature(h: HermitianForm, P: OrderingHandle) -> int:
    """Signature of h at P; zero at nil orderings."""
    A = h.owner
    if P.owner != A.field:
        raise FieldMismatch()
    if P in nil_orderings(A):
        return 0
    return sum(sign_of(d, P) for d in h.flattened_diagonal())


@dataclass(frozen=True)
class SignatureVector:
    algebra: AlgebraWithInvolution
    values: tuple[int, ...]

    def __post_init__(self):
        nil = set(nil_orderings(self.algebra))
        for P, v in zip(list_orderings(self.algebra.field), self.values):
            if P in nil and v != 0:
                raise AssertionError("nonzero signature at a nil ordering")


def signature_vector(h: HermitianForm) -> SignatureVector:
    A = h.owner
    values = tuple(signature(h, P) for P in list_orderings(A.field))
    kn = h.dim * A.n
    for P, v in zip(list_orderings(A.field), values):
        if abs(v) > kn * local_degree_nP(A, P).value:
            raise AssertionError("signature exceeds the rank bound")
    return SignatureVector(A, values)


# ---------------------------------------------------------------------------
# trace transfer to a quadratic form over F (division case, n = 1)


def _division_diagonal(h: HermitianForm) -> tuple[FieldElement, ...]:
    """F-diagonal of a form over (D, theta) (n = 1), not unscaled.

    Phi = (phi) is a central scalar of F, so each block's Gram over D is phi
    times its unscaled one and eliminates with the same pivots and the same
    G: the diagonal is the form's own diagonal times phi.
    """
    phi = h.owner.phi[0][0].scalar_part()
    return tuple(x * phi for x in h.flattened_diagonal())


def trace_transfer(h: HermitianForm) -> QuadraticForm:
    """The quadratic form x -> h(x, x) for a form over (D, theta)."""
    A = h.owner
    if A.n != 1:
        raise ValueError("trace transfer applies to forms over (D, theta) only")
    field = A.field
    diag = QuadraticForm(field, _division_diagonal(h))
    kind = A.desc.kind
    if kind == BASE:
        return diag
    if kind == QUADRATIC:
        carrier = QuadraticForm(field, [field.one(), -A.desc.d])
    else:
        a, b = A.desc.a, A.desc.b
        carrier = QuadraticForm(field, [field.one(), -a, -b, a * b])
    return tensor(carrier, diag)


# ---------------------------------------------------------------------------
# the star pairing


def _star_gram_diagonal(h: HermitianForm, b: AlgebraElement):
    """Diagonal entries of (h * <b>), a form over (Z(A), iota), for symmetric b.

    The pairing of x = (x_1..x_k) and y = (y_1..y_k) in A^k is
    sum_ij Trd(sigma(x_i) * C_ij * y_j * b).  Cross-block entries C_ij are
    zero, so the pairing of an orthogonal sum is the orthogonal sum of the
    blocks' pairings: each m x m block gives one (m dim_Z A)-square Gram,
    indexed by (slot, basis element), and the diagonals are concatenated.

    A is spanned over Z(A) by e = E_rs t, t in the basis 1 or (1, i, j, k)
    of D (1 alone in the quadratic kind, where sqrt d is central).  Trd is
    cyclic and sigma(e) = Phi theta(e)^t Phi^(-1), so the entry of (e, f) at
    C_ij is Trd(theta(e)^t m) = Trd_D(theta(t) m_rs) with
    m = Phi^(-1) C_ij f b Phi: no trace product, only a coordinate read.  On
    the base and quadratic kinds that is m_rs itself; on (a,b)_F it is
    2 (1, -a, -b, ab)_t times coordinate t of m_rs, an F-valued Gram that is
    eliminated with base-kind scalars.  For f = E_pq t', m_rs is
    (Phi^(-1) C_ij)_rp times t' (b Phi)_qs, and b Phi = Phi theta(b)^t
    because b is symmetric, so each (C_ij, f) pair costs one product of a
    column and a row.
    """
    A = h.owner
    desc, n = A.desc, A.n
    units = desc.basis()[: 1 if desc.kind == QUADRATIC else desc.dim]
    U = len(units)
    N = n * n * U
    b_phi = A.rescale(mat_theta_t(b.entries))
    # f b Phi for f = E_pq t: row p holds t (b Phi)_q, every other row is zero
    f_rows = [(p, [t * y for y in b_phi[q]]) for p in range(n) for q in range(n) for t in units]
    if desc.kind == QUATERNION:
        gram_desc = base_desc(A.field)
        two = A.field.from_rational(2)
        weights = (two, -two * desc.a, -two * desc.b, two * desc.a * desc.b)

        def traces(v):
            return [gram_desc.from_field(w * x) for w, x in zip(weights, v.comps)]
    else:
        gram_desc = desc

        def traces(v):
            return (v,)

    zero = gram_desc.zero()
    out = []
    for block in h.blocks:
        size = len(block) * N
        gram = [[zero] * size for _ in range(size)]
        for i, row in enumerate(block):
            for j, c in enumerate(row):
                if c.is_zero:
                    continue
                left = A.unscale(c.entries)
                for f, (p, f_row) in enumerate(f_rows):
                    col = j * N + f
                    for r in range(n):
                        x = left[r][p]
                        if x.is_zero:
                            continue
                        for s, y in enumerate(f_row):
                            first = i * N + (r * n + s) * U
                            for t, value in enumerate(traces(x * y), first):
                                gram[t][col] = value
        out.extend(diagonalize_hermitian(gram_desc, gram)[1])
    return tuple(out)


def star_pairing(a: AlgebraElement, b: AlgebraElement) -> QuadraticForm:
    """Diagonalization of <a> * <b>, the form (x,y) -> Trd(sigma(x) a y b).

    Both arguments must be symmetric units: a non-symmetric a or b raises
    NotSymmetric before either is tested with `is_unit`.  The result is
    presented as a diagonal form over F of dimension dim_Z(A) A; in the
    quadratic-kind case the underlying form is iota-hermitian over Z(A) and
    the diagonal entries are its field coefficients.
    """
    A = a.owner
    if not (A.is_symmetric(a) and A.is_symmetric(b)):
        raise NotSymmetric()
    if not (is_unit(a) and is_unit(b)):
        raise NotInvertible("star pairing needs invertible arguments")
    return QuadraticForm(A.field, _star_gram_diagonal(_entry_form(a), b))


def star_pairing_form(h: HermitianForm, b: AlgebraElement) -> QuadraticForm:
    """Diagonalization of h * <b> for a hermitian form h; b is checked symmetric."""
    A = h.owner
    if not A.is_symmetric(b):
        raise NotSymmetric()
    d = _star_gram_diagonal(h, b)
    return QuadraticForm(A.field, d)


# ---------------------------------------------------------------------------
# maximal signatures


def sample_symmetric(
    A: AlgebraWithInvolution, rng, height: int = SYMMETRIC_HEIGHT
) -> AlgebraElement:
    """x + sigma(x) for a random x with entries of the given height."""
    x = A.element(random_d_matrix(A.desc, A.n, rng, height))
    return x + A.involution(x)


def random_symmetric_unit(
    A: AlgebraWithInvolution, rng, height: int = SYMMETRIC_HEIGHT
) -> AlgebraElement:
    """A random invertible element of Sym(A, sigma), by rejection.

    Draws are tested with `is_unit`, which leaves <s>'s diagonal memoized.
    """
    while True:
        s = sample_symmetric(A, rng, height)
        if is_unit(s):
            return s


def max_signature_mP(
    A: AlgebraWithInvolution, P: OrderingHandle, trials: int = 50, rng=None
) -> tuple[int, AlgebraElement]:
    """The maximal one-dimensional signature at P, with an explicit witness.

    The witness is Phi itself: the scaling step sends it to the identity
    matrix, which is positive definite, so its signature is the local degree.
    Randomized trials double-check that sampled symmetric units never exceed
    that value.
    """
    if P in nil_orderings(A):
        raise NilOrdering()
    n_p = local_degree_nP(A, P).value
    witness = A.phi_element()
    achieved = signature(diagonal_form(A, [witness]), P)
    if achieved != n_p:
        raise AssertionError("witness signature does not reach the local degree")
    if rng is not None:
        for _ in range(trials):
            s = random_symmetric_unit(A, rng)
            v = signature(diagonal_form(A, [s]), P)
            if abs(v) > n_p:
                raise AssertionError("sampled signature exceeds the local degree")
    return n_p, witness
