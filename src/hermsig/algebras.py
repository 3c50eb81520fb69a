"""Division algebra descriptors and matrix algebras with involution.

The coefficient algebra D is one of F, F(sqrt d), or the quaternion algebra
(a,b)_F, each with its canonical involution (identity, respectively
conjugation).  Algebras are always presented in the normal form M_n(D) with
the involution x -> Phi * theta(x)^t * Phi^(-1) for a theta-symmetric
invertible Phi; arbitrary structure-constant presentations are out of scope.

This module is the only one that knows Phi.  `AlgebraWithInvolution.unscale`
(m -> Phi^(-1) m) sends the symmetric elements onto the theta-hermitian
matrices, and `rescale` (m -> Phi m) sends them back; both are the identity
when Phi = I.  Hermitian forms diagonalize unscaled blocks, and the positive
cones are the rescaled images of the P-semidefinite hermitian matrices.  The
rule for where A splits lives here too: `nil_orderings` lists the orderings
at which every signature over (A, sigma) vanishes.  Algebra elements are
canonical, so two of them are equal exactly when their entries are.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatch,
    HermsigError,
    NotInvertible,
    PhiNotSymmetric,
    PhiSingular,
    ZeroElement,
)
from .orderings import (
    FieldElement,
    FieldEmbedding,
    NumberField,
    OrderingHandle,
    list_orderings,
    sign_of,
)
from .qforms import QuadraticForm, signature_qf

BASE = "base"
QUADRATIC = "quadratic"
QUATERNION = "quaternion"

_DIMS = {BASE: 1, QUADRATIC: 2, QUATERNION: 4}


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    from math import isqrt

    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


@dataclass(frozen=True)
class DivisionAlgebraDesc:
    """D in {F, F(sqrt d), (a,b)_F}; components d or (a, b) per kind."""

    kind: str
    field: NumberField
    d: FieldElement | None = None
    a: FieldElement | None = None
    b: FieldElement | None = None

    def __post_init__(self):
        if self.kind not in _DIMS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == QUADRATIC:
            if self.d is None or self.d.is_zero:
                raise ZeroElement("quadratic kind needs a nonzero d")
            if self.d.owner != self.field:
                raise FieldMismatch()
            if self.d.is_rational and _is_rational_square(self.d.as_fraction()):
                raise ValueError("d is a rational square; F(sqrt d) is not a field")
        if self.kind == QUATERNION:
            if self.a is None or self.b is None or self.a.is_zero or self.b.is_zero:
                raise ZeroElement("quaternion kind needs nonzero a, b")
            if self.a.owner != self.field or self.b.owner != self.field:
                raise FieldMismatch()

    @property
    def dim(self) -> int:
        return _DIMS[self.kind]

    def zero(self) -> "DElement":
        z = self.field.zero()
        return DElement(self, (z,) * self.dim)

    def one(self) -> "DElement":
        comps = [self.field.one()] + [self.field.zero()] * (self.dim - 1)
        return DElement(self, tuple(comps))

    def from_field(self, c: FieldElement) -> "DElement":
        if c.owner != self.field:
            raise FieldMismatch()
        comps = [c] + [self.field.zero()] * (self.dim - 1)
        return DElement(self, tuple(comps))

    def basis(self) -> tuple["DElement", ...]:
        out = []
        for i in range(self.dim):
            comps = [self.field.zero()] * self.dim
            comps[i] = self.field.one()
            out.append(DElement(self, tuple(comps)))
        return tuple(out)


@dataclass(frozen=True)
class DElement:
    """Element of D in the basis {1}, {1, sqrt d} or {1, i, j, k}."""

    desc: DivisionAlgebraDesc
    comps: tuple[FieldElement, ...]

    def _check(self, other: "DElement") -> None:
        if self.desc != other.desc:
            raise FieldMismatch()

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    @property
    def is_scalar(self) -> bool:
        """True when all non-identity components vanish."""
        return all(c.is_zero for c in self.comps[1:])

    def scalar_part(self) -> FieldElement:
        if not self.is_scalar:
            raise ValueError("element has non-identity components")
        return self.comps[0]

    def __add__(self, other: "DElement") -> "DElement":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return DElement(
            self.desc, tuple(a + b for a, b in zip(self.comps, other.comps))
        )

    def __sub__(self, other: "DElement") -> "DElement":
        self._check(other)
        return DElement(
            self.desc, tuple(a - b for a, b in zip(self.comps, other.comps))
        )

    def __neg__(self) -> "DElement":
        return DElement(self.desc, tuple(-a for a in self.comps))

    def scale(self, c: FieldElement) -> "DElement":
        return DElement(self.desc, tuple(a * c for a in self.comps))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(self.desc.field.from_rational(other))
        self._check(other)
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        x, y = self.comps, other.comps
        kind = self.desc.kind
        if kind == BASE:
            return DElement(self.desc, (x[0] * y[0],))
        if kind == QUADRATIC:
            d = self.desc.d
            return DElement(
                self.desc,
                (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
            )
        a, b = self.desc.a, self.desc.b
        ab = a * b
        return DElement(
            self.desc,
            (
                x[0] * y[0] + a * x[1] * y[1] + b * x[2] * y[2] - ab * x[3] * y[3],
                x[0] * y[1] + x[1] * y[0] - b * x[2] * y[3] + b * x[3] * y[2],
                x[0] * y[2] + x[2] * y[0] + a * x[1] * y[3] - a * x[3] * y[1],
                x[0] * y[3] + x[3] * y[0] + x[1] * y[2] - x[2] * y[1],
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "DElement":
        """Canonical involution: sign flip on all non-identity components."""
        return DElement(
            self.desc, (self.comps[0],) + tuple(-c for c in self.comps[1:])
        )

    def norm(self) -> FieldElement:
        """x * conj(x), always a field element."""
        kind = self.desc.kind
        x = self.comps
        if kind == BASE:
            return x[0] * x[0]
        if kind == QUADRATIC:
            return x[0] * x[0] - self.desc.d * x[1] * x[1]
        a, b = self.desc.a, self.desc.b
        return (
            x[0] * x[0]
            - a * x[1] * x[1]
            - b * x[2] * x[2]
            + a * b * x[3] * x[3]
        )

    def inverse(self) -> "DElement":
        n = self.norm()
        if n.is_zero:
            raise NotInvertible()
        return self.conj().scale(n.inverse())

    def __repr__(self) -> str:
        return f"DElement({self.desc.kind}, {self.comps})"


def base_desc(field: NumberField) -> DivisionAlgebraDesc:
    return DivisionAlgebraDesc(BASE, field)


def quadratic_desc(field: NumberField, d: FieldElement) -> DivisionAlgebraDesc:
    return DivisionAlgebraDesc(QUADRATIC, field, d=d)


def quaternion_desc(
    field: NumberField, a: FieldElement, b: FieldElement
) -> DivisionAlgebraDesc:
    return DivisionAlgebraDesc(QUATERNION, field, a=a, b=b)


# ---------------------------------------------------------------------------
# seeded sampling


def random_field_element(field: NumberField, rng, height: int) -> FieldElement:
    """Power-basis coordinates drawn uniformly from [-height, height]."""
    return field.element(
        [Fraction(rng.randint(-height, height)) for _ in range(field.degree)]
    )


def random_d_matrix(desc: DivisionAlgebraDesc, n: int, rng, height: int):
    """An n x n matrix over D, drawn row by row, component by component."""
    return [
        [
            DElement(
                desc,
                tuple(
                    random_field_element(desc.field, rng, height)
                    for _ in range(desc.dim)
                ),
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# matrices over D


def mat_identity(desc: DivisionAlgebraDesc, n: int):
    return [
        [desc.one() if i == j else desc.zero() for j in range(n)] for i in range(n)
    ]


def mat_mul(x, y):
    n, m, k = len(x), len(y[0]), len(y)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = x[i][0] * y[0][j]
            for t in range(1, k):
                acc = acc + x[i][t] * y[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_theta_t(x):
    """Entrywise canonical involution followed by transpose."""
    n, m = len(x), len(x[0])
    return [[x[j][i].conj() for j in range(n)] for i in range(m)]


def mat_inv(x):
    """Inverse over D by row reduction; pivots must be invertible in D."""
    n = len(x)
    a = [list(row) for row in x]
    inv = mat_identity(x[0][0].desc, n)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not a[r][col].is_zero and not a[r][col].norm().is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            raise NotInvertible()
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pinv = a[col][col].inverse()
        a[col] = [pinv * v for v in a[col]]
        inv[col] = [pinv * v for v in inv[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# the algebra M_n(D) with involution Int(Phi) o theta^t


class AlgebraWithInvolution:
    def __init__(self, desc: DivisionAlgebraDesc, n: int, phi=None):
        if n < 1:
            raise ValueError("n must be positive")
        self.desc = desc
        self.field = desc.field
        self.n = n
        if phi is None:
            phi = mat_identity(desc, n)
        phi = [list(row) for row in phi]
        if len(phi) != n or any(len(row) != n for row in phi):
            raise ValueError("phi must be an n x n matrix")
        if mat_theta_t(phi) != phi:
            raise PhiNotSymmetric()
        try:
            self._phi_inv = mat_inv(phi)
        except NotInvertible:
            raise PhiSingular() from None
        self.phi = [tuple(row) for row in phi]
        self._phi_is_identity = phi == mat_identity(desc, n)
        self._nil: tuple | None = None
        # Gram block coordinates -> diagonal, filled by hermitian forms
        self._diagonal_memo: dict = {}
        if desc.kind == QUATERNION:
            try:
                nil_everywhere = len(nil_orderings(self)) == len(
                    list_orderings(desc.field)
                )
            except HermsigError:
                nil_everywhere = False
            if nil_everywhere:
                warnings.warn(
                    "DNotDivisionAtAnyOrdering: the quaternion algebra splits "
                    "at every ordering, so every signature vanishes",
                    stacklevel=2,
                )

    def __repr__(self) -> str:
        return f"AlgebraWithInvolution({self.desc.kind}, n={self.n})"

    def element(self, entries) -> "AlgebraElement":
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != self.n or any(len(r) != self.n for r in entries):
            raise ValueError("entry shape does not match n")
        return AlgebraElement(self, entries)

    def zero(self) -> "AlgebraElement":
        return self.element(
            [[self.desc.zero()] * self.n for _ in range(self.n)]
        )

    def identity(self) -> "AlgebraElement":
        return self.element(mat_identity(self.desc, self.n))

    def phi_element(self) -> "AlgebraElement":
        return self.element(self.phi)

    def scalar(self, c: FieldElement) -> "AlgebraElement":
        dc = self.desc.from_field(c)
        return self.element(
            [
                [dc if i == j else self.desc.zero() for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def unscale(self, m):
        """Phi^(-1) * m for an n x n matrix m over D; m itself when Phi = I."""
        if self._phi_is_identity:
            return m
        return mat_mul(self._phi_inv, m)

    def rescale(self, m):
        """Phi * m for an n x n matrix m over D; m itself when Phi = I."""
        if self._phi_is_identity:
            return m
        return mat_mul(self.phi, m)

    def involution(self, x: "AlgebraElement") -> "AlgebraElement":
        """Phi theta(x)^t Phi^(-1), read as Phi theta(Phi^(-1) x)^t.

        The two agree because Phi^(-1) is theta-symmetric along with Phi.
        """
        self._own(x)
        return self.element(self.rescale(mat_theta_t(self.unscale(x.entries))))

    def multiply(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        self._own(x)
        self._own(y)
        return self.element(mat_mul(x.entries, y.entries))

    def is_symmetric(self, x: "AlgebraElement") -> bool:
        self._own(x)
        return x == self.involution(x)

    def invert(self, x: "AlgebraElement") -> "AlgebraElement":
        self._own(x)
        return self.element(mat_inv(x.entries))

    def reduced_trace(self, x: "AlgebraElement") -> DElement:
        """Center-valued reduced trace, returned as a central DElement.

        Base kind: the matrix trace.  Quadratic kind: the Z(A)-valued matrix
        trace.  Quaternion kind: twice the sum of the diagonal identity
        components (the diagonal reduced traces of D).
        """
        self._own(x)
        acc = x.entries[0][0]
        for i in range(1, self.n):
            acc = acc + x.entries[i][i]
        if self.desc.kind == QUATERNION:
            acc = acc + acc.conj()
        return acc

    def reduced_trace_of_product(
        self, x: "AlgebraElement", y: "AlgebraElement"
    ) -> DElement:
        """reduced_trace(x * y) from the n^2 products x_ik * y_ki alone."""
        self._own(x)
        self._own(y)
        acc = self.desc.zero()
        for i, row in enumerate(x.entries):
            for k, s in enumerate(row):
                if not s.is_zero:
                    acc = acc + s * y.entries[k][i]
        if self.desc.kind == QUATERNION:
            acc = acc + acc.conj()
        return acc

    def _own(self, x: "AlgebraElement") -> None:
        if x.owner is not self:
            raise FieldMismatch("element belongs to a different algebra")


@dataclass(frozen=True)
class AlgebraElement:
    """An n x n matrix over D in a given algebra.

    Equality is the dataclass's: the same algebra and equal entries, which
    is equality of elements because field elements are canonical.
    """

    owner: AlgebraWithInvolution
    entries: tuple[tuple[DElement, ...], ...]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self.owner._own(other)
        return AlgebraElement(
            self.owner,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.owner, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.owner.multiply(self, other)
        if isinstance(other, (int, Fraction)):
            other = self.owner.field.from_rational(other)
        if isinstance(other, FieldElement):
            return AlgebraElement(
                self.owner,
                tuple(tuple(a * other for a in row) for row in self.entries),
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.__mul__(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.owner.n})"


def make_algebra(desc: DivisionAlgebraDesc, n: int, phi=None) -> AlgebraWithInvolution:
    return AlgebraWithInvolution(desc, n, phi)


def nil_orderings(A: AlgebraWithInvolution) -> tuple[OrderingHandle, ...]:
    """Orderings at which every signature over (A, sigma) vanishes.

    Base kind: none.  Quadratic kind d: the orderings with d > 0, where the
    center splits.  Quaternion kind (a,b): the orderings where a > 0 or
    b > 0, where D splits and the involution type flips.
    """
    if A._nil is None:
        d = A.desc
        if d.kind == BASE:
            A._nil = ()
        elif d.kind == QUADRATIC:
            A._nil = tuple(
                P for P in list_orderings(A.field) if sign_of(d.d, P) > 0
            )
        else:
            A._nil = tuple(
                P
                for P in list_orderings(A.field)
                if sign_of(d.a, P) > 0 or sign_of(d.b, P) > 0
            )
    return A._nil


# ---------------------------------------------------------------------------
# quaternion division policing


@dataclass(frozen=True)
class DivisionCheck:
    status: str  # "Division", "Split" or "Unknown"
    witness: DElement | None
    bound: int


def quaternion_division_check(
    field: NumberField, a: FieldElement, b: FieldElement, bound: int = 3
) -> DivisionCheck:
    """Tri-state division test for (a,b)_F.

    Definite at an ordering where a and b are both negative (the norm form
    is positive definite there, hence anisotropic).  Otherwise a bounded
    search over small-height coordinates looks for a zero of the norm form;
    a hit gives an explicit zero divisor, a miss is inconclusive.
    """
    if a.is_zero or b.is_zero:
        raise ZeroElement()
    nf = QuadraticForm(field, [field.one(), -a, -b, a * b])
    for P in list_orderings(field):
        if signature_qf(nf, P) == 4:
            return DivisionCheck("Division", None, bound)
    desc = quaternion_desc(field, a, b)
    coords = range(-bound, bound + 1)
    deg = field.degree
    for quad in itertools.product(
        itertools.product(coords, repeat=deg), repeat=4
    ):
        if all(all(c == 0 for c in comp) for comp in quad):
            continue
        x = DElement(desc, tuple(field.element(list(comp)) for comp in quad))
        if x.norm().is_zero:
            return DivisionCheck("Split", x, bound)
    return DivisionCheck("Unknown", None, bound)


# ---------------------------------------------------------------------------
# scalar extension along a field embedding


def push_delement(x: DElement, emb: FieldEmbedding, dst: DivisionAlgebraDesc) -> DElement:
    return DElement(dst, tuple(emb.push(c) for c in x.comps))


def extend_desc(desc: DivisionAlgebraDesc, emb: FieldEmbedding) -> DivisionAlgebraDesc:
    if desc.kind == BASE:
        return base_desc(emb.dst)
    if desc.kind == QUADRATIC:
        return quadratic_desc(emb.dst, emb.push(desc.d))
    return quaternion_desc(emb.dst, emb.push(desc.a), emb.push(desc.b))


def extend_scalars(
    A: AlgebraWithInvolution, emb: FieldEmbedding
) -> AlgebraWithInvolution:
    dst = extend_desc(A.desc, emb)
    phi = [
        [push_delement(e, emb, dst) for e in row] for row in A.phi
    ]
    return AlgebraWithInvolution(dst, A.n, phi)


def push_algebra_element(
    x: AlgebraElement, emb: FieldEmbedding, AL: AlgebraWithInvolution
) -> AlgebraElement:
    return AL.element(
        [[push_delement(e, emb, AL.desc) for e in row] for row in x.entries]
    )
