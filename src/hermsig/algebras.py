"""Division algebra descriptors and matrix algebras with involution.

The coefficient algebra D is one of F, F(sqrt d), or the quaternion algebra
(a,b)_F, each with its canonical involution (identity, respectively
conjugation).  Algebras are always presented in the normal form M_n(D) with
the involution x -> Phi * theta(x)^t * Phi^(-1) for a theta-symmetric
invertible Phi; arbitrary structure-constant presentations are out of scope.

An element of D is one canonical integer block (see `DElement`).  D has
the basis of words e_p = u^(p_0) v^(p_1) in anticommuting units, u^2 = d or
a and v^2 = b, so e_p e_q = (-1)^(p_1 q_0) (u^2)^(p_0 q_0) (v^2)^(p_1 q_1)
e_(p xor q).  These constants, reduced in F, fold into an integer table
that depends only on the shape: the degree of F and the constants'
coordinates.  One table is built per shape and shared by every field and
descriptor of that shape (x^2 - c and x^4 - c with a = b = -1 for every
c, say); it holds no field.  One routine multiplies blocks through it
(integer convolution, one reduction modulo the cleared minimal polynomial
of the descriptor's own field, one gcd), the norm x * theta(x) included.
A descriptor also builds its zero and one once, next to the table, and
hands the same immutable element to every caller of `zero()` and `one()`.

This module is the only one that knows Phi.  `AlgebraWithInvolution.unscale`
(m -> Phi^(-1) m) sends the symmetric elements onto the theta-hermitian
matrices, and `rescale` (m -> Phi m) sends them back; both are the identity
when Phi = I.  So `is_symmetric` tests that Phi^(-1) x is theta-hermitian,
on one triangle, by `is_theta_hermitian`, the test `diagonalize_hermitian`
runs on its input; sigma(x) is not built.  Hermitian forms diagonalize
unscaled blocks, and the positive cones are the rescaled images of the
P-semidefinite hermitian matrices.  The rule for where A splits lives here
too: `nil_orderings` lists the orderings at which every signature over
(A, sigma) vanishes.  Algebra elements are canonical, so two of them are
equal exactly when their entries are.  Matrices over D are not row
reduced: `unit_congruence` tests x through the congruence diagonalization
of theta(x)^t x by `hermitian.diagonalize_hermitian`, the one elimination
over D, split D too.  `_hermitian_inverse` inverts a theta-hermitian matrix
through its own congruence: Phi directly, and x as (x* x)^(-1) x* in
`AlgebraWithInvolution.invert`.

The seeded draws start here, from one height table: `random_field_element`
and `random_d_matrix` draw power-basis integers with `rng.randint` straight
into one canonical block, with no `Fraction` and no per-component field
element.  The samplers built on them stay in the layer whose operations they
need: symmetric draws in `hermitian`, cone members and the axiom sample set
in `cones`.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    _canonical,
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
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _table(deg: int, entries, out_dim: int) -> tuple:
    """The terms c x_p y_q e_r over a field of degree deg, in integers.

    entries[p] lists (q, r, nums, den) for each constant c = nums/den, a
    canonical power-basis block already reduced in the field.  Returns
    (rows, width, size, den): rows[i] lists (j, o, n) for each term
    n * x[i] * y[j], n a coefficient of some c over the common denominator
    den, on slot o of out_dim unreduced polynomials of `width` coefficients
    each (size slots).
    """
    den = math.lcm(*(cden for row in entries for *_, cden in row))
    support = [k for row in entries for *_, nums, _ in row for k, n in enumerate(nums) if n]
    width = 2 * deg - 1 + max(support)
    rows = []
    for row, i in itertools.product(entries, range(deg)):
        rows.append(tuple(
            (q * deg + j, r * width + i + j + k, n * (den // cden))
            for q, r, nums, cden in row for k, n in enumerate(nums) if n for j in range(deg)
        ))
    return tuple(rows), width, out_dim * width, den


# a shape's table takes at most about 20 KB (quaternions at degree 4);
# the bound keeps a program that meets many distinct constants from
# holding them all
@functools.lru_cache(maxsize=64)
def _shape_table(deg: int, power: tuple) -> tuple:
    """The product table of one shape, shared by every field.

    power lists (u^2)^(p_0 q_0) (v^2)^(p_1 q_1) by the bits of p & q, that
    is 1, d or 1, a, b, ab, as canonical power-basis blocks (nums, den)
    already reduced in a field of degree deg; its length is dim D.  The
    table holds no field: `_product` reduces with the field it is given.
    """
    dim = len(power)
    minus = [(tuple(-n for n in nums), den) for nums, den in power]
    mul = [
        [(q, p ^ q, *(minus if p >> 1 & q & 1 else power)[p & q]) for q in range(dim)]
        for p in range(dim)
    ]
    return _table(deg, mul, dim)


def _product(field: NumberField, table: tuple, x, xden: int, y, yden: int):
    """Integer block and denominator of x * y through `table`, gcd not taken.

    Components are reduced modulo the cleared minimal polynomial of
    `field`, top term first; when it is not integral each step scales the
    whole block, so the block keeps one denominator.
    """
    rows, width, size, den = table
    acc = [0] * size
    for i, a in enumerate(x):
        if a:
            for j, o, n in rows[i]:
                if y[j]:
                    acc[o] += n * a * y[j]
    den *= xden * yden
    deg = field.degree
    if width > deg:
        scale, reducer = field._scale, field._reducer
        starts = range(0, size, width)
        for t in range(width - 1, deg - 1, -1):
            tops = acc[t::width]
            if any(tops):
                if scale != 1:
                    acc = [v * scale for v in acc]
                    den *= scale
                for s, c in zip(starts, tops):
                    for j, r in reducer if c else ():
                        acc[s + t - deg + j] -= c * r
        acc = [v for s in starts for v in acc[s : s + deg]]
    return acc, den


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
        # u^2 = d, or u^2 = a, v^2 = b and their product
        squares = ()
        if self.kind == QUADRATIC:
            if self.d is None or self.d.is_zero:
                raise ZeroElement("quadratic kind needs a nonzero d")
            if self.d.owner != self.field:
                raise FieldMismatch()
            if self.d.is_rational and _is_rational_square(self.d.as_fraction()):
                raise ValueError("d is a rational square; F(sqrt d) is not a field")
            squares = (self.d,)
        if self.kind == QUATERNION:
            if self.a is None or self.b is None or self.a.is_zero or self.b.is_zero:
                raise ZeroElement("quaternion kind needs nonzero a, b")
            if self.a.owner != self.field or self.b.owner != self.field:
                raise FieldMismatch()
            squares = (self.a, self.b, self.a * self.b)
        # the constants reduced in F, not a and b, key the shared table
        one = self.field.one()
        power = tuple((c.nums, c.den) for c in (one, *squares))
        # derived data, outside the dataclass fields, equality and hash
        object.__setattr__(self, "_mul", _shape_table(self.field.degree, power))
        # elements are never mutated, so every caller can share these two
        object.__setattr__(self, "_zero", self._unit(self.field.zero()))
        object.__setattr__(self, "_one", self._unit(one))

    @property
    def dim(self) -> int:
        return _DIMS[self.kind]

    def _unit(self, c: FieldElement, p: int = 0) -> "DElement":
        pad = (0,) * self.field.degree
        return _make(self, pad * p + c.nums + pad * (self.dim - 1 - p), c.den)

    def zero(self) -> "DElement":
        return self._zero

    def one(self) -> "DElement":
        return self._one

    def from_field(self, c: FieldElement) -> "DElement":
        if c.owner != self.field:
            raise FieldMismatch()
        return self._unit(c)

    def basis(self) -> tuple["DElement", ...]:
        return tuple(self._unit(self.field.one(), p) for p in range(self.dim))


class DElement:
    """Element of D in the basis {1}, {1, sqrt d} or {1, i, j, k}.

    One integer block: `nums` holds the deg F power-basis numerators of each
    component in turn, over one denominator `den`, with den > 0 and
    gcd(den, *nums) == 1, so equal values compare and hash equal.  `comps`
    is the field-element view; elements are never mutated.
    """

    __slots__ = ("desc", "nums", "den")

    def __init__(self, desc: DivisionAlgebraDesc, comps):
        if len(comps) != desc.dim or any(c.owner != desc.field for c in comps):
            raise FieldMismatch(f"{desc.kind} element needs {desc.dim} components in F")
        # over the lcm of canonical denominators the numerators share no factor
        den = math.lcm(*(c.den for c in comps))
        self.desc, self.den = desc, den
        self.nums = tuple(n * (den // c.den) for c in comps for n in c.nums)

    @property
    def comps(self) -> tuple[FieldElement, ...]:
        field, nums, deg = self.desc.field, self.nums, self.desc.field.degree
        return tuple(
            _canonical(field, nums[s : s + deg], self.den) for s in range(0, len(nums), deg)
        )

    def _check(self, other: "DElement") -> None:
        if other.desc is not self.desc and other.desc != self.desc:
            raise FieldMismatch()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DElement):
            return NotImplemented
        # tuple equality tests the descriptors by identity before ==
        return (self.nums, self.den, self.desc) == (other.nums, other.den, other.desc)

    def __hash__(self) -> int:
        return hash((self.desc, self.nums, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_scalar(self) -> bool:
        """True when all non-identity components vanish."""
        return not any(self.nums[self.desc.field.degree :])

    def scalar_part(self) -> FieldElement:
        if not self.is_scalar:
            raise ValueError("element has non-identity components")
        field = self.desc.field
        return _canonical(field, self.nums[: field.degree], self.den)

    def __add__(self, other: "DElement") -> "DElement":
        self._check(other)
        if not any(self.nums):
            return other
        if not any(other.nums):
            return self
        return _sum(self, other, 1)

    def __sub__(self, other: "DElement") -> "DElement":
        self._check(other)
        return _sum(self, other, -1)

    def __neg__(self) -> "DElement":
        return _make(self.desc, tuple(-a for a in self.nums), self.den)

    def scale(self, c: FieldElement) -> "DElement":
        desc = self.desc
        if c.owner is not desc.field and c.owner != desc.field:
            raise FieldMismatch()
        if c.is_rational:
            return _make(desc, [a * c.nums[0] for a in self.nums], self.den * c.den)
        # c is central, so x c = c x, and c's block is the sparser left factor
        return _make(desc, *_product(desc.field, desc._mul, c.nums, c.den, self.nums, self.den))

    def __mul__(self, other):
        if not isinstance(other, DElement):
            if isinstance(other, (int, Fraction)):
                other = self.desc.field.from_rational(other)
            return self.scale(other)
        self._check(other)
        if not any(self.nums):
            return self
        if not any(other.nums):
            return other
        desc = self.desc
        return _make(desc, *_product(desc.field, desc._mul, self.nums, self.den, other.nums, other.den))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "DElement":
        """Canonical involution: sign flip on all non-identity components."""
        deg, nums = self.desc.field.degree, self.nums
        return _make(self.desc, nums[:deg] + tuple(-a for a in nums[deg:]), self.den)

    def norm(self) -> FieldElement:
        """x * conj(x), always a field element, through the product table."""
        return (self * self.conj()).scalar_part()

    def __repr__(self) -> str:
        return f"DElement({self.desc.kind}, {self.comps})"


def _make(desc: DivisionAlgebraDesc, nums, den: int) -> DElement:
    """The element with block nums/den, den > 0, common factor removed."""
    g = math.gcd(den, *nums)
    x = object.__new__(DElement)
    x.desc, x.den = desc, den // g
    x.nums = tuple(n // g for n in nums) if g != 1 else tuple(nums)
    return x


def _sum(x: DElement, y: DElement, sign: int) -> DElement:
    """x + sign * y for elements of one D."""
    da, db = x.den, y.den
    if da == db:
        return _make(x.desc, [a + sign * b for a, b in zip(x.nums, y.nums)], da)
    return _make(x.desc, [a * db + sign * b * da for a, b in zip(x.nums, y.nums)], da * db)


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

# The coordinate heights of every seeded draw: field scalars, the transforms
# G of sampled cone members, and the x of a symmetric draw x + sigma(x).
# A criterion that wants other entries passes its own height to
# `random_d_matrix` or the symmetric samplers.
SCALAR_HEIGHT = 4
TRANSFORM_HEIGHT = 2
SYMMETRIC_HEIGHT = 3


def random_field_element(field: NumberField, rng) -> FieldElement:
    """Power-basis integers drawn uniformly from [-SCALAR_HEIGHT, SCALAR_HEIGHT]."""
    nums = tuple(rng.randint(-SCALAR_HEIGHT, SCALAR_HEIGHT) for _ in range(field.degree))
    return FieldElement(field, nums, 1)


def random_d_matrix(desc: DivisionAlgebraDesc, n: int, rng, height: int):
    """An n x n matrix over D, drawn row by row, entry by entry.

    Each entry's dim * deg F power-basis integers are drawn component by
    component, uniformly from [-height, height], straight into its block.
    """
    size = desc.dim * desc.field.degree
    draw = rng.randint
    return [
        [_make(desc, [draw(-height, height) for _ in range(size)], 1) for _ in range(n)]
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


def is_theta_hermitian(desc: DivisionAlgebraDesc, x) -> bool:
    """Whether the square matrix x over D equals theta(x)^t, on one triangle.

    Tests x[j][i] == theta(x[i][j]) for i <= j (i < j on the base kind,
    where theta is the identity) and stops at the first mismatch.
    """
    mirror = desc.kind != BASE
    for i, row in enumerate(x):
        for j in range(i if mirror else i + 1, len(x)):
            v = row[j]
            if x[j][i] != (v.conj() if mirror else v):
                return False
    return True


def unit_congruence(x):
    """(G, d) with theta(G)^t (x* x) G = diag(d), where x* = theta(x)^t.

    G is invertible, so x is a unit exactly when no d_i is zero; raises
    NotInvertible otherwise.
    """
    # hermitian imports this module, so the routine is looked up at call time
    from .hermitian import diagonalize_hermitian

    G, d = diagonalize_hermitian(x[0][0].desc, mat_mul(mat_theta_t(x), x))
    if any(di.is_zero for di in d):
        raise NotInvertible()
    return G, d


def _hermitian_inverse(B, singular):
    """B^(-1) for a theta-hermitian B, from B's own congruence.

    theta(G)^t B G = diag(d) gives B^(-1) = G diag(d)^(-1) theta(G)^t;
    raises `singular` when some d_i is zero.
    """
    from .hermitian import diagonalize_hermitian

    G, d = diagonalize_hermitian(B[0][0].desc, B)
    if any(di.is_zero for di in d):
        raise singular()
    inverses = [di.inverse() for di in d]
    scaled = [[g * u for g, u in zip(row, inverses)] for row in G]
    return mat_mul(scaled, mat_theta_t(G))


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
        if not is_theta_hermitian(desc, phi):
            raise PhiNotSymmetric()
        self._phi_is_identity = phi == mat_identity(desc, n)
        self._phi_inv = phi if self._phi_is_identity else _hermitian_inverse(phi, PhiSingular)
        self.phi = [tuple(row) for row in phi]
        self._nil: tuple | None = None
        # Gram block coordinates -> congruence (G, d), filled by hermitian
        # forms and cone membership
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
        """Whether sigma(x) = x, read as Phi^(-1) x being theta-hermitian.

        sigma(x) = Phi theta(Phi^(-1) x)^t, so the two are equivalent and
        sigma(x) is never built.
        """
        self._own(x)
        return is_theta_hermitian(self.desc, self.unscale(x.entries))

    def invert(self, x: "AlgebraElement") -> "AlgebraElement":
        """x^(-1) = (x* x)^(-1) x*, with x* x inverted through its congruence."""
        self._own(x)
        xs = mat_theta_t(x.entries)
        return self.element(
            mat_mul(_hermitian_inverse(mat_mul(xs, x.entries), NotInvertible), xs)
        )

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
