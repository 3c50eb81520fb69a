"""Real number fields Q[x]/(p) and their orderings.

An ordering is a real root of the minimal polynomial, held as an isolating
rational interval whose endpoints are not roots of p.  Building a field
narrows each of p's isolating intervals, one sign of p per halving
(`exactnum._halve`), until it is narrower than 1/L for p's leading
coefficient L: it then holds at most one rational N/L, and one integer
Horner value tests it, so the rational-root screen costs a number of steps
that grows with the digits of p, not with their value.  The sign of a field
element a at an ordering is read first off integer interval Horner: a over
the narrowed interval, with integer ends lo/q and hi/q, scaled by powers
of q.  When the bound excludes 0 it is the exact sign, since for
irreducible p a nonzero a does not vanish at the root.  Otherwise the
interval is halved the same way.  The narrowed interval is kept on the
field as a few integers per ordering; the handle's own `isolating`
interval never changes.  No midpoint is a root past the screen, which
rejects a minimal polynomial of degree 2 or more with a rational root, and
over a degree-1 field every element is rational, so its sign is read
without narrowing.  Narrowing stops after a fixed number of steps per
ordering, and then one localized Tarski query decides: the Sturm chain
seeded with (p, p'*a mod p), read across the isolating interval, drops by
exactly sgn a(root), zero included, so zero divisors of a reducible p that
passes the rational-root screen get sign 0.
The narrowed intervals start from the integer triples p keeps, and only the
handles' `isolating` intervals are `Fraction`s.
Real closures are never materialized.

A field element is integer numerators over one denominator in the power
basis, sum_i nums[i] x^i / den, always canonical: den > 0 and
gcd(den, *nums) == 1, so equal values compare and hash equal.  Products
reduce modulo scale * p, the monic minimal polynomial cleared of
denominators once per field; each reduction step multiplies the partial
product and its denominator by scale, so a non-integral p stays exact.
Inversion solves the multiplication-matrix system by fraction-free
(Bareiss) elimination.  `FieldElement.coords` is the fraction view of the
same coordinates.

Fields memoize their ordering list and keep the narrowed intervals from
their construction on.  The list cache is idempotent, so concurrent readers
at worst recompute; each narrowed interval is replaced as one tuple, so a
concurrent narrowing is at worst lost, and every stored tuple is an
isolating interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatch,
    NotAnEmbedding,
    NotFormallyReal,
    NotInvertible,
    NotSquarefree,
    ReducibleMinPoly,
    ZeroElement,
)
from .exactnum import (
    Interval,
    Polynomial,
    _halve,
    _interval_sign,
    _primitive_integer,
    _real_roots,
    _scaled_value,
    _tarski_chain,
    is_squarefree,
    isolate_real_roots,
    sign,
)


def _rational_root_screen(p: Polynomial, ints: tuple[int, ...]) -> list[tuple]:
    """Reject a min_poly of degree > 1 with a rational root; narrow its roots.

    `ints` are p's primitive integer coefficients, lowest first, with
    leading coefficient L > 0.  A rational root of p is real and equals N/L
    for an integer N, so it lies in one of the isolating triples p keeps.
    Each triple is halved (`_halve`) until it is narrower than 1/L, when it
    holds at most one such N/L: the least one at or above its lower end,
    tested by one Horner value.  A midpoint that is the root leaves a point
    interval, whose candidate is the root.  Of several rational roots the
    error names the least |a|, then the least b, then a > 0 before a < 0.
    Full irreducibility over Q stays the caller's contract; a reducible
    polynomial that passes this screen surfaces later as NotInvertible.

    Returns the sign_of state of each ordering, in root order:
    (lo, hi, q, p_lo_negative, steps) with no step spent.
    """
    deg, lead = len(ints) - 1, ints[-1]
    if deg > 1 and not ints[0]:
        raise ReducibleMinPoly("zero is a root")
    narrowed, found = [], []
    for lo, hi, q in _real_roots(p):
        lo_negative = _scaled_value(ints, lo, q) < 0
        if deg > 1:
            while (hi - lo) * lead >= q:
                lo, hi, q = _halve(ints, lo, hi, q, lo_negative)
            n = -(-lo * lead // q)
            if not _scaled_value(ints, n, lead):
                found.append(Fraction(n, lead))
        narrowed.append((lo, hi, q, lo_negative, 0))
    if found:
        r = min(found, key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        raise ReducibleMinPoly(f"rational root {r.numerator}/{r.denominator}")
    return narrowed


class NumberField:
    """The field Q[x]/(p) for a monic squarefree p, assumed irreducible."""

    def __init__(self, min_poly_coeffs):
        p = Polynomial(min_poly_coeffs).monic()
        if p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if not is_squarefree(p):
            raise NotSquarefree("minimal polynomial is not squarefree")
        ints = _primitive_integer(p)
        # per ordering: (lo, hi, q, p_lo_negative, steps), read by sign_of
        self._narrowed = _rational_root_screen(p, ints)
        self.min_poly = p
        self.degree = p.degree
        # scale * p = scale * x^d + sum_j r_j x^j with integers scale > 0 and
        # r_j; reduction rewrites c x^(i+d) as -(c / scale) sum_j r_j x^(i+j)
        self._ints = ints
        self._scale = ints[-1]
        self._reducer = tuple((j, r) for j, r in enumerate(ints[:-1]) if r)
        self._orderings: tuple[OrderingHandle, ...] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return f"NumberField({[str(c) for c in self.min_poly.coeffs]})"

    def element(self, coords) -> "FieldElement":
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate length does not match field degree")
        den = math.lcm(*(c.denominator for c in coords))
        # over the lcm of reduced denominators the numerators share no factor
        return FieldElement(
            self, tuple(c.numerator * (den // c.denominator) for c in coords), den
        )

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(
            self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator
        )

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # Q[x]/(x - c): the generator is the rational c itself
            return self.from_rational(-self.min_poly.coeffs[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)


def _canonical(owner: NumberField, nums, den: int) -> "FieldElement":
    """The element nums/den, for den > 0, with the common factor removed."""
    g = math.gcd(den, *nums)
    if g != 1:
        return FieldElement(owner, tuple(n // g for n in nums), den // g)
    return FieldElement(owner, tuple(nums), den)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """sum_i nums[i] x^i / den, with den > 0 and gcd(den, *nums) == 1.

    The representation is canonical, so equal values compare and hash equal.
    """

    owner: NumberField
    nums: tuple[int, ...]
    den: int

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        owner = self.owner
        if other.owner is not owner and other.owner != owner:
            raise FieldMismatch()
        da, db = self.den, other.den
        if da == db:
            nums = [a + b for a, b in zip(self.nums, other.nums)]
            if da == 1:
                return FieldElement(owner, tuple(nums), 1)
            return _canonical(owner, nums, da)
        return _canonical(
            owner, [a * db + b * da for a, b in zip(self.nums, other.nums)], da * db
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        owner = self.owner
        if other.owner is not owner and other.owner != owner:
            raise FieldMismatch()
        da, db = self.den, other.den
        if da == db:
            nums = [a - b for a, b in zip(self.nums, other.nums)]
            if da == 1:
                return FieldElement(owner, tuple(nums), 1)
            return _canonical(owner, nums, da)
        return _canonical(
            owner, [a * db - b * da for a, b in zip(self.nums, other.nums)], da * db
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.owner, tuple(-a for a in self.nums), self.den)

    def scale(self, q) -> "FieldElement":
        q = Fraction(q)
        n = q.numerator
        return _canonical(
            self.owner, [a * n for a in self.nums], self.den * q.denominator
        )

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        owner = self.owner
        if other.owner is not owner and other.owner != owner:
            raise FieldMismatch()
        deg = owner.degree
        den = self.den * other.den
        if deg == 1:
            return _canonical(owner, (self.nums[0] * other.nums[0],), den)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums, i):
                    if b:
                        prod[j] += a * b
        # reduce modulo the integer-scaled minimal polynomial, top term first
        scale, reducer = owner._scale, owner._reducer
        for i in range(2 * deg - 2, deg - 1, -1):
            c = prod[i]
            if c:
                if scale != 1:
                    for k in range(i):
                        prod[k] *= scale
                    den *= scale
                base = i - deg
                for j, r in reducer:
                    prod[base + j] -= c * r
        del prod[deg:]
        return _canonical(owner, prod, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Inverse by fraction-free (Bareiss) elimination.

        Column j of the integer matrix M is scale^j * (nums * x^j mod p), so
        M z = den * e_1 gives the inverse's coordinates scale^j * z_j.  The
        Gauss-Jordan form keeps every entry an integer and ends with det(M)
        on the whole diagonal; M is singular exactly when the element is a
        zero divisor, which for irreducible p means zero.
        """
        if self.is_zero:
            raise NotInvertible("zero element")
        owner = self.owner
        deg = owner.degree
        scale, reducer = owner._scale, owner._reducer
        col = list(self.nums)
        cols = [col]
        for _ in range(deg - 1):
            top = col[-1]
            col = [0] + (col[:-1] if scale == 1 else [scale * c for c in col[:-1]])
            for j, r in reducer:
                col[j] -= top * r
            cols.append(col)
        rows = [[c[i] for c in cols] + [0] for i in range(deg)]
        rows[0][deg] = self.den
        prev = 1
        for k in range(deg):
            piv = next((r for r in range(k, deg) if rows[r][k]), None)
            if piv is None:
                raise NotInvertible("gcd with minimal polynomial is not constant")
            rows[k], rows[piv] = rows[piv], rows[k]
            pivot_row = rows[k]
            p = pivot_row[k]
            for i in range(deg):
                if i != k:
                    row = rows[i]
                    f = row[k]
                    rows[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            prev = p
        # det * z_i sits at the end of row i; coordinate i is scale^i * z_i
        sgn = 1 if prev > 0 else -1
        nums = []
        w = sgn
        for row in rows:
            nums.append(w * row[deg])
            w *= scale
        return _canonical(owner, nums, sgn * prev)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.owner.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coords]})"


@dataclass(frozen=True, slots=True)
class OrderingHandle:
    """One real root of the minimal polynomial, with an isolating interval."""

    owner: NumberField
    root_index: int
    isolating: Interval

    def __repr__(self) -> str:
        return f"OrderingHandle(#{self.root_index} in [{self.isolating.lo}, {self.isolating.hi}])"


def list_orderings(field: NumberField) -> tuple[OrderingHandle, ...]:
    """All orderings of the field, in increasing root order."""
    if field._orderings is None:
        ivs = isolate_real_roots(field.min_poly)
        if not ivs:
            raise NotFormallyReal()
        field._orderings = tuple(
            OrderingHandle(field, i, iv) for i, iv in enumerate(ivs)
        )
    return field._orderings


# bisections of one ordering's interval before sign_of leaves every
# undecided element to the Tarski query
_NARROW_CAP = 64


def sign_of(alpha: FieldElement, P: OrderingHandle) -> int:
    """Exact sign of alpha at the ordering P, zero included.

    Interval Horner over P's narrowed interval first, bisecting it while
    the bound straddles 0 and the ordering's cap allows; the narrowed
    interval is stored back on the field.  Otherwise one localized Tarski
    query: across the isolating interval of P, whose endpoints are not roots
    of min_poly, the chain seeded with (min_poly, min_poly' * alpha mod
    min_poly) drops by sgn alpha(root).  alpha * den has alpha's sign, so
    both read the numerators alone.
    """
    field = P.owner
    if alpha.owner is not field and alpha.owner != field:
        raise FieldMismatch()
    if alpha.is_rational:
        return sign(alpha.nums[0])
    nums = alpha.nums
    orderings = field._orderings
    # a handle built outside list_orderings need not match the narrowed
    # interval at its index
    if orderings is not None and orderings[P.root_index] is P:
        state = field._narrowed[P.root_index]
        lo, hi, q, p_lo_negative, steps = state
        ints = field._ints
        while True:
            s = _interval_sign(nums, lo, hi, q)
            if s or steps == _NARROW_CAP:
                break
            lo, hi, q = _halve(ints, lo, hi, q, p_lo_negative)
            steps += 1
        if steps != state[4]:
            field._narrowed[P.root_index] = (lo, hi, q, p_lo_negative, steps)
        if s:
            return s
    iv = P.isolating
    return _tarski_chain(field._ints, nums).count_in(iv.lo, iv.hi)


def harrison_set(us) -> tuple[OrderingHandle, ...]:
    """Orderings at which every given element is strictly positive."""
    us = list(us)
    if not us:
        raise ZeroElement("empty element list")
    field = us[0].owner
    for u in us:
        if u.owner != field:
            raise FieldMismatch()
        if u.is_zero:
            raise ZeroElement()
    return tuple(
        P for P in list_orderings(field) if all(sign_of(u, P) == 1 for u in us)
    )


class FieldEmbedding:
    """Field morphism F -> L determined by the image of F's generator."""

    def __init__(self, src: NumberField, dst: NumberField, image: FieldElement):
        if image.owner != dst:
            raise FieldMismatch()
        value = _eval_poly_at(src.min_poly, image)
        if not value.is_zero:
            raise NotAnEmbedding()
        self.src = src
        self.dst = dst
        self.image = image

    def push(self, alpha: FieldElement) -> FieldElement:
        if alpha.owner != self.src:
            raise FieldMismatch()
        return _eval_poly_at(Polynomial(alpha.nums), self.image).scale(
            Fraction(1, alpha.den)
        )

    def restrict(self, Q: OrderingHandle) -> OrderingHandle:
        """The ordering of F induced by the ordering Q of L."""
        if Q.owner != self.dst:
            raise FieldMismatch()
        t = self.push(self.src.generator())
        for P in list_orderings(self.src):
            lo = self.dst.from_rational(P.isolating.lo)
            hi = self.dst.from_rational(P.isolating.hi)
            if sign_of(t - lo, Q) > 0 and sign_of(hi - t, Q) > 0:
                return P
        raise AssertionError("generator image matches no isolating interval")


def _eval_poly_at(p: Polynomial, x: FieldElement) -> FieldElement:
    acc = x.owner.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + x.owner.from_rational(c)
    return acc


def embed_field(
    src: NumberField, dst: NumberField, image_of_generator: FieldElement
) -> FieldEmbedding:
    return FieldEmbedding(src, dst, image_of_generator)
