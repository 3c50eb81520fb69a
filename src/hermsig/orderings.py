"""Real number fields Q[x]/(p) and their orderings.

An ordering is a real root of the minimal polynomial, held as an isolating
rational interval whose endpoints are not roots of p.  The sign of a field
element a at an ordering is one localized Tarski query: the Sturm chain
seeded with (p, p'*a mod p), read across the isolating interval, drops by
exactly sgn a(root), zero included.  Real closures are never materialized.

Fields memoize their ordering list; the cache is idempotent, so concurrent
readers at worst recompute.
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
    _tarski_chain,
    is_squarefree,
    isolate_real_roots,
    sign,
)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_root_screen(p: Polynomial) -> None:
    """Reject min_poly of degree > 1 with an obvious rational root.

    Full irreducibility over Q stays the caller's contract; a reducible
    polynomial that slips past this screen surfaces later as NotInvertible.
    """
    if p.degree <= 1:
        return
    # integer-scale the coefficients
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    if ints[0] == 0:
        raise ReducibleMinPoly("zero is a root")
    for num in _divisors(ints[0]):
        for d in _divisors(ints[-1]):
            for s in (1, -1):
                if p(Fraction(s * num, d)) == 0:
                    raise ReducibleMinPoly(f"rational root {s * num}/{d}")


class NumberField:
    """The field Q[x]/(p) for a monic squarefree p, assumed irreducible."""

    def __init__(self, min_poly_coeffs):
        p = Polynomial(min_poly_coeffs).monic()
        if p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if not is_squarefree(p):
            raise NotSquarefree("minimal polynomial is not squarefree")
        _rational_root_screen(p)
        self.min_poly = p
        self.degree = p.degree
        self._orderings: tuple[OrderingHandle, ...] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return f"NumberField({[str(c) for c in self.min_poly.coeffs]})"

    def element(self, coords) -> "FieldElement":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate length does not match field degree")
        return FieldElement(self, coords)

    def from_rational(self, q) -> "FieldElement":
        return self.element([q] + [0] * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # Q[x]/(x - c): the generator is the rational c itself
            return self.from_rational(-self.min_poly.coeffs[0])
        return self.element([0, 1] + [0] * (self.degree - 2))


@dataclass(frozen=True, slots=True)
class FieldElement:
    owner: NumberField
    coords: tuple[Fraction, ...]

    def _check(self, other: "FieldElement") -> None:
        if self.owner != other.owner:
            raise FieldMismatch()

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coords[0]

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.owner, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.owner, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.owner, tuple(-a for a in self.coords))

    def scale(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self.owner, tuple(a * q for a in self.coords))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        deg = self.owner.degree
        if deg == 1:
            return FieldElement(self.owner, (self.coords[0] * other.coords[0],))
        prod = [Fraction(0)] * (2 * deg - 1)
        nontrivial = False
        for i, a in enumerate(self.coords):
            if a:
                nontrivial = True
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        if not nontrivial:
            return self
        # reduce modulo the monic minimal polynomial
        mp = self.owner.min_poly.coeffs
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c:
                prod[i] = Fraction(0)
                for j in range(deg):
                    prod[i - deg + j] -= c * mp[j]
        return FieldElement(self.owner, tuple(prod[:deg]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Inverse via the extended Euclidean algorithm with min_poly."""
        if self.is_zero:
            raise NotInvertible("zero element")
        a = Polynomial(self.coords)
        p = self.owner.min_poly
        # extended gcd: track s with s*a = g (mod p)
        r0, r1 = p, a
        s0, s1 = Polynomial([]), Polynomial([1])
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise NotInvertible("gcd with minimal polynomial is not constant")
        inv = s0 * (Fraction(1) / r0.coeffs[0])
        coords = list(inv.coeffs[: self.owner.degree])
        coords += [Fraction(0)] * (self.owner.degree - len(coords))
        return FieldElement(self.owner, tuple(coords))

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


def sign_of(alpha: FieldElement, P: OrderingHandle) -> int:
    """Exact sign of alpha at the ordering P, zero included.

    One localized Tarski query: across the isolating interval of P, whose
    endpoints are not roots of min_poly, the chain seeded with
    (min_poly, min_poly' * alpha mod min_poly) drops by sgn alpha(root).
    """
    if alpha.owner != P.owner:
        raise FieldMismatch()
    if alpha.is_rational:
        return sign(alpha.coords[0])
    iv = P.isolating
    chain = _tarski_chain(P.owner.min_poly, Polynomial(alpha.coords))
    return chain.count_in(iv.lo, iv.hi)


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
        return _eval_poly_at(Polynomial(alpha.coords), self.image)

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

    def compatible_orderings(self, P: OrderingHandle) -> tuple[OrderingHandle, ...]:
        """Orderings of L restricting to P; may be empty."""
        if P.owner != self.src:
            raise FieldMismatch()
        return tuple(
            Q for Q in list_orderings(self.dst) if self.restrict(Q) == P
        )


def _eval_poly_at(p: Polynomial, x: FieldElement) -> FieldElement:
    acc = x.owner.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + x.owner.from_rational(c)
    return acc


def embed_field(
    src: NumberField, dst: NumberField, image_of_generator: FieldElement
) -> FieldEmbedding:
    return FieldEmbedding(src, dst, image_of_generator)
