"""Exact univariate polynomial arithmetic over the rationals.

Sturm chains, real root counting and isolation, Tarski queries, and counts
of roots under simultaneous sign conditions.  `Polynomial` coefficients are
``fractions.Fraction``; no floating point appears anywhere.  Every chain is
built on integer coefficient tuples by primitive pseudo-remainders: each
remainder is scaled by positive factors only and divided by its content, so
each member is a positive multiple of the member a division over Q would
give, and every sign-change count is the same.

Sign-condition counts come in two forms.  `count_roots_with_signs` isolates
the roots of m once and then runs one localized Tarski query per condition
on each surviving isolating interval, so its cost is linear in the number r
of conditions.  `count_roots_with_signs_formula` is the paper's averaged
inclusion-exclusion over the 2**r exponent vectors in {1,2}**r; it stays as
the isolation-free reference and is cross-checked against the first path
and against isolate-and-evaluate by the `sturm_sign_count_oracle` criterion.

Conventions:
  * coefficient sequences are lowest degree first;
  * sign-change counts delete zero entries from the sign sequence;
  * evaluation "at +/-infinity" uses the sign of the leading coefficient,
    with a factor (-1)**degree on the negative side;
  * interval root counts V(a) - V(b) refer to the half-open window (a, b]
    and are exact whenever neither endpoint is a root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyConditions,
    NotIsolating,
    NotSquarefree,
    SignConditionDegenerate,
    ZeroPolynomial,
)


def sign(x) -> int:
    """Sign of a rational number as -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True, slots=True)
class Interval:
    """Rational interval with lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(_mul(self.coeffs, other.coeffs))
        q = Fraction(other)
        return Polynomial([c * q for c in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact quotient and remainder; ``other`` must be nonzero."""
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quo), Polynomial(rem[: other.degree])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Bounds for the value set on [lo, hi], by interval Horner."""
        if self.is_zero:
            return Fraction(0), Fraction(0)
        alo = ahi = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd (zero for two zero inputs).

    Computed by a primitive remainder sequence on integer coefficients;
    every member is a nonzero rational multiple of the Euclidean one.
    """
    a, b = _primitive_integer(a), _primitive_integer(b)
    while b:
        a, b = b, _prem(a, b)
    return Polynomial(a).monic()


def is_squarefree(p: Polynomial) -> bool:
    if p.is_zero:
        return False
    if p.degree <= 1:
        return True
    return gcd(p, p.derivative()).degree == 0


def _count_changes(signs) -> int:
    changes = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            changes += 1
        prev = s
    return changes


def _primitive(cs) -> tuple[int, ...]:
    """Integer list without trailing zeros, divided by its positive content."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _primitive_integer(f: Polynomial) -> tuple[int, ...]:
    """Coprime integer coefficients of a positive multiple of f; () for zero."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return _primitive(c.numerator * (den // c.denominator) for c in f.coeffs)


def _mul(a, b) -> list:
    """Product of two coefficient sequences, integer or rational."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _prem(a, b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive positive integer multiple of a mod b, for b with b[-1] != 0.

    Each step removes the leading term t of the partial remainder r as
    (|lc b| * r - sign(lc b) * t * x^k * b) / gcd(lc b, t): the scale on r is
    positive, so the result is a positive multiple of the remainder over Q.
    """
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    for k in range(len(r) - 1 - db, -1, -1):
        t = r.pop()
        if t:
            g = math.gcd(lc, t)
            u, v = abs(lc) // g, (t if lc > 0 else -t) // g
            if u != 1:
                r = [u * c for c in r]
            for j, c in enumerate(b[:db], k):
                r[j] -= v * c
    return _primitive(r)


@dataclass(frozen=True)
class SturmSequence:
    """Signed remainder chain; ends at a gcd of the two seed polynomials.

    Its members are primitive integer coefficient tuples, lowest degree
    first, none zero: each is a positive multiple of the member a Euclidean
    chain over Q would hold, so sign sequences are the same.
    """

    members: tuple[tuple[int, ...], ...]

    def changes_at(self, x) -> int:
        """Sign changes at the rational x = p/q, q > 0.

        Each member f is read as q^deg(f) * f(p/q), an integer of the same
        sign, evaluated by Horner.
        """
        p, q = x.numerator, x.denominator
        values = []
        for cs in self.members:
            acc = cs[-1]
            qk = 1
            for c in cs[-2::-1]:
                qk *= q
                acc = acc * p + c * qk
            values.append(acc)
        return _count_changes(sign(v) for v in values)

    def changes_neg_inf(self) -> int:
        # (-1)**degree is -1 exactly when the member has an even length
        return _count_changes(
            sign(cs[-1]) if len(cs) % 2 else -sign(cs[-1]) for cs in self.members
        )

    def changes_pos_inf(self) -> int:
        return _count_changes(sign(cs[-1]) for cs in self.members)

    def count_in(self, lo, hi) -> int:
        """Roots of the seed in (lo, hi]; exact for non-root endpoints."""
        return self.changes_at(lo) - self.changes_at(hi)

    def count_all(self) -> int:
        return self.changes_neg_inf() - self.changes_pos_inf()


def _chain(f0: tuple[int, ...], f1: tuple[int, ...]) -> SturmSequence:
    """Chain of primitive integer members seeded with f0 and f1 (f0 nonzero)."""
    seq = [f0]
    if f1:
        seq.append(f1)
        while True:
            r = _prem(seq[-2], seq[-1])
            if not r:
                break
            seq.append(tuple(-c for c in r))
    return SturmSequence(tuple(seq))


def sturm_sequence(p: Polynomial) -> SturmSequence:
    """Canonical Sturm chain seeded with (p, p')."""
    if p.is_zero:
        raise ZeroPolynomial()
    f = _primitive_integer(p)
    return _chain(f, _primitive([i * c for i, c in enumerate(f)][1:]))


def count_real_roots(p: Polynomial, window: Interval | None = None) -> int:
    """Number of distinct real roots of p, in the window or on the whole line."""
    if p.is_zero:
        raise ZeroPolynomial()
    chain = sturm_sequence(p)
    if window is None:
        return chain.count_all()
    return chain.count_in(window.lo, window.hi)


def _root_bound(p: Polynomial) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    lead = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def isolate_real_roots(p: Polynomial) -> list[Interval]:
    """Disjoint rational intervals, one simple root each, ordered by midpoint.

    No endpoint is a root of p.  Raises NotSquarefree unless p is squarefree,
    read off the end of p's own Sturm chain; callers need not normalize p.
    """
    return _isolate(p, _squarefree_chain(p))


def _squarefree_chain(p: Polynomial) -> SturmSequence:
    """Sturm chain of p; raises unless p is nonzero and squarefree.

    The chain ends at gcd(p, p'), so it doubles as the squarefree test.
    """
    if p.is_zero:
        raise ZeroPolynomial()
    chain = sturm_sequence(p)
    if len(chain.members[-1]) > 1:
        raise NotSquarefree()
    return chain


def _isolate(p: Polynomial, chain: SturmSequence) -> list[Interval]:
    """Isolating intervals of squarefree p, given its Sturm chain.

    No endpoint is a root of p: endpoints are +/-bound, bisection midpoints
    that are not roots, or the non-root ends of a window carved around a
    rational root.
    """
    if p.degree == 0:
        return []
    bound = _root_bound(p)
    out: list[Interval] = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        c = chain.count_in(lo, hi)
        if c == 0:
            continue
        if c == 1:
            out.append(Interval(lo, hi))
            continue
        mid = (lo + hi) / 2
        if p(mid) == 0:
            # rational root exactly at the midpoint: carve out a window
            # around it with non-root endpoints, then recurse on the sides
            delta = (hi - lo) / 4
            while True:
                a, b = mid - delta, mid + delta
                if p(a) != 0 and p(b) != 0 and chain.count_in(a, b) == 1:
                    break
                delta /= 2
            out.append(Interval(a, b))
            stack.append((lo, a))
            stack.append((b, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    out.sort(key=lambda iv: iv.mid)
    return out


def tarski_query(m: Polynomial, g: Polynomial) -> int:
    """Sum of sgn(g(c)) over the real roots c of m.

    Computed as the sign-change difference of the chain seeded with
    (m, m'*g mod m) at -infinity and +infinity, never by evaluating at roots.
    """
    chain = _squarefree_chain(m)
    return _tarski_chain(chain.members[0], _primitive_integer(g)).count_all()


def _tarski_chain(m: tuple[int, ...], g) -> SturmSequence:
    """Chain whose variation difference over (a, b) is TaQ(g, m; a, b).

    m is primitive and g is a positive integer multiple of the condition.
    Valid for squarefree m and endpoints a, b that are not roots of m.
    Reducing m'*g mod m leaves the Cauchy index of (m'*g)/m unchanged and
    keeps every chain member below the degree of m.
    """
    return _chain(m, _prem(_mul([i * c for i, c in enumerate(m)][1:], g), m))


def _check_sign_conditions(m: Polynomial, gs) -> tuple[list, SturmSequence]:
    """Validate a sign-condition query; return the conditions and m's chain."""
    gs = list(gs)
    if not gs:
        raise EmptyConditions()
    chain = _squarefree_chain(m)
    for g in gs:
        if g.is_zero or gcd(m, g).degree > 0:
            raise SignConditionDegenerate()
    return gs, chain


def count_roots_with_signs(m: Polynomial, gs) -> int:
    """Number of real roots c of m with g(c) > 0 for every g in gs.

    Isolates the roots of m once.  For each condition g, one localized
    Tarski query decides sgn g(c) at every root c still counted: across an
    isolating interval (a, b) of c, the chain seeded with (m, m'*g mod m)
    drops by exactly sgn g(c), because a and b are not roots of m and g is
    coprime to m.  Roots failing a condition leave before the next one, so
    the work is one isolation plus at most r chains.
    """
    gs, chain = _check_sign_conditions(m, gs)
    roots = _isolate(m, chain)
    for g in gs:
        if not roots:
            break
        local = _tarski_chain(chain.members[0], _primitive_integer(g))
        roots = [iv for iv in roots if local.count_in(iv.lo, iv.hi) == 1]
    return len(roots)


def count_roots_with_signs_formula(m: Polynomial, gs) -> int:
    """`count_roots_with_signs` by the paper's averaged inclusion-exclusion.

    The count equals 2**(-r) * sum_e TaQ(g1**e1 * ... * gr**er, m) over the
    exponent vectors e in {1,2}**r; products are reduced mod m and scaled
    by positive integers, which leaves their signs at the roots of m
    unchanged.  Costs 2**r Tarski queries; kept as the isolation-free
    reference path.
    """
    gs, chain = _check_sign_conditions(m, gs)
    m = chain.members[0]
    r = len(gs)
    gs = [_primitive_integer(g) for g in gs]
    powers = [(_prem(g, m), _prem(_mul(g, g), m)) for g in gs]
    total = 0
    for factors in itertools.product(*powers):
        ge = (1,)
        for f in factors:
            ge = _prem(_mul(ge, f), m)
        total += _tarski_chain(m, ge).count_all()
    if total % (1 << r):
        raise AssertionError("sign-condition count is not divisible by 2^r")
    return total >> r


def refine_interval(p: Polynomial, iv: Interval, width: Fraction) -> Interval:
    """Shrink an isolating interval to the requested width by bisection."""
    if p.is_zero:
        raise ZeroPolynomial()
    width = Fraction(width)
    if iv.width == 0:
        if p(iv.lo) == 0:
            return iv
        raise NotIsolating()
    chain = sturm_sequence(p)
    if p(iv.lo) == 0:
        raise NotIsolating("left endpoint is a root")
    if chain.count_in(iv.lo, iv.hi) != 1:
        raise NotIsolating()
    lo, hi = iv.lo, iv.hi
    if p(hi) == 0:
        return Interval(hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return Interval(mid, mid)
        if chain.count_in(lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi)
