"""Exact univariate polynomial arithmetic over the rationals.

Sturm chains, real root counting and isolation, Tarski queries, and counts
of roots under simultaneous sign conditions.  `Polynomial` coefficients are
``fractions.Fraction``; no floating point appears anywhere.  Every chain is
built on integer coefficient tuples by primitive pseudo-remainders: each
remainder is scaled by positive factors only and divided by its content (and
by -1 for a chain's negated remainder) in one pass, so each member is a
positive multiple of the member a division over Q would give, and every
sign-change count is the same.  A normal step, where the degree drops by
one (almost every step of a chain), is computed in one pass as
lc^2 * a - (q1 x + q0) * b.  A `Polynomial` keeps what is computed on it
once built: its primitive integer coefficients; its Sturm chain, so the
squarefree test (the chain's last member is gcd(p, p')), isolation and
refinement of one polynomial share it; its isolating intervals, as integer
triples; and one Tarski chain per condition, keyed by the condition's
primitive integer coefficients.

Isolation runs on an integer grid.  Every endpoint is a dyadic multiple of
the Cauchy bound N/D, so intervals are bisected as integer numerators over
D*2**k; each midpoint is one integer reading of the chain, which gives both
its variation and whether the midpoint is a root.  Mahler's root-separation
bound caps the depth, so a faulty chain raises instead of looping.  The
isolation is kept as triples (lo, hi, q), the interval [lo/q, hi/q], and the
localized count, `orderings` and the verify suite read them as integers;
`Fraction`s appear only in the `Interval`s `isolate_real_roots` returns.

Integer interval Horner (`_interval_sign`) bounds a polynomial over an
interval with integer ends over one denominator; `orderings.sign_of` and
the verify suite's isolate-and-evaluate oracle read signs from it, and both
narrow an interval by the sign of the polynomial at its midpoint, reading
no chain.

Sign-condition counts come in two forms.  `count_roots_with_signs` isolates
the roots of m once and then runs one localized Tarski query per condition
on each surviving isolating interval, so its cost is linear in the number r
of conditions; the intervals and chains it uses are those m keeps.
`count_roots_with_signs_formula` is the paper's averaged inclusion-exclusion
over the 2**r exponent vectors in {1,2}**r.  Every condition is coprime to
m, so its square is positive at each real root of m and the sum runs over
the products of the 2**r subsets of the conditions: 2**r - 1 Tarski chains,
plus m's root count for the empty product.  Of these it reads the r
singleton chains m already keeps and builds the rest; it reads no intervals
and fills nothing.  It stays as the isolation-free reference and is
cross-checked against the first path and against isolate-and-evaluate, which
reads no chain at all past the isolation, by the `sturm_sign_count_oracle`
criterion.
No polynomial gcd is computed: for squarefree m the Tarski chain seeded
with (m, m'*g mod m) ends at gcd(m, g), so a condition sharing a root with
m is rejected from the last member of a chain the count builds anyway, and
`is_coprime` reads coprimality off the same chain m keeps for the count.

Conventions:
  * coefficient sequences are lowest degree first;
  * sign-change counts delete zero entries from the sign sequence;
  * evaluation "at +/-infinity" uses the sign of the leading coefficient,
    with a factor (-1)**degree on the negative side;
  * interval root counts V(a) - V(b) refer to the half-open window (a, b]
    and are exact whenever neither endpoint is a root.
"""

from __future__ import annotations

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


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs", "_ints", "_sturm", "_roots", "_tarski")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._ints: tuple[int, ...] | None = None  # filled by _primitive_integer
        self._sturm: SturmSequence | None = None  # filled by sturm_sequence
        # isolating triples (lo, hi, q), filled by _real_roots
        self._roots: tuple[tuple[int, int, int], ...] | None = None
        # primitive integer condition -> Tarski chain, filled by _tarski_of
        self._tarski: dict[tuple[int, ...], SturmSequence] | None = None

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

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])


def is_squarefree(p: Polynomial) -> bool:
    """Whether p is nonzero with gcd(p, p') constant: its Sturm chain's end."""
    return not p.is_zero and len(sturm_sequence(p).members[-1]) == 1


def _count_changes(values) -> int:
    """Sign changes along a sequence of numbers, zeros deleted."""
    changes, neg = 0, None
    for v in values:
        if v:
            changes += neg is not None and (v < 0) != neg
            neg = v < 0
    return changes


def _primitive(cs: list, sign: int = 1) -> tuple[int, ...]:
    """Integer list without trailing zeros, divided by sign times its content.

    The zeros are stripped from cs in place.
    """
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(*cs) * sign
    return tuple(cs) if g == 1 else tuple([c // g for c in cs])


def _primitive_integer(f: Polynomial) -> tuple[int, ...]:
    """Coprime integer coefficients of a positive multiple of f; () for zero.

    Computed once per polynomial and kept on f.
    """
    if f._ints is None:
        den = math.lcm(*(c.denominator for c in f.coeffs))
        f._ints = _primitive([c.numerator * (den // c.denominator) for c in f.coeffs])
    return f._ints


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


def _prem(a, b: tuple[int, ...], sign: int = 1) -> tuple[int, ...]:
    """Primitive integer multiple of sign * (a mod b) by a positive factor.

    b must have b[-1] != 0.  A normal step, deg a = deg b + 1 (almost
    every step of a chain), is one pass: with lc = b[-1], q1 = lc * a[-1] and
    q0 = lc * a[-2] - a[-1] * b[-2], r = lc^2 * a - (q1 x + q0) * b has its
    two top terms cancelled, and lc^2 > 0 makes it a positive multiple of
    the remainder over Q.  Any other degree gap removes the leading term t
    of the partial remainder r step by step as (|lc| * r - sign(lc) * t *
    x^k * b) / gcd(lc, t), again scaling r by positive factors only.  Either
    way trailing zeros are stripped in place and one pass divides by sign
    times the content (`_primitive`), so both give the same tuple, and
    `_chain` asks for sign -1 and gets its negated remainder without a
    second copy.
    """
    db = len(b) - 1
    lc = b[-1]
    if len(a) == db + 2 and db:
        top = a[-1]
        q1, q0, l2 = lc * top, lc * a[-2] - top * b[-2], lc * lc
        r = [l2 * a[0] - q0 * b[0]]
        r += [l2 * x - q1 * y - q0 * z for x, y, z in zip(a[1:db], b, b[1:])]
        return _primitive(r, sign)
    scale, flip, head = abs(lc), lc < 0, b[:db]
    r = list(a)
    for k in range(len(r) - 1 - db, -1, -1):
        t = r.pop()
        if t:
            g = math.gcd(scale, t)
            u, v = scale // g, (-t if flip else t) // g
            if u != 1:
                r = [u * c for c in r]
            for j, c in enumerate(head, k):
                r[j] -= v * c
    return _primitive(r, sign)


@dataclass(frozen=True)
class SturmSequence:
    """Signed remainder chain; ends at a gcd of the two seed polynomials.

    Its members are primitive integer coefficient tuples, lowest degree
    first, none zero: each is a positive multiple of the member a Euclidean
    chain over Q would hold, so sign sequences are the same.
    """

    members: tuple[tuple[int, ...], ...]

    def read(self, p: int, q: int) -> tuple[int, int]:
        """The first member's value and the sign changes at p/q, q > 0.

        p/q need not be in lowest terms.  Each member f is read as
        q^deg(f) * f(p/q), an integer of the same sign, by Horner; the first
        of these integers is zero exactly when p/q is a root of the seed.
        """
        values = []
        for cs in self.members:
            acc = cs[-1]
            qk = 1
            for c in cs[-2::-1]:
                qk *= q
                acc = acc * p + c * qk
            values.append(acc)
        return values[0], _count_changes(values)

    def changes_at(self, x) -> int:
        """Sign changes at the rational x."""
        return self.read(x.numerator, x.denominator)[1]

    def changes_neg_inf(self) -> int:
        # (-1)**degree is -1 exactly when the member has an even length
        return _count_changes(
            cs[-1] if len(cs) % 2 else -cs[-1] for cs in self.members
        )

    def changes_pos_inf(self) -> int:
        return _count_changes(cs[-1] for cs in self.members)

    def count_in(self, lo, hi) -> int:
        """Roots of the seed in (lo, hi]; exact for non-root endpoints."""
        return self.changes_at(lo) - self.changes_at(hi)

    def count_all(self) -> int:
        return self.changes_neg_inf() - self.changes_pos_inf()


def _scaled_value(cs, p: int, q: int) -> int:
    """q^(len(cs) - 1) * f(p/q), of the sign of f(p/q); cs integers, q > 0."""
    acc, qk = cs[-1], 1
    for c in cs[-2::-1]:
        qk *= q
        acc = acc * p + c * qk
    return acc


def _interval_sign(cs, lo: int, hi: int, q: int) -> int:
    """sgn f on [lo/q, hi/q] by integer interval Horner, or 0 when undecided.

    cs are f's integer coefficients, lowest first; q > 0.  After k steps
    both bounds are scaled by q^k, a positive factor, so their signs are
    those of the true bounds.  Leading zeros cost steps, not exactness.
    """
    f_lo = f_hi = cs[-1]
    qk = 1
    for c in cs[-2::-1]:
        qk *= q
        cands = (f_lo * lo, f_lo * hi, f_hi * lo, f_hi * hi)
        f_lo, f_hi = min(cands) + c * qk, max(cands) + c * qk
    if f_lo > 0:
        return 1
    if f_hi < 0:
        return -1
    return 0


def _chain(f0: tuple[int, ...], f1: tuple[int, ...]) -> SturmSequence:
    """Chain of primitive integer members seeded with f0 and f1 (f0 nonzero).

    Each later member is `_prem(prev, last, -1)`, the negated remainder in
    one pass.  A nonzero constant member ends the chain: any remainder by it
    is zero.
    """
    seq, r = [f0], f1
    while r:
        seq.append(r)
        r = _prem(seq[-2], r, -1) if len(r) > 1 else ()
    return SturmSequence(tuple(seq))


def sturm_sequence(p: Polynomial) -> SturmSequence:
    """Canonical Sturm chain seeded with (p, p'), built once per polynomial.

    The chain is kept on p, so the squarefree test, isolation, refinement
    and sign-condition counts on the same `Polynomial` share one chain.
    """
    if p._sturm is None:
        if p.is_zero:
            raise ZeroPolynomial()
        f = _primitive_integer(p)
        p._sturm = _chain(f, _primitive([i * c for i, c in enumerate(f)][1:]))
    return p._sturm


def count_real_roots(p: Polynomial, window: Interval | None = None) -> int:
    """Number of distinct real roots of p, in the window or on the whole line."""
    chain = sturm_sequence(p)
    if window is None:
        return chain.count_all()
    return chain.count_in(window.lo, window.hi)


def isolate_real_roots(p: Polynomial) -> list[Interval]:
    """Disjoint rational intervals, one simple root each, in increasing order.

    No endpoint is a root of p.  Raises NotSquarefree unless p is squarefree,
    read off the end of the Sturm chain p keeps; callers need not normalize p.
    The roots are isolated once, as integer triples kept on p (`_isolate`);
    each call reads them as a fresh list of `Interval`s.
    """
    return [Interval(Fraction(lo, q), Fraction(hi, q)) for lo, hi, q in _real_roots(p)]


def _squarefree_chain(p: Polynomial) -> SturmSequence:
    """Sturm chain of p; raises unless p is nonzero and squarefree.

    The chain ends at gcd(p, p'), so it doubles as the squarefree test.
    """
    chain = sturm_sequence(p)
    if len(chain.members[-1]) > 1:
        raise NotSquarefree()
    return chain


def _real_roots(p: Polynomial) -> tuple[tuple[int, int, int], ...]:
    """Isolating triples (lo, hi, q) of squarefree p, isolated once and kept on p."""
    if p._roots is None:
        p._roots = _isolate(_squarefree_chain(p))
    return p._roots


def _isolate(chain: SturmSequence) -> tuple[tuple[int, int, int], ...]:
    """Isolating triples (lo, hi, q) of a squarefree f, given its Sturm chain.

    Each triple is the interval [lo/q, hi/q], q > 0, holding one root of f;
    the triples are ordered by their roots.  Every endpoint is j*B/2**k for
    the Cauchy bound B = N/D = 1 + max|f_i| / |f_d| in lowest terms, taken
    on f's primitive integer coefficients, so each interval is carried as
    integer numerators over one denominator D*2**k, with the variations of
    the chain at both ends.  A bisection reads the chain once, at the
    midpoint, and the same reading says whether the midpoint is a root.  No
    endpoint is a root of f: endpoints are +/-B, bisection midpoints that
    are not roots, or the non-root ends of a window carved around a
    rational root.

    Isolation is bounded.  Distinct roots of f, of degree d, lie more than
    s = sqrt(3) * d**(-(d + 2)/2) * |f|_2**(1 - d) apart (Mahler 1964), and
    K = ceil(sqrt(d**(d + 2) * |f|_2**(2(d - 1)))) >= sqrt(3) / s is
    computed once, on integers.  An interval holding two roots is wider
    than s, and a window about a rational root fails its check (an end is a
    root, or it holds a second root) only while its half-width exceeds s.
    An interval of integer width W = hi - lo keeps W while it is
    bisected, so once q > W*K it is narrower than 1/K < s; each interval
    carries that limit, and a window of half-width delta has the limit
    delta*K.  A larger q, or a negative variation difference, can only come
    from a faulty chain and raises AssertionError instead of bisecting
    forever; the check is one comparison of q per step.
    """
    f = chain.members[0]
    d = len(f) - 1
    if d == 0:
        return ()
    lead = abs(f[-1])
    top = max(abs(c) for c in f[:-1])
    g = math.gcd(top, lead)
    n, q = (lead + top) // g, lead // g
    k = 1 + math.isqrt(d ** (d + 2) * sum(c * c for c in f) ** (d - 1) - 1)
    read = chain.read
    found = []
    stack = [(-n, n, q, read(-n, q)[1], read(n, q)[1], 2 * n * k)]
    while stack:
        lo, hi, q, v_lo, v_hi, limit = stack.pop()
        c = v_lo - v_hi
        if c == 0:
            continue
        if c == 1:
            found.append((lo, hi, q))
            continue
        if c < 0 or q > limit:
            raise AssertionError("Sturm chain does not isolate")
        mid, lo, hi, q = lo + hi, 2 * lo, 2 * hi, 2 * q
        value, v_mid = read(mid, q)
        if value:
            stack.append((lo, mid, q, v_lo, v_mid, limit))
            stack.append((mid, hi, q, v_mid, v_hi, limit))
            continue
        # rational root exactly at the midpoint: carve out the window
        # mid -/+ delta with non-root ends, delta a quarter of the width
        # halved until it holds one root, then recurse on the sides
        delta = hi - lo
        limit = delta * k
        lo, mid, hi, q = 4 * lo, 4 * mid, 4 * hi, 4 * q
        while True:
            a, b = mid - delta, mid + delta
            value_a, v_a = read(a, q)
            if value_a:
                value_b, v_b = read(b, q)
                if value_b and v_a - v_b == 1:
                    break
            if q > limit:
                raise AssertionError("Sturm chain does not isolate")
            lo, mid, hi, q = 2 * lo, 2 * mid, 2 * hi, 2 * q
        found.append((a, b, q))
        limit = (a - lo) * k
        stack.append((lo, a, q, v_lo, v_a, limit))
        stack.append((b, hi, q, v_b, v_hi, limit))
    q = max((q for _, _, q in found), default=1)
    return tuple(sorted(found, key=lambda t: t[0] * (q // t[2])))


def tarski_query(m: Polynomial, g: Polynomial) -> int:
    """Sum of sgn(g(c)) over the real roots c of m.

    Computed as the sign-change difference of the chain seeded with
    (m, m'*g mod m) at -infinity and +infinity, never by evaluating at roots;
    the chain is kept on m.
    """
    return _tarski_of(m, _squarefree_chain(m), _primitive_integer(g)).count_all()


def is_coprime(m: Polynomial, g: Polynomial) -> bool:
    """Whether squarefree m and g have no common root.

    For squarefree m the Tarski chain seeded with (m, m'*g mod m) ends at
    gcd(m, g), so this reads that chain's last member.  The chain is kept on
    m, and a later sign-condition count or Tarski query with g reuses it.
    """
    chain = _squarefree_chain(m)
    return len(_tarski_of(m, chain, _primitive_integer(g)).members[-1]) == 1


def _tarski_of(m: Polynomial, chain: SturmSequence, g: tuple[int, ...]) -> SturmSequence:
    """Tarski chain of squarefree m and the primitive condition g, kept on m.

    `chain` is m's Sturm chain; a positive multiple of a condition has the
    same primitive coefficients, so it finds the same chain.
    """
    chains = m._tarski
    if chains is None:
        chains = m._tarski = {}
    local = chains.get(g)
    if local is None:
        local = chains[g] = _tarski_chain(chain.members[0], g)
    return local


def _tarski_chain(m: tuple[int, ...], g) -> SturmSequence:
    """Chain whose variation difference over (a, b) is TaQ(g, m; a, b).

    m is primitive and g is a positive integer multiple of the condition.
    Valid for squarefree m and endpoints a, b that are not roots of m.
    Reducing m'*g mod m leaves the Cauchy index of (m'*g)/m unchanged and
    keeps every chain member below the degree of m.
    """
    return _chain(m, _prem(_mul([i * c for i, c in enumerate(m)][1:], g), m))


def _check_sign_conditions(m: Polynomial, gs) -> tuple[SturmSequence, list]:
    """Validate a sign-condition query; return m's chain and integer conditions.

    Coprimality of m and each condition is left to the callers, who read it
    off the Tarski chains they build anyway.
    """
    gs = list(gs)
    if not gs:
        raise EmptyConditions()
    chain = _squarefree_chain(m)
    if any(g.is_zero for g in gs):
        raise SignConditionDegenerate()
    return chain, [_primitive_integer(g) for g in gs]


def count_roots_with_signs(m: Polynomial, gs) -> int:
    """Number of real roots c of m with g(c) > 0 for every g in gs.

    Uses the isolating triples and Tarski chains m keeps, building those it
    lacks: the roots of m are isolated once, on its own Sturm chain, and
    each condition's chain is built once per polynomial.  For each
    condition g, one localized Tarski query decides sgn g(c) at every root c
    still counted: across an isolating interval (lo/q, hi/q) of c, the
    chain seeded with (m, m'*g mod m), read at the integers lo, hi over q,
    drops by exactly sgn g(c), because the ends are not roots of m and g is
    coprime to m.  All these chains are built
    before isolating: for squarefree m each one ends at gcd(m, g), so a
    nonconstant last member rejects a condition sharing a root with m, even
    one that comes after the roots have run out.  The work is at most one
    isolation plus r chains.
    """
    chain, gs = _check_sign_conditions(m, gs)
    queries = [_tarski_of(m, chain, g) for g in gs]
    if any(len(local.members[-1]) > 1 for local in queries):
        raise SignConditionDegenerate()
    roots = _real_roots(m)
    for local in queries:
        if not roots:
            break
        read = local.read
        roots = [t for t in roots if read(t[0], t[2])[1] - read(t[1], t[2])[1] == 1]
    return len(roots)


def count_roots_with_signs_formula(m: Polynomial, gs) -> int:
    """`count_roots_with_signs` by the paper's averaged inclusion-exclusion.

    The count equals 2**(-r) * sum_e TaQ(g1**e1 * ... * gr**er, m) over the
    exponent vectors e in {1,2}**r.  A count needs every condition coprime
    to m, so each g_i**2 is positive at every real root of m and the term
    of e equals TaQ(g_S, m), g_S the product of the g_i with e_i = 1: the
    sum runs over the subsets S of the conditions.  The empty product's
    term TaQ(1, m) is the number of real roots of m, read off m's Sturm
    chain, so the count costs 2**r - 1 Tarski chains.  The nonempty
    products are reduced mod m and scaled by positive integers, which
    leaves their signs at the roots of m unchanged, and built over a prefix
    tree without squares: level i keeps each product p and adds
    p * g_i mod m, one reduction per product.  The chain of the full
    product g1 * ... * gr is built first; it ends at gcd(m, g1 * ... * gr),
    and a nonconstant end rejects the query before any other chain is
    built.  Kept as the isolation-free reference path, it reads no
    intervals and fills nothing on m.  It reads the singleton chains m
    already keeps (from `is_coprime`, `tarski_query` or the localized
    count), keyed by the condition's primitive integer coefficients: the
    chain of g and that of g mod m are one tuple, since m'*(c*g - q*m) is
    c*m'*g mod m with c > 0.  It builds every other chain itself.
    """
    chain, gs = _check_sign_conditions(m, gs)
    kept = m._tarski or {}
    m = chain.members[0]
    products = []  # (the condition of a singleton, else None; product mod m)
    for g in gs:
        reduced = _prem(g, m)
        products += [(g, reduced)] + [(None, _prem(_mul(p, reduced), m)) for _, p in products]
    chains = (kept.get(g) or _tarski_chain(m, p) for g, p in reversed(products))
    full = next(chains)
    if len(full.members[-1]) > 1:
        raise SignConditionDegenerate()
    total = chain.count_all() + full.count_all() + sum(c.count_all() for c in chains)
    if total % (1 << len(gs)):
        raise AssertionError("sign-condition count is not divisible by 2^r")
    return total >> len(gs)


def refine_interval(p: Polynomial, iv: Interval, width: Fraction) -> Interval:
    """Shrink an isolating interval to the requested width by bisection.

    The ends are carried as integer numerators over one denominator, and
    each midpoint is one reading of p's Sturm chain, as in isolation.  The
    width must be positive (ValueError otherwise): bisection never reaches
    an irrational root exactly.
    """
    if p.is_zero:
        raise ZeroPolynomial()
    width = Fraction(width)
    if width <= 0:
        raise ValueError("refinement width must be positive")
    chain = sturm_sequence(p)
    q = math.lcm(iv.lo.denominator, iv.hi.denominator)
    lo = iv.lo.numerator * (q // iv.lo.denominator)
    hi = iv.hi.numerator * (q // iv.hi.denominator)
    value_lo, v_lo = chain.read(lo, q)
    if iv.width == 0:
        if value_lo == 0:
            return iv
        raise NotIsolating()
    if value_lo == 0:
        raise NotIsolating("left endpoint is a root")
    value_hi, v_hi = chain.read(hi, q)
    if v_lo - v_hi != 1:
        raise NotIsolating()
    if value_hi == 0:
        return Interval(iv.hi, iv.hi)
    while (hi - lo) * width.denominator > width.numerator * q:
        mid, lo, hi, q = lo + hi, 2 * lo, 2 * hi, 2 * q
        value, v_mid = chain.read(mid, q)
        if value == 0:
            return Interval(Fraction(mid, q), Fraction(mid, q))
        if v_lo - v_mid == 1:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    return Interval(Fraction(lo, q), Fraction(hi, q))
