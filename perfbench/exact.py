"""Exact arithmetic the benchmark uses to build inputs and check answers.

Independent of hermsig: fields are Q[x]/(x^d - c) with d in {1, 2, 4}, held
as tuples of Fractions; coefficients of D are tuples of 1 or 4 field elements
(F itself, or the quaternions (a, b)_F); signs at an ordering come from
rational intervals around the real root, refined by bisection.  No floats.
"""

from __future__ import annotations

from fractions import Fraction

BASE = "base"
QUADRATIC = "quadratic"
QUATERNION = "quaternion"
DIMS = {BASE: 1, QUADRATIC: 2, QUATERNION: 4}


class Field:
    """Q[x]/(x^d - c) for c > 0 a non-square (d > 1), or Q itself (d = 1).

    Orderings are numbered like hermsig numbers them: by increasing real
    root, so index 0 is the negative root and index 1 the positive one.
    """

    def __init__(self, d: int, c: int = 0):
        self.d = d
        self.c = Fraction(c)
        self._roots: dict[int, tuple[Fraction, Fraction]] = {}

    def min_poly(self) -> list[str]:
        """Coefficients of x^d - c, lowest degree first, as wire strings."""
        return [str(-self.c)] + ["0"] * (self.d - 1) + ["1"]

    @property
    def ordering_count(self) -> int:
        return 1 if self.d == 1 else 2

    def const(self, q) -> tuple:
        return (Fraction(q),) + (Fraction(0),) * (self.d - 1)

    def gen(self) -> tuple:
        return self.const(0) if self.d == 1 else (Fraction(0), Fraction(1)) + (
            Fraction(0),
        ) * (self.d - 2)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def mul(self, x, y):
        d = self.d
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        for i in range(2 * d - 2, d - 1, -1):
            prod[i - d] += prod[i] * self.c
        return tuple(prod[:d])

    def inv(self, x):
        """Inverse by solving x * y = 1 as a linear system over Q."""
        d = self.d
        cols = [self.mul(x, tuple(Fraction(int(i == j)) for i in range(d))) for j in range(d)]
        M = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for col in range(d):
            piv = next(r for r in range(col, d) if M[r][col])
            M[col], M[piv] = M[piv], M[col]
            p = M[col][col]
            M[col] = [v / p for v in M[col]]
            for r in range(d):
                if r != col and M[r][col]:
                    f = M[r][col]
                    M[r] = [v - f * w for v, w in zip(M[r], M[col])]
        return tuple(M[i][d] for i in range(d))

    def is_zero(self, x) -> bool:
        return not any(x)

    def _root_interval(self, index: int) -> tuple[Fraction, Fraction]:
        if self.d == 1:
            return self.c, self.c
        if index not in self._roots:
            hi = Fraction(1)
            while hi ** self.d < self.c:
                hi *= 2
            iv = (Fraction(0), hi)
            self._roots[index] = iv if index == 1 else (-iv[1], -iv[0])
        return self._roots[index]

    def _refine(self, index: int) -> None:
        lo, hi = self._roots[index]
        mid = (lo + hi) / 2
        # x^d - c is increasing on the positive root's side, decreasing on
        # the negative one's (d even)
        below = mid ** self.d < self.c
        if index == 1:
            self._roots[index] = (mid, hi) if below else (lo, mid)
        else:
            self._roots[index] = (lo, mid) if below else (mid, hi)

    def sign(self, x, index: int) -> int:
        """Exact sign of x at the ordering with the given root index."""
        if not any(x[1:]):
            return (x[0] > 0) - (x[0] < 0)
        while True:
            lo, hi = self._root_interval(index)
            vlo, vhi = interval_eval([x[k] for k in range(self.d)], lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self._refine(index)

    def abs_bound(self, x) -> Fraction:
        """An upper bound for |x| at every ordering."""
        lo, hi = self._root_interval(1)
        r = max(abs(lo), abs(hi))
        return sum((abs(a) * r**k for k, a in enumerate(x)), Fraction(0))


def interval_eval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds of sum coeffs[k] x^k over x in [lo, hi] (interval Horner)."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


class Division:
    """D = F, F(sqrt d) or (a, b)_F with its canonical involution."""

    def __init__(self, F: Field, kind: str, d=None, a=None, b=None):
        self.F = F
        self.kind = kind
        self.dim = DIMS[kind]
        self.d, self.a, self.b = d, a, b

    def zero(self):
        return (self.F.const(0),) * self.dim

    def scalar(self, x):
        return (x,) + (self.F.const(0),) * (self.dim - 1)

    def add(self, x, y):
        return tuple(self.F.add(u, v) for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple(self.F.sub(u, v) for u, v in zip(x, y))

    def conj(self, x):
        return (x[0],) + tuple(self.F.neg(u) for u in x[1:])

    def mul(self, x, y):
        F = self.F
        m = F.mul
        if self.kind == BASE:
            return (m(x[0], y[0]),)
        if self.kind == QUADRATIC:
            return (
                F.add(m(x[0], y[0]), m(self.d, m(x[1], y[1]))),
                F.add(m(x[0], y[1]), m(x[1], y[0])),
            )
        a, b = self.a, self.b
        ab = m(a, b)
        return (
            F.sub(F.add(F.add(m(x[0], y[0]), m(a, m(x[1], y[1]))), m(b, m(x[2], y[2]))), m(ab, m(x[3], y[3]))),
            F.add(F.sub(F.add(m(x[0], y[1]), m(x[1], y[0])), m(b, m(x[2], y[3]))), m(b, m(x[3], y[2]))),
            F.sub(F.add(F.add(m(x[0], y[2]), m(x[2], y[0])), m(a, m(x[1], y[3]))), m(a, m(x[3], y[1]))),
            F.sub(F.add(F.add(m(x[0], y[3]), m(x[3], y[0])), m(x[1], y[2])), m(x[2], y[1])),
        )

    def norm(self, x):
        """x * conj(x), an element of F."""
        return self.mul(x, self.conj(x))[0]

    def abs_bound(self, x) -> Fraction:
        return sum((self.F.abs_bound(u) for u in x), Fraction(0))


def hermitian_pivots(D: Division, S):
    """Pivots of Gaussian elimination without row swaps on a hermitian S.

    Returns the diagonal of the LDL* factorization, or None when a zero
    pivot appears.  With no zero pivot, S is invertible and is congruent to
    the diagonal of pivots, so their signs give its signature.
    """
    F = D.F
    n = len(S)
    S = [list(row) for row in S]
    pivots = []
    for k in range(n):
        p = S[k][k][0]
        if F.is_zero(p):
            return None
        pivots.append(p)
        pinv = D.scalar(F.inv(p))
        for i in range(k + 1, n):
            f = D.mul(S[i][k], pinv)
            for j in range(k + 1, n):
                S[i][j] = D.sub(S[i][j], D.mul(f, S[k][j]))
    return pivots


def signature_at(D: Division, S, index: int) -> int | None:
    """Signature of a hermitian matrix over a division D at an ordering.

    None when the no-swap elimination meets a zero pivot (the answer is
    then not decided here).
    """
    pivots = hermitian_pivots(D, S)
    if pivots is None:
        return None
    return sum(D.F.sign(p, index) for p in pivots)


def felem_json(x) -> list[str]:
    return [str(a) for a in x]


def delem_json(x) -> list[list[str]]:
    return [felem_json(u) for u in x]


def matrix_json(M) -> list:
    return [[delem_json(e) for e in row] for row in M]
