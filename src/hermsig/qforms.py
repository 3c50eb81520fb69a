"""Quadratic forms over a number field.

The diagonal presentation is canonical.  A quadratic form over F is the
hermitian form over the base kind (F, id), so a Gram matrix is brought to
this presentation by `hermitian.diagonalize_hermitian` over
`algebras.base_desc(F)`.  Singular forms keep their zero entries, and the
Sylvester signature ignores them.
"""

from __future__ import annotations

from .errors import FieldMismatch, ZeroElement
from .orderings import NumberField, OrderingHandle, sign_of


class QuadraticForm:
    __slots__ = ("owner", "diag")

    def __init__(self, owner: NumberField, diag):
        diag = tuple(diag)
        for d in diag:
            if d.owner != owner:
                raise FieldMismatch()
        self.owner = owner
        self.diag = diag

    @property
    def dim(self) -> int:
        return len(self.diag)

    def rank(self) -> int:
        return sum(1 for d in self.diag if not d.is_zero)

    @property
    def is_nonsingular(self) -> bool:
        return self.rank() == self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.owner == other.owner
            and self.diag == other.diag
        )

    def __repr__(self) -> str:
        return f"QuadraticForm<{self.dim}>"


def signature_qf(q: QuadraticForm, P: OrderingHandle) -> int:
    """Positive minus negative diagonal entries at P."""
    if q.owner != P.owner:
        raise FieldMismatch()
    return sum(sign_of(d, P) for d in q.diag)


def tensor(a: QuadraticForm, b: QuadraticForm) -> QuadraticForm:
    if a.owner != b.owner:
        raise FieldMismatch()
    return QuadraticForm(a.owner, [x * y for x in a.diag for y in b.diag])


def pfister(us) -> QuadraticForm:
    """The 2^k-dimensional form <1,u_1> x ... x <1,u_k>."""
    us = list(us)
    if not us:
        raise ZeroElement("empty generator list")
    owner = us[0].owner
    for u in us:
        if u.owner != owner:
            raise FieldMismatch()
        if u.is_zero:
            raise ZeroElement()
    out = QuadraticForm(owner, [owner.one()])
    for u in us:
        out = tensor(out, QuadraticForm(owner, [owner.one(), u]))
    return out
