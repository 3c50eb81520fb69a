"""The signature kernel as an m-ideal, with certified membership.

A form h lies in the kernel module over a cone exactly when its signature
at the cone's ordering vanishes; that is the decision procedure.  The
constructive side produces witnesses: a quadratic form q with nonzero
signature such that q tensor h matches a balanced diagonal form whose
entries are invertible cone members, found by Sylvester reduction against
Phi and then against random cone members drawn one at a time, each only
after the previous reduction failed.  Witness isometries are evidenced by
rank plus signatures at every ordering, which is labeled as evidence and
never claimed to be a full isometry proof.

The sampled m-ideal suite (`mideal_check`) draws its units with the shared
`algebras.random_field_element` and reports each check through the shared
`cones.tally`, as the cone axioms do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ExpectedNPMember,
    NotInvertible,
    NotSymmetric,
    SingularForm,
)
from .algebras import AlgebraElement, random_field_element
from .cones import PositiveConeHandle, _oriented, cone_membership, sample_cone_member, tally
from .hermitian import (
    HermitianForm,
    _division_diagonal,
    _entry_form,
    _star_gram_diagonal,
    diagonal_form,
    form_direct_sum,
    form_repeat,
    form_scale,
    form_tensor_qf,
    is_unit,
    signature,
    signature_vector,
)
from .orderings import OrderingHandle, sign_of
from .qforms import QuadraticForm, signature_qf


def in_IP(q: QuadraticForm, P: OrderingHandle) -> bool:
    """Membership in the Witt-ring ideal of forms with zero signature at P."""
    return signature_qf(q, P) == 0


def in_NP(h: HermitianForm, cone: PositiveConeHandle) -> bool:
    """Membership in the kernel module: zero signature at the cone's ordering."""
    return signature(h, cone.ordering) == 0


@dataclass(frozen=True)
class ZWitness:
    q: QuadraticForm
    a_list: tuple[AlgebraElement, ...]
    b_list: tuple[AlgebraElement, ...]
    evidence: dict


@dataclass(frozen=True)
class NotFound:
    bound: int


def _balanced_form(cone: PositiveConeHandle, a_list, b_list) -> HermitianForm:
    A = cone.algebra
    return diagonal_form(A, list(a_list) + [-b for b in b_list])


def _isometry_evidence(left: HermitianForm, right: HermitianForm) -> dict:
    """Rank and per-ordering signature agreement; necessary conditions only."""
    lr, rr = left.rank(), right.rank()
    lv = signature_vector(left).values
    rv = signature_vector(right).values
    return {
        "rank_left": lr,
        "rank_right": rr,
        "signatures_left": list(lv),
        "signatures_right": list(rv),
        "match": lr == rr and lv == rv,
    }


def sylvester_reduction(
    h: HermitianForm, a: AlgebraElement, cone: PositiveConeHandle
):
    """Reduce h against an invertible cone member a.

    Returns (q, u_list, v_list, evidence) where q is the diagonalization of
    <a> * <a>, the u's and v's are the positive entries read off the
    diagonalization of h * <a> split by sign at the cone's ordering, and the
    evidence records rank and all-orderings signature agreement of
    q tensor h against (<u_1..u_r> perp <-v_1..-v_s>) tensor <a>.  h is
    checked nonsingular, then a symmetric, then a unit, each once: both star
    Grams are read by `_star_gram_diagonal` directly, without the symmetry
    check `star_pairing_form` makes for outside callers.  The right side
    scales the diagonal <a> holds instead of diagonalizing each u*a.
    """
    A = h.owner
    P = cone.ordering
    if not h.is_nonsingular:
        raise SingularForm()
    if not A.is_symmetric(a):
        raise NotSymmetric()
    if not is_unit(a):
        raise NotInvertible()
    unit = _entry_form(a)
    q = QuadraticForm(A.field, _star_gram_diagonal(unit, a))
    paired = _star_gram_diagonal(h, a)
    u_list, v_list = [], []
    for entry in paired:
        s = sign_of(entry, P)
        if s > 0:
            u_list.append(entry)
        elif s < 0:
            v_list.append(-entry)
        else:
            raise AssertionError("nonsingular pairing produced a null entry")
    left = form_tensor_qf(q, h)
    right = form_tensor_qf(
        QuadraticForm(A.field, u_list + [-v for v in v_list]), unit
    )
    evidence = _isometry_evidence(left, right)
    return q, tuple(u_list), tuple(v_list), evidence


def _quick_balanced_witness(h, entries, cone):
    """Split h, congruent to the diagonal form on `entries`, into cone members.

    Succeeds exactly when every entry is invertible and lies in the cone or
    its negative and the two counts agree; then q = <1> works.
    """
    A = cone.algebra
    members, antimembers = [], []
    for e in entries:
        if not is_unit(e):
            return None
        if cone_membership(e, cone)[0]:
            members.append(e)
        elif cone_membership(-e, cone)[0]:
            antimembers.append(-e)
        else:
            return None
    if len(members) != len(antimembers):
        return None
    q = QuadraticForm(A.field, [A.field.one()])
    right = _balanced_form(cone, members, antimembers)
    evidence = _isometry_evidence(h, right)
    if not evidence["match"]:
        return None
    return ZWitness(q, tuple(members), tuple(antimembers), evidence)


def find_Z_witness(
    h: HermitianForm, cone: PositiveConeHandle, search_bound: int = 8, rng=None
):
    """Search for a balanced-diagonal witness for a kernel member.

    Tries the direct split with q = <1> first (on the form's diagonal, times
    Phi, when n = 1), then the Sylvester reduction against Phi, then, when
    an rng is given, reductions against random invertible cone members.  Each member is drawn only after the previous reduction failed,
    and at most search_bound are drawn, so the rng advances by the members
    tried and no further.  A NotFound result is not a disproof.
    """
    A = cone.algebra
    if not h.is_nonsingular:
        raise SingularForm()
    if signature(h, cone.ordering) != 0:
        raise ExpectedNPMember()
    if A.n == 1:
        # over a division ring the form always diagonalizes with F-entries
        entries = [A.scalar(x) for x in _division_diagonal(h)]
    elif h.is_diagonal():
        entries = [row[i] for b in h.blocks for i, row in enumerate(b)]
    else:
        entries = None
    if entries is not None:
        w = _quick_balanced_witness(h, entries, cone)
        if w is not None:
            return w
    draws = search_bound if rng is not None else 0
    # a member is drawn only after the previous reduction has failed
    pool = itertools.chain(
        [_oriented(A.phi_element(), cone)],
        (sample_cone_member(cone, rng, invertible=True) for _ in range(draws)),
    )
    for a in pool:
        q, u_list, v_list, evidence = sylvester_reduction(h, a, cone)
        if len(u_list) == len(v_list) and evidence["match"]:
            a_list = tuple(u * a for u in u_list)
            b_list = tuple(v * a for v in v_list)
            return ZWitness(q, a_list, b_list, evidence)
    return NotFound(search_bound)


def verify_witness(w: ZWitness, h: HermitianForm, cone: PositiveConeHandle) -> bool:
    """Re-check every claim a witness makes, from scratch."""
    A = cone.algebra
    if len(w.a_list) != len(w.b_list):
        return False
    if signature_qf(w.q, cone.ordering) == 0:
        return False
    for x in list(w.a_list) + list(w.b_list):
        if not A.is_symmetric(x):
            return False
        # a fresh certificate; x is a unit exactly when its diagonal has no zero
        member, cert = cone_membership(x, cone)
        if not member or any(d.is_zero for d in cert.diagonal):
            return False
    left = form_tensor_qf(w.q, h)
    right = _balanced_form(cone, w.a_list, w.b_list)
    ev = _isometry_evidence(left, right)
    return ev["match"]


# the torsion check repeats each sample 2 to _TORSION_MAX times
_TORSION_MAX = 8


def mideal_check(
    cone: PositiveConeHandle,
    samples,
    rng,
    membership=None,
) -> dict:
    """Sampled m-ideal suite for (I_P, N_P) over the given cone.

    ``samples`` is a list of nonsingular hermitian forms.  ``membership``
    may replace the kernel decision for negative controls.  Each of the six
    checks is one `tally`, evaluated in report order, so the rng draws its
    units in that order.
    """
    A = cone.algebra
    P = cone.ordering
    field = A.field
    if membership is None:
        membership = lambda h: in_NP(h, cone)

    def rand_unit():
        while True:
            u = random_field_element(field, rng)
            if not u.is_zero:
                return u

    def rand_positive():
        u = rand_unit()
        return -u if sign_of(u, P) < 0 else u

    samples = list(samples)
    kernel_members = [form_direct_sum(s, form_scale(field.from_rational(-1), s)) for s in samples]
    kernel_members += [s for s in samples if membership(s)]

    def primality():
        for s in samples:
            q = QuadraticForm(field, [rand_unit() for _ in range(rng.randint(1, 2))])
            if membership(form_tensor_qf(q, s)):
                yield in_IP(q, P) or membership(s)
        # make sure the hypothesis is exercised at least once
        q0 = QuadraticForm(field, [field.one(), field.from_rational(-1)])
        for s in samples[:5]:
            if membership(form_tensor_qf(q0, s)):
                yield in_IP(q0, P) or membership(s)

    def torsion_free():
        for s in samples:
            for ell in range(2, _TORSION_MAX + 1):
                if membership(form_repeat(ell, s)):
                    yield membership(s)
        for h in kernel_members[:5]:
            for ell in (2, 3):
                yield membership(form_repeat(ell, h)) and membership(h)

    report = {
        "N_plus_N": tally(
            membership(form_direct_sum(h, kernel_members[(i + 1) % len(kernel_members)]))
            for i, h in enumerate(kernel_members)
        ),
        "WF_times_N": tally(membership(form_scale(rand_unit(), h)) for h in kernel_members),
        "IP_times_W": tally(
            membership(form_tensor_qf(QuadraticForm(field, [field.one(), -rand_positive()]), s))
            for s in samples
        ),
        "N_proper": tally([not membership(diagonal_form(A, [A.phi_element()]))]),
        "primality": tally(primality()),
        "torsion_free": tally(torsion_free()),
    }
    report["pass"] = all(check["pass"] for check in report.values())
    return report
