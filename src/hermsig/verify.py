"""The property suite behind the `verify` command.

Each criterion is a standalone function returning a CriterionResult; the
CLI and the acceptance tests share this module so there is exactly one
definition of what passing means.  Everything is exact: no tolerances,
integer and rational equalities only.  Sample sizes are the suite
defaults; a seed makes every run reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import OrderingDoesNotRestrict
from .exactnum import (
    Polynomial,
    _interval_sign,
    _primitive_integer,
    _real_roots,
    _scaled_value,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    is_coprime,
    is_squarefree,
)
from .orderings import NumberField, embed_field, list_orderings
from .qforms import signature_qf
from .algebras import (
    DElement,
    base_desc,
    make_algebra,
    nil_orderings,
    quadratic_desc,
    quaternion_desc,
    random_field_element,
)
from .hermitian import (
    congruence_transform,
    diagonal_form,
    is_unit,
    local_degree_nP,
    max_signature_mP,
    random_symmetric_unit,
    sample_symmetric,
    signature,
    signature_vector,
    star_pairing,
    trace_transfer,
)
from .cones import (
    PositiveConeHandle,
    cone_axioms_check,
    cone_membership,
    extend_cone,
    list_positive_cones,
    sample_axiom_set,
    sample_cone_member,
)
from .wittideal import (
    ZWitness,
    find_Z_witness,
    mideal_check,
    verify_witness,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def standard_fields() -> dict:
    return {
        "qq": NumberField([0, 1]),
        "rt2": NumberField([-2, 0, 1]),
        "rt4": NumberField([-2, 0, 0, 0, 1]),
    }


def standard_algebras(fields=None) -> dict:
    """The desk-scale test algebras the suite runs over."""
    f = fields or standard_fields()
    qq, rt2 = f["qq"], f["rt2"]
    minus1 = qq.from_rational(-1)
    m1rt2 = rt2.from_rational(-1)
    base_qq = base_desc(qq)
    phi_indef = [
        [base_qq.from_field(qq.from_rational(1)), base_qq.zero()],
        [base_qq.zero(), base_qq.from_field(qq.from_rational(-1))],
    ]
    return {
        "qq_id": make_algebra(base_qq, 1),
        "qq_gauss": make_algebra(quadratic_desc(qq, minus1), 1),
        "qq_ham": make_algebra(quaternion_desc(qq, minus1, minus1), 1),
        "m2_qq": make_algebra(base_qq, 2),
        "m2_ham": make_algebra(quaternion_desc(qq, minus1, minus1), 2),
        "m2_gauss_rt2": make_algebra(quadratic_desc(rt2, m1rt2), 2),
        "m2_qq_phi": make_algebra(base_qq, 2, phi_indef),
        "rt2_nil_quad": make_algebra(quadratic_desc(rt2, rt2.generator()), 1),
        "rt2_nil_quat": make_algebra(
            quaternion_desc(rt2, m1rt2, rt2.generator()), 1
        ),
    }


def _random_poly(rng, max_deg, max_coeff):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-max_coeff, max_coeff)
    return Polynomial(coeffs + [lead])


def _oracle_sign_at_root(gs, ps, root):
    """Sign of g at the root of p isolated by `root`: interval refinement only.

    gs and ps are the integer coefficients of positive multiples of g and
    p, and `root` an integer triple (lo, hi, q) for the interval
    [lo/q, hi/q] whose ends are not roots of p and hold one root of p
    between them.  p changes sign across it; each step reads p at the
    midpoint, one Horner value, and keeps the half where p changes sign,
    the same way `orderings.sign_of` narrows.  Step k of the interval Horner
    bound of g is scaled by q^k, and p and g are read at the midpoint as
    q^deg times their values, so every test is an integer sign.  No chain
    is read, so the oracle shares no Sturm or Tarski work with either count
    it checks.
    """
    lo, hi, q = root
    lo_negative = _scaled_value(ps, lo, q) < 0
    if (_scaled_value(ps, hi, q) < 0) == lo_negative:
        raise AssertionError("p does not change sign across the interval")
    while True:
        s = _interval_sign(gs, lo, hi, q)
        if s:
            return s
        mid, lo, hi, q = lo + hi, 2 * lo, 2 * hi, 2 * q
        value = _scaled_value(ps, mid, q)
        if not value:
            v = _scaled_value(gs, mid, q)
            return (v > 0) - (v < 0)
        if (value < 0) == lo_negative:
            lo = mid
        else:
            hi = mid


def criterion_sturm_oracle(rng, instances: int = 1000) -> CriterionResult:
    """Both sign-condition count paths against isolate-and-evaluate.

    The oracle and the localized count read the one isolation m keeps, as
    integer triples, and the count reuses the Tarski chains `is_coprime`
    built on m.  The formula path reads no intervals and fills nothing; it
    reads those r singleton chains and builds the other 2**r - 1 - r.
    Every condition kept is coprime to m, which the formula's sum over
    subset products rests on; it reads the empty product's term off m's
    Sturm chain.  Isolate-and-evaluate narrows each isolating interval by
    the sign of m alone and reads no chain past the isolation, so it stays
    the independent check of both paths.  A faulty chain makes the
    isolation raise AssertionError rather than loop.
    """
    done = 0
    mismatches = 0
    while done < instances:
        m = _random_poly(rng, 8, 20)
        if not is_squarefree(m):
            continue
        gs = []
        want = rng.randint(1, 3)
        for _ in range(want):
            g = _random_poly(rng, 3, 10)
            if is_coprime(m, g):
                gs.append(g)
        if not gs:
            continue
        ps = _primitive_integer(m)
        conditions = [_primitive_integer(g) for g in gs]
        expected = sum(
            1
            for root in _real_roots(m)
            if all(_oracle_sign_at_root(g, ps, root) == 1 for g in conditions)
        )
        if (
            count_roots_with_signs(m, gs) != expected
            or count_roots_with_signs_formula(m, gs) != expected
        ):
            mismatches += 1
        done += 1
    return CriterionResult(
        "sturm_sign_count_oracle",
        mismatches == 0,
        {"instances": done, "mismatches": mismatches},
    )


def criterion_trace_transfer(algebras, rng, per_algebra: int = 500) -> CriterionResult:
    """Signature equals the {1, 1/2, 1/4} multiple of the transfer signature."""
    factors = {"base": 1, "quadratic": 2, "quaternion": 4}
    keys = ("qq_gauss", "qq_ham", "qq_id")
    failures = 0
    checked = 0
    for key in keys:
        A = algebras[key]
        factor = factors[A.desc.kind]
        for _ in range(per_algebra):
            k = rng.randint(1, 3)
            h = diagonal_form(A, [rng.randint(-9, 9) for _ in range(k)])
            bq = trace_transfer(h)
            for P in list_orderings(A.field):
                checked += 1
                if signature_qf(bq, P) != factor * signature(h, P):
                    failures += 1
    return CriterionResult(
        "trace_transfer_consistency",
        failures == 0,
        {"algebras": list(keys), "checked": checked, "failures": failures},
    )


def _random_invertible_over_algebra(A, k, rng):
    G = [[A.identity() if i == j else A.zero() for j in range(k)] for i in range(k)]
    for _ in range(3):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = sample_symmetric(A, rng, height=2)
        for r in range(k):
            G[r][j] = G[r][j] + G[r][i] * c
    return G


def criterion_congruence_invariance(algebras, rng, per_algebra: int = 500) -> CriterionResult:
    failures = 0
    checked = 0
    for key, A in algebras.items():
        for _ in range(per_algebra):
            k = rng.randint(1, 2)
            h = diagonal_form(
                A, [random_symmetric_unit(A, rng, 2) for _ in range(k)]
            )
            G = _random_invertible_over_algebra(A, k, rng)
            h2 = congruence_transform(h, G)
            checked += 1
            if signature_vector(h).values != signature_vector(h2).values:
                failures += 1
    return CriterionResult(
        "congruence_invariance",
        failures == 0,
        {"algebras": len(algebras), "checked": checked, "failures": failures},
    )


def criterion_nil_vanishing(algebras, rng, per_algebra: int = 200) -> CriterionResult:
    keys = ("rt2_nil_quad", "rt2_nil_quat")
    failures = 0
    checked = 0
    for key in keys:
        A = algebras[key]
        nil = nil_orderings(A)
        if not nil:
            failures += 1
            continue
        for _ in range(per_algebra):
            k = rng.randint(1, 2)
            h = diagonal_form(
                A, [random_symmetric_unit(A, rng, 3) for _ in range(k)]
            )
            bq = trace_transfer(h)
            for P in nil:
                checked += 1
                if signature(h, P) != 0 or signature_qf(bq, P) != 0:
                    failures += 1
    return CriterionResult(
        "nil_vanishing",
        failures == 0,
        {"algebras": list(keys), "checked": checked, "failures": failures},
    )


def criterion_max_equals_local_degree(algebras, rng, trials: int = 500) -> CriterionResult:
    keys = ("m2_qq", "m2_ham", "m2_gauss_rt2", "m2_qq_phi")
    failures = 0
    details = {}
    for key in keys:
        A = algebras[key]
        nil = set(nil_orderings(A))
        for P in list_orderings(A.field):
            if P in nil:
                continue
            try:
                value, witness = max_signature_mP(A, P, trials=trials, rng=rng)
            except AssertionError:
                failures += 1
                continue
            expected = local_degree_nP(A, P).value
            details[f"{key}@{P.root_index}"] = value
            if value != expected:
                failures += 1
            if signature(diagonal_form(A, [witness]), P) != expected:
                failures += 1
    return CriterionResult(
        "max_signature_equals_local_degree",
        failures == 0,
        {"values": details, "failures": failures, "trials": trials},
    )


def criterion_cone_equality(algebras, rng, per_algebra: int = 500) -> CriterionResult:
    """PSD-path membership against the signature criterion for units."""
    failures = 0
    checked = 0
    for key, A in algebras.items():
        cones = list_positive_cones(A)
        if not cones:
            continue
        for t in range(per_algebra):
            cone = cones[t % len(cones)]
            if t % 2 == 0:
                b = sample_cone_member(cone, rng, invertible=bool(t % 4 == 0))
            else:
                b = sample_symmetric(A, rng)
            member, w = cone_membership(b, cone)
            checked += 1
            if is_unit(b):
                n_p = local_degree_nP(A, cone.ordering).value
                sig = signature(diagonal_form(A, [b]), cone.ordering)
                if member != (sig == cone.orientation * n_p):
                    failures += 1
            elif member and not w.check(b, cone):
                # singular members still certify, checked by multiplication
                failures += 1
    return CriterionResult(
        "cone_membership_psd_vs_signature",
        failures == 0,
        {"checked": checked, "failures": failures},
    )


def criterion_cone_axioms(algebras, rng, sample_size: int = 200) -> CriterionResult:
    failures = 0
    cones_checked = 0
    controls_failed = 0
    for key, A in algebras.items():
        cones = list_positive_cones(A)
        if not cones:
            continue
        scalars = [random_field_element(A.field, rng) for _ in range(10)]
        scalars.append(A.field.zero())
        for cone in cones:
            report = cone_axioms_check(cone, sample_axiom_set(cone, rng, sample_size), scalars)
            cones_checked += 1
            if not report["pass"]:
                failures += 1
        # negative control: the union of both orientations is improper
        plus = cones[0]
        minus = PositiveConeHandle(A, plus.ordering, -plus.orientation)
        corrupted = lambda b: (
            cone_membership(b, plus)[0] or cone_membership(b, minus)[0]
        )
        small = [sample_cone_member(plus, rng) for _ in range(10)]
        control = cone_axioms_check(
            plus, small, [A.field.from_rational(2)], membership=corrupted
        )
        if control["P5"]["pass"]:
            controls_failed += 1
    passed = failures == 0 and controls_failed == 0
    return CriterionResult(
        "cone_axioms",
        passed,
        {
            "cones_checked": cones_checked,
            "failures": failures,
            "negative_controls_missed": controls_failed,
        },
    )


def criterion_same_signature(algebras, rng, per_cone: int = 200) -> CriterionResult:
    failures = 0
    checked = 0
    for key, A in algebras.items():
        for cone in list_positive_cones(A):
            n_p = local_degree_nP(A, cone.ordering).value
            for _ in range(per_cone):
                b = sample_cone_member(cone, rng, invertible=True)
                checked += 1
                if (
                    signature(diagonal_form(A, [b]), cone.ordering)
                    != cone.orientation * n_p
                ):
                    failures += 1
    return CriterionResult(
        "same_signature_on_cones",
        failures == 0,
        {"checked": checked, "failures": failures},
    )


def criterion_mideal(algebras, rng, per_algebra: int = 100) -> CriterionResult:
    failures = 0
    reports = {}
    for key, A in algebras.items():
        cones = list_positive_cones(A)
        if not cones:
            continue
        cone = cones[0]
        dim_cap = 1 if A.n > 1 else 2
        samples = [
            diagonal_form(
                A,
                [
                    random_symmetric_unit(A, rng, 2)
                    for _ in range(rng.randint(1, dim_cap))
                ],
            )
            for _ in range(per_algebra)
        ]
        report = mideal_check(cone, samples, rng)
        reports[key] = report["pass"]
        if not report["pass"]:
            failures += 1
        # negative control: rank parity in place of the signature criterion;
        # it admits <Phi> whenever the flattened rank n is even
        fake = lambda h: h.rank() % 2 == 0
        control = mideal_check(cone, samples[:5], rng, membership=fake)
        if control["N_proper"]["pass"] and A.n % 2 == 0:
            failures += 1
    return CriterionResult(
        "mideal_suite",
        failures == 0,
        {"per_algebra": reports, "failures": failures},
    )


def _height_fractions(limit: int):
    heights = range(1, limit + 1)
    return sorted({Fraction(num, den) for num in heights for den in heights})


def criterion_z_witness_small_scale(algebras, rng, height: int = 5) -> CriterionResult:
    """Exhaustive witness search for small balanced forms over division algebras."""
    failures = 0
    found = 0
    vals = _height_fractions(height)
    entries = vals + [-v for v in vals]
    for key in ("qq_id", "qq_ham"):
        A = algebras[key]
        cone = list_positive_cones(A)[0]
        P = cone.ordering
        for c1 in entries:
            for c2 in entries:
                h = diagonal_form(A, [c1, c2])
                if signature(h, P) != 0:
                    continue
                w = find_Z_witness(h, cone)
                if not isinstance(w, ZWitness) or not verify_witness(w, h, cone):
                    failures += 1
                else:
                    found += 1
        # non-diagonal Gram matrices, entries of small height
        for h in _small_gram_forms(A, 30 * height):
            if not h.is_nonsingular or signature(h, P) != 0:
                continue
            w = find_Z_witness(h, cone)
            if not isinstance(w, ZWitness) or not verify_witness(w, h, cone):
                failures += 1
            else:
                found += 1
    return CriterionResult(
        "z_witness_small_scale",
        failures == 0,
        {"witnesses": found, "failures": failures},
    )


def _small_gram_forms(A, count: int):
    """The first `count` of a fixed shuffle of small-entry 2x2 hermitian Grams."""
    from .hermitian import HermitianForm

    out = []
    desc = A.desc
    field = A.field
    combos = []
    if desc.kind == "base":
        for c1 in range(-5, 6):
            for c2 in range(-5, 6):
                for off in range(-5, 6):
                    combos.append((c1, c2, (off,)))
    else:
        coords = (-1, 0, 1)
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                for quad in itertools.product(coords, repeat=desc.dim):
                    combos.append((c1, c2, quad))
    rng2 = random.Random(4177)
    rng2.shuffle(combos)
    for c1, c2, off in combos[:count]:
        diag1 = desc.from_field(field.from_rational(c1))
        diag2 = desc.from_field(field.from_rational(c2))
        beta = DElement(desc, tuple(field.from_rational(v) for v in off))
        gram = [
            [A.element([[diag1]]), A.element([[beta]])],
            [A.element([[beta.conj()]]), A.element([[diag2]])],
        ]
        out.append(HermitianForm(A, gram))
    return out


def criterion_star_ratio(algebras, rng, per_cone: int = 10) -> CriterionResult:
    """sign(star(a,a)) / sign(<a>)^2 is one positive constant per ordering."""
    failures = 0
    ratios = {}
    for key, A in algebras.items():
        cones = list_positive_cones(A)
        if not cones:
            continue
        P = cones[0].ordering
        seen = None
        count = 0
        for cone in cones[:2]:
            for _ in range(per_cone):
                a = sample_cone_member(cone, rng, invertible=True)
                s = signature(diagonal_form(A, [a]), P)
                star_sig = signature_qf(star_pairing(a, a), P)
                if s == 0 or star_sig == 0:
                    failures += 1
                    continue
                ratio = Fraction(star_sig, s * s)
                if ratio <= 0:
                    failures += 1
                if seen is None:
                    seen = ratio
                elif ratio != seen:
                    failures += 1
                count += 1
        ratios[key] = str(seen)
        if count < 2 * per_cone:
            failures += 1
    return CriterionResult(
        "star_ratio_constancy",
        failures == 0,
        {"ratios": ratios, "failures": failures},
    )


def criterion_extension(fields, rng, samples: int = 200) -> CriterionResult:
    qq, rt2, rt4 = fields["qq"], fields["rt2"], fields["rt4"]
    emb1 = embed_field(qq, rt2, rt2.zero())
    emb2 = embed_field(rt2, rt4, rt4.element([0, 0, 1, 0]))
    failures = 0
    extensions = 0
    minus1 = qq.from_rational(-1)
    cases = [
        (emb1, make_algebra(base_desc(qq), 2)),
        (emb1, make_algebra(quaternion_desc(qq, minus1, minus1), 1)),
        (
            emb2,
            make_algebra(
                quaternion_desc(rt2, rt2.from_rational(-1), rt2.from_rational(-1)), 1
            ),
        ),
    ]
    for emb, A in cases:
        nil = set(nil_orderings(A))
        for P in list_orderings(A.field):
            if P in nil:
                continue
            cone = PositiveConeHandle(A, P, 1)
            for Q in list_orderings(emb.dst):
                if emb.restrict(Q) != P:
                    try:
                        extend_cone(emb, cone, Q)
                        failures += 1
                    except OrderingDoesNotRestrict:
                        pass
                    continue
                extended, report = extend_cone(
                    emb, cone, Q, samples=samples, rng=rng
                )
                extensions += 1
                if not report["pass"]:
                    failures += 1
                if (
                    local_degree_nP(extended.algebra, Q).value
                    != local_degree_nP(A, P).value
                ):
                    failures += 1
    return CriterionResult(
        "cone_extension",
        failures == 0 and extensions > 0,
        {"extensions": extensions, "samples": samples, "failures": failures},
    )


# The suite in run order: (criterion, sizes key, default size, runner).
# Every criterion draws from one rng shared in this order.  Runners get the
# standard fields and algebras as cached thunks, so they are built only when
# a picked criterion reads them; building them draws nothing.
_SUITE = (
    ("sturm_sign_count_oracle", "sturm_instances", 1000,
     lambda F, A, rng, n: criterion_sturm_oracle(rng, n)),
    ("trace_transfer_consistency", "trace_transfer", 500,
     lambda F, A, rng, n: criterion_trace_transfer(A(), rng, n)),
    ("congruence_invariance", "congruence", 500,
     lambda F, A, rng, n: criterion_congruence_invariance(A(), rng, n)),
    ("nil_vanishing", "nil_forms", 200,
     lambda F, A, rng, n: criterion_nil_vanishing(A(), rng, n)),
    ("max_signature_equals_local_degree", "max_trials", 500,
     lambda F, A, rng, n: criterion_max_equals_local_degree(A(), rng, n)),
    ("cone_membership_psd_vs_signature", "cone_equality", 500,
     lambda F, A, rng, n: criterion_cone_equality(A(), rng, n)),
    ("cone_axioms", "axiom_samples", 200,
     lambda F, A, rng, n: criterion_cone_axioms(A(), rng, n)),
    ("same_signature_on_cones", "same_signature", 200,
     lambda F, A, rng, n: criterion_same_signature(A(), rng, n)),
    ("mideal_suite", "mideal", 100,
     lambda F, A, rng, n: criterion_mideal(A(), rng, n)),
    ("z_witness_small_scale", "z_height", 5,
     lambda F, A, rng, n: criterion_z_witness_small_scale(A(), rng, n)),
    ("star_ratio_constancy", "star_members", 10,
     lambda F, A, rng, n: criterion_star_ratio(A(), rng, n)),
    ("cone_extension", "extension_samples", 200,
     lambda F, A, rng, n: criterion_extension(F(), rng, n)),
)
ALL_CRITERIA = tuple(name for name, _, _, _ in _SUITE)
SIZE_KEYS = tuple(key for _, key, _, _ in _SUITE)


def run_suite(seed: int = 0, only=None, sizes=None) -> list[CriterionResult]:
    """Run the property suite; `sizes` may shrink sample counts for smoke runs.

    `only` picks criteria by name; None runs all of them, and an empty
    selection runs none.
    """
    sizes = sizes or {}
    fields = functools.cache(standard_fields)
    algebras = functools.cache(lambda: standard_algebras(fields()))
    rng = random.Random(seed)
    picked = set(ALL_CRITERIA if only is None else only)
    return [
        run(fields, algebras, rng, sizes.get(key, default))
        for name, key, default, run in _SUITE
        if name in picked
    ]
