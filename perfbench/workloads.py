"""Seeded job lists for the three benchmark workloads.

A job is one CLI call ``hermsig --seed S CMD --config FILE``.  A workload's
job list is a sequence of rounds.  Every round holds the same job shapes
(command, sizes, degrees, algebra kinds) in the same numbers, shuffled; only
coefficients, fields and job seeds are drawn fresh.  The timed phase runs
whole rounds, so the mix it measures does not depend on where the clock
stopped.  Everything is drawn from ``random.Random(f"{workload}:{seed}")``;
the same seed gives the same list.  Answers expected by the checks (block
signatures) are computed here with `exact`, never with hermsig.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from exact import BASE, QUADRATIC, QUATERNION, Division, Field, felem_json, matrix_json

# ---------------------------------------------------------------------------
# the nine standard algebras of hermsig's property suite, as wire descriptors
# plus the benchmark's own model of each (field, D, n, Phi = diag(phi_signs))

QQ = Field(1)
RT2 = Field(2, 2)


def _standard():
    m1 = QQ.const(-1)
    r_m1 = RT2.const(-1)
    table = {
        "qq_id": (QQ, Division(QQ, BASE), 1, None),
        "qq_gauss": (QQ, Division(QQ, QUADRATIC, d=m1), 1, None),
        "qq_ham": (QQ, Division(QQ, QUATERNION, a=m1, b=m1), 1, None),
        "m2_qq": (QQ, Division(QQ, BASE), 2, None),
        "m2_ham": (QQ, Division(QQ, QUATERNION, a=m1, b=m1), 2, None),
        "m2_gauss_rt2": (RT2, Division(RT2, QUADRATIC, d=r_m1), 2, None),
        "m2_qq_phi": (QQ, Division(QQ, BASE), 2, (1, -1)),
        "rt2_nil_quad": (RT2, Division(RT2, QUADRATIC, d=RT2.gen()), 1, None),
        "rt2_nil_quat": (RT2, Division(RT2, QUATERNION, a=r_m1, b=RT2.gen()), 1, None),
    }
    return {name: StandardAlgebra(*spec) for name, spec in table.items()}


def algebra_json(F: Field, D: Division, n: int) -> dict:
    division = {"kind": D.kind}
    if D.kind == QUADRATIC:
        division["d"] = felem_json(D.d)
    elif D.kind == QUATERNION:
        division.update(a=felem_json(D.a), b=felem_json(D.b))
    return {"field": {"min_poly": F.min_poly()}, "division": division, "n": n}


class StandardAlgebra:
    def __init__(self, F: Field, D: Division, n: int, phi_signs):
        self.F, self.D, self.n, self.phi_signs = F, D, n, phi_signs

    def to_json(self) -> dict:
        D = self.D
        out = algebra_json(self.F, D, self.n)
        if self.phi_signs is not None:
            out["phi"] = matrix_json(
                [
                    [D.scalar(self.F.const(s)) if i == j else D.zero() for j in range(self.n)]
                    for i, s in enumerate(self.phi_signs)
                ]
            )
        return out

    def nil(self, index: int) -> bool:
        D = self.D
        if D.kind == QUADRATIC:
            return self.F.sign(D.d, index) > 0
        if D.kind == QUATERNION:
            return self.F.sign(D.a, index) > 0 or self.F.sign(D.b, index) > 0
        return False

    def scaled(self, S_or_a):
        """Multiply on the left by Phi (equal to Phi^-1 for Phi = diag(+-1))."""
        if self.phi_signs is None:
            return S_or_a
        F, D = self.F, self.D
        return [
            [D.mul(D.scalar(F.const(s)), e) for e in row]
            for s, row in zip(self.phi_signs, S_or_a)
        ]


STANDARD = _standard()

# ---------------------------------------------------------------------------
# random elements


def rand_felem(rng, F: Field, h: int = 3):
    return tuple(Fraction(rng.randint(-h, h)) for _ in range(F.d))


def rand_delem(rng, D: Division, h: int = 3):
    return tuple(rand_felem(rng, D.F, h) for _ in range(D.dim))


def rand_hermitian(rng, D: Division, n: int, h: int = 3):
    """A random theta-hermitian n x n matrix over D (diagonal in F)."""
    S = [[None] * n for _ in range(n)]
    for i in range(n):
        S[i][i] = D.scalar(rand_felem(rng, D.F, h))
        for j in range(i + 1, n):
            S[i][j] = rand_delem(rng, D, h)
            S[j][i] = D.conj(S[i][j])
    return S


def _det(D: Division, S):
    """s11 * s22 - N(s12) for a 2 x 2 hermitian S; s11 for a 1 x 1 one."""
    if len(S) == 1:
        return S[0][0][0]
    return D.F.sub(D.F.mul(S[0][0][0], S[1][1][0]), D.norm(S[0][1]))


def symmetric_unit(rng, A: StandardAlgebra):
    """(S, a): a random symmetric unit a = Phi * S of A, S hermitian over D."""
    while True:
        S = rand_hermitian(rng, A.D, A.n)
        if not A.F.is_zero(_det(A.D, S)):
            return S, A.scaled(S)


def block_signature(A: StandardAlgebra, S, index: int) -> int:
    """Signature of the one-dimensional form <Phi * S> at an ordering.

    For n = 2, S is congruent to diag(s11, det / s11): signature 0 when the
    determinant is negative, else twice the sign of s11.
    """
    if A.nil(index):
        return 0
    sign = A.F.sign(S[0][0][0], index)
    if A.n == 1:
        return sign
    return 0 if A.F.sign(_det(A.D, S), index) < 0 else 2 * sign


# ---------------------------------------------------------------------------
# roots


def _rand_poly(rng, deg: int, h: int) -> list[int]:
    cs = [rng.randint(-h, h) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-h, h)
    return cs + [lead]


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _coprime(p: list[int], q: list[int]) -> bool:
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def _squarefree(p: list[int]) -> bool:
    return _coprime(p, [i * c for i, c in enumerate(p)][1:])


def _condition(rng, deg: int, simple: bool, m: list[int]) -> list[int]:
    """A sign condition of the given degree, coprime to m.

    Simple ones are shifted linear or positive-definite quadratic factors,
    so that counts are often nonzero; the rest have random coefficients.
    """
    while True:
        if simple and deg == 1:
            g = [-rng.randint(-6, 6), 1]
        elif simple:
            p = rng.randint(-6, 6)
            g = [p * p + rng.randint(1, 9), -2 * p, 1]
        else:
            g = _rand_poly(rng, deg, 20)
        if _coprime(m, g):
            return g


def count_roots_job(rng, r: int, deg_m: int, phase: int):
    """r conditions on a squarefree m of degree deg_m.

    Condition i has degree 1 + (i + phase) % 2 and is simple when
    (i + phase) // 2 is even: the phase fixes the job's shape, and with it
    most of its cost, while the coefficients stay random.
    """
    while True:
        m = _rand_poly(rng, deg_m, 20)
        if _squarefree(m):
            break
    gs = []
    for i in range(r):
        t = i + phase
        gs.append(_condition(rng, 1 + t % 2, (t // 2) % 2 == 0, m))
    config = {"m": [str(c) for c in m], "conditions": [[str(c) for c in g] for g in gs]}
    return _job("count-roots", f"count-roots.r{r}", rng, config)


def verify_job(rng, criterion: str, sizes: dict):
    config = {"criteria": [criterion], "sizes": sizes}
    return _job("verify", f"verify.{criterion}", rng, config)


def _job(cmd: str, kind: str, rng, config: dict, meta: dict | None = None) -> dict:
    return {"cmd": cmd, "kind": kind, "seed": rng.randrange(1 << 20), "config": config, "meta": meta or {}}


def roots_round(rng) -> list[dict]:
    """Every (r, degree of m, shape) stratum once, and the 2^r tail."""
    jobs = []
    for r in (1, 2, 3, 4):
        jobs += [count_roots_job(rng, r, deg, phase) for deg in range(3, 9) for phase in (0, 1, 3)]
    for r in (5, 6):
        jobs += [count_roots_job(rng, r, deg, deg % 4) for deg in range(3, 9)]
    jobs += [count_roots_job(rng, r, 5, 0) for r in (7, 8, 9)]
    jobs += [verify_job(rng, "sturm_sign_count_oracle", {"sturm_instances": 30}) for _ in range(14)]
    return jobs


# ---------------------------------------------------------------------------
# forms

NP_ALGEBRAS = ("qq_id", "qq_gauss", "qq_ham", "rt2_nil_quad", "rt2_nil_quat", "m2_qq", "m2_qq_phi")

FORMS_VERIFY = {
    "mideal_suite": {"mideal": 1},
    "congruence_invariance": {"congruence": 3},
    "trace_transfer_consistency": {"trace_transfer": 20},
    "nil_vanishing": {"nil_forms": 12},
    "max_signature_equals_local_degree": {"max_trials": 8},
    "z_witness_small_scale": {"z_height": 1},
    "star_ratio_constancy": {"star_members": 1},
}


def signature_job(rng, name: str, k: int):
    A = STANDARD[name]
    blocks = [symmetric_unit(rng, A) for _ in range(k)]
    config = {"algebra": A.to_json(), "form": {"diag": [matrix_json(a) for _, a in blocks]}}
    expected = [
        sum(block_signature(A, S, i) for S, _ in blocks) for i in range(A.F.ordering_count)
    ]
    meta = {"algebra": name, "k": k, "expected": expected, "nil": [A.nil(i) for i in range(A.F.ordering_count)]}
    return _job("signature", "signature", rng, config, meta)


def np_job(rng, name: str, k: int):
    A = STANDARD[name]
    units = [symmetric_unit(rng, A)[1] for _ in range(k)]
    neg = [[[A.D.sub(A.D.zero(), e) for e in row] for row in a] for a in units]
    config = {
        "algebra": A.to_json(),
        "form": {"diag": [matrix_json(a) for a in units + neg]},
        "search": True,
        "ordering_index": 0,
        "orientation": rng.choice((1, -1)),
    }
    return _job("np", "np", rng, config, {"algebra": name})


def forms_round(rng) -> list[dict]:
    jobs = []
    for i, name in enumerate(STANDARD):
        jobs += [signature_job(rng, name, k) for k in (*range(2, 9), 2 + i % 7)]
    for name in NP_ALGEBRAS:
        if STANDARD[name].n == 1:
            jobs += [np_job(rng, name, k) for k in (1, 2)]
        else:
            jobs += [np_job(rng, name, 2) for _ in range(6)]
    for criterion, sizes in FORMS_VERIFY.items():
        jobs.append(verify_job(rng, criterion, sizes))
    return jobs


# ---------------------------------------------------------------------------
# cones: a fresh field x^2 - c or x^4 - c in every direct job

CONES_VERIFY = {
    "cone_axioms": {"axiom_samples": 2},
    "cone_membership_psd_vs_signature": {"cone_equality": 6},
    "same_signature_on_cones": {"same_signature": 2},
    "cone_extension": {"extension_samples": 2},
}


def _fresh_c(rng) -> int:
    while True:
        c = rng.randint(2, 199)
        if math.isqrt(c) ** 2 != c:
            return c


def _division(F: Field, quaternion: bool) -> Division:
    if not quaternion:
        return Division(F, BASE)
    m1 = F.const(-1)
    return Division(F, QUATERNION, a=m1, b=m1)


def member_job(rng, degree: int, quaternion: bool, n: int, shifted: bool, orientation: int, index: int):
    F = Field(degree, _fresh_c(rng))
    D = _division(F, quaternion)
    S = rand_hermitian(rng, D, n)
    if shifted:
        # diagonal dominance: S + orientation * t * I is definite of the
        # cone's sign at every ordering
        t = 1 + max(
            sum((D.abs_bound(S[i][j]) for j in range(n)), Fraction(0)) for i in range(n)
        )
        t = Fraction(int(t) + 1)
        for i in range(n):
            S[i][i] = D.add(S[i][i], D.scalar(F.const(orientation * t)))
    config = {
        "algebra": algebra_json(F, D, n),
        "element": matrix_json(S),
        "ordering_index": index,
        "orientation": orientation,
    }
    return _job("member", "member", rng, config, {"shifted": shifted})


def cones_job(rng, degree: int, quaternion: bool, n: int):
    F = Field(degree, _fresh_c(rng))
    config = {"algebra": algebra_json(F, _division(F, quaternion), n), "samples": 2}
    return _job("cones", "cones", rng, config)


def extend_job(rng, quaternion: bool, n: int, target: int):
    c = _fresh_c(rng)
    src, dst = Field(2, c), Field(4, c)
    config = {
        "algebra": algebra_json(src, _division(src, quaternion), n),
        "embedding": {"dst_field": {"min_poly": dst.min_poly()}, "image": ["0", "0", "1", "0"]},
        # y -> y^2 sends the generator to +sqrt(c): only index 1 restricts,
        # and both real roots of y^4 - c lie over it
        "ordering_index": 1,
        "target_ordering_index": target,
        "orientation": rng.choice((1, -1)),
        "samples": 3,
    }
    return _job("extend", "extend", rng, config)


SHAPES = [(degree, quaternion) for degree in (2, 4) for quaternion in (False, True)]


def cones_round(rng) -> list[dict]:
    """Every job shape (degree, D, n, ...) in fixed numbers; fields are fresh."""
    jobs = []
    for degree, quaternion in SHAPES:
        for n in (2, 3):
            for i in range(15):
                jobs.append(member_job(rng, degree, quaternion, n, i % 2 == 0, 1 - 2 * (i // 2 % 2), i // 4 % 2))
    # axiom jobs cost 60 ms to 1.4 s by shape: one of each shape per round
    for degree, quaternion in SHAPES:
        jobs += [cones_job(rng, degree, quaternion, n) for n in (1, 2)]
    for quaternion in (False, True):
        jobs += [extend_job(rng, quaternion, n, target) for n in (1, 2) for target in (0, 1)]
    for criterion, sizes in CONES_VERIFY.items():
        jobs.append(verify_job(rng, criterion, sizes))
    return jobs


# ---------------------------------------------------------------------------

ROUNDS = {"roots": roots_round, "forms": forms_round, "cones": cones_round}

# rounds generated per list: well beyond what the timed phase uses today, so
# that a faster program still meets fresh jobs
ROUND_COUNT = {"roots": 12, "forms": 24, "cones": 24}


def make_jobs(workload: str, seed: int, rounds: int | None = None) -> list[list[dict]]:
    """The workload's job list as a list of rounds, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds or ROUND_COUNT[workload]):
        jobs = ROUNDS[workload](rng)
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def digest(rounds: list[list[dict]]) -> str:
    blob = json.dumps(
        [[[j["cmd"], j["seed"], j["config"]] for j in r] for r in rounds], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()
