"""Answer checks for every job kind, run after the timed phase.

A job fails on a nonzero exit, an ``{"error": ...}`` report, an exception,
or an answer that fails its check.  The checks use oracles that share no
code with hermsig: root counts come from sympy's exact isolating intervals,
signatures and cone membership from `exact`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from exact import QUATERNION, Division, Field, interval_eval, signature_at


def count_roots_oracle(m: list[str], gs: list[list[str]]) -> int:
    """Real roots of m at which every g is positive, without Tarski queries.

    sympy isolates the roots of m in rational intervals; each interval is
    refined until interval evaluation fixes the sign of every g on it.
    """
    from sympy import QQ, Poly, Rational, Symbol

    x = Symbol("x")
    P = Poly([Rational(c) for c in reversed(m)], x, domain=QQ)
    conds = [[Fraction(c) for c in g] for g in gs]

    def frac(r) -> Fraction:
        return Fraction(int(r.p), int(r.q))

    count = 0
    for (a, b), _ in P.intervals():
        lo, hi = frac(a), frac(b)
        # a rational root comes as [r, r], where the bounds are exact values
        while lo != hi:
            bounds = [interval_eval(g, lo, hi) for g in conds]
            if all(vlo > 0 or vhi < 0 for vlo, vhi in bounds):
                break
            a, b = P.refine_root(a, b, eps=(b - a) / 4)
            lo, hi = frac(a), frac(b)
        count += all(interval_eval(g, lo, hi)[0] > 0 for g in conds)
    return count


def _field(desc: dict) -> Field:
    coeffs = [Fraction(c) for c in desc["min_poly"]]
    d = len(coeffs) - 1
    return Field(d, -coeffs[0])


def _felem(F: Field, v) -> tuple:
    if isinstance(v, str):
        return F.const(Fraction(v))
    return tuple(Fraction(c) for c in v)


def _division(F: Field, desc: dict) -> Division:
    if desc["kind"] == QUATERNION:
        return Division(F, QUATERNION, a=_felem(F, desc["a"]), b=_felem(F, desc["b"]))
    return Division(F, desc["kind"])


def _check_count_roots(job, report):
    want = count_roots_oracle(job["config"]["m"], job["config"]["conditions"])
    if report.get("count") != want:
        return f"count {report.get('count')} != oracle {want}"
    return None


def _check_pass(job, report):
    if report.get("pass") is not True:
        return "report says pass: false"
    return None


def _check_verify(job, report):
    names = [c.get("name") for c in report.get("criteria", [])]
    if names != job["config"]["criteria"]:
        return f"ran criteria {names}"
    if not all(c.get("passed") is True for c in report["criteria"]):
        return "a criterion failed"
    return _check_pass(job, report)


def _check_member(job, report):
    cfg = job["config"]
    member = report.get("member")
    if not isinstance(member, bool):
        return "no member verdict"
    if member and report.get("witness_reconstructs") is not True:
        return "member without a reconstructing witness"
    F = _field(cfg["algebra"]["field"])
    D = _division(F, cfg["algebra"]["division"])
    S = [[tuple(_felem(F, c) for c in e) for e in row] for row in cfg["element"]]
    n = len(S)
    sig = signature_at(D, S, cfg["ordering_index"])
    if sig is not None:
        # invertible: a member of the cone exactly when the signature is
        # the orientation times the full rank
        if member != (sig == cfg["orientation"] * n):
            return f"member={member} but signature {sig} of rank {n}"
    if job["meta"].get("shifted") and not member:
        return "diagonally dominant element rejected"
    return None


def _check_np(job, report):
    if report.get("in_np") is not True:
        return "h + (-h) not reported in N_P"
    if report.get("witness") is not None and report.get("witness_verified") is not True:
        return "witness not verified"
    return None


def _check_signature(job, report):
    meta = job["meta"]
    sigs = report.get("signatures")
    if not isinstance(sigs, list) or len(sigs) != len(meta["expected"]):
        return f"signatures {sigs!r}"
    rank = meta["k"] * job["config"]["algebra"]["n"]
    for v, nil in zip(sigs, meta["nil"]):
        if abs(v) > rank:
            return f"signature {v} exceeds rank {rank}"
        if nil and v != 0:
            return f"signature {v} at a nil ordering"
    if sigs != meta["expected"]:
        return f"signatures {sigs} != sum of block signatures {meta['expected']}"
    return None


CHECKS = {
    "count-roots": _check_count_roots,
    "verify": _check_verify,
    "cones": _check_pass,
    "extend": _check_pass,
    "member": _check_member,
    "np": _check_np,
    "signature": _check_signature,
}


def check_job(job: dict, code, stdout: str, error: str | None) -> str | None:
    """None when the job's answer is right, else the reason it failed."""
    if error is not None:
        return f"exception: {error.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if "error" in report:
        return f"error report {report['error']}"
    return CHECKS[job["cmd"]](job, report)
