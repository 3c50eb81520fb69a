"""Command line front end.

Reads JSON job configs, runs the requested computation, and emits a
deterministic report (JSON by default, an indented text rendering with
--format text).  Exit codes: 0 on success, 1 when a property check in the
report failed, 2 on input or domain errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import HermsigError, ParseError
from .exactnum import count_roots_with_signs
from .orderings import embed_field, list_orderings
from .algebras import nil_orderings, random_field_element
from .hermitian import local_degree_nP, signature_vector
from .cones import (
    PositiveConeHandle,
    cone_axioms_check,
    cone_membership,
    extend_cone,
    list_positive_cones,
    sample_axiom_set,
)
from .wittideal import (
    ZWitness,
    find_Z_witness,
    in_NP,
    sylvester_reduction,
    verify_witness,
)
from . import jsonio
from .verify import ALL_CRITERIA, SIZE_KEYS, run_suite


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object")
    return obj


def _ordering_by_index(field, index):
    orderings = list_orderings(field)
    if (
        isinstance(index, bool)
        or not isinstance(index, int)
        or not 0 <= index < len(orderings)
    ):
        raise ParseError(f"ordering_index {index!r} out of range")
    return orderings[index]


def _cone_from_config(A, config) -> PositiveConeHandle:
    P = _ordering_by_index(A.field, config.get("ordering_index", 0))
    orientation = config.get("orientation", 1)
    # exactly an int: JSON true and -1.0 compare equal to 1 and -1
    if type(orientation) is not int or orientation not in (1, -1):
        raise ParseError("orientation must be 1 or -1")
    return PositiveConeHandle(A, P, orientation)


def _cmd_orderings(config, seed, bound):
    field = jsonio.parse_field(config["field"])
    report = {
        "orderings": [
            {
                "index": P.root_index,
                "isolating": jsonio.interval_to_json(P.isolating),
            }
            for P in list_orderings(field)
        ]
    }
    return report, True


def _cmd_nil(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    nil = nil_orderings(A)
    report = {
        "nil_indices": [P.root_index for P in nil],
        "ordering_count": len(list_orderings(A.field)),
        "nil_everywhere": len(nil) == len(list_orderings(A.field)),
    }
    return report, True


def _cmd_signature(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    h = jsonio.parse_hermitian_form(A, config["form"])
    vec = signature_vector(h)
    return {"signatures": list(vec.values)}, True


def _cmd_cones(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    rng = random.Random(seed)
    sample_size = jsonio.parse_count(config.get("samples", 50), "samples")
    cones = []
    ok = True
    for cone in list_positive_cones(A):
        samples = sample_axiom_set(cone, rng, sample_size)
        scalars = [random_field_element(A.field, rng) for _ in range(8)]
        checks = cone_axioms_check(cone, samples, scalars)
        ok = ok and checks["pass"]
        cones.append(
            {
                "ordering_index": cone.ordering.root_index,
                "orientation": cone.orientation,
                "checks": checks,
            }
        )
    return {"cones": cones, "pass": ok}, ok


def _cmd_member(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    b = jsonio.parse_algebra_element(A, config["element"])
    cone = _cone_from_config(A, config)
    member, witness = cone_membership(b, cone)
    report = {
        "member": member,
        "witness": jsonio.witness_to_json(witness) if witness else None,
    }
    if witness is not None:
        report["witness_reconstructs"] = witness.check(b, cone)
    return report, True


def _cmd_np(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    h = jsonio.parse_hermitian_form(A, config["form"])
    cone = _cone_from_config(A, config)
    search = config.get("search", False)
    if not isinstance(search, bool):
        raise ParseError("search must be true or false")
    member = in_NP(h, cone)
    report = {"in_np": member, "witness": None}
    ok = True
    if member and search:
        rng = random.Random(seed)
        w = find_Z_witness(h, cone, search_bound=bound, rng=rng)
        if isinstance(w, ZWitness):
            report["witness"] = jsonio.zwitness_to_json(w)
            verified = verify_witness(w, h, cone)
            report["witness_verified"] = verified
            ok = verified
        else:
            report["witness_not_found_bound"] = w.bound
    return report, ok


def _cmd_sylvester(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    h = jsonio.parse_hermitian_form(A, config["form"])
    a = jsonio.parse_algebra_element(A, config["element"])
    cone = _cone_from_config(A, config)
    q, u_list, v_list, evidence = sylvester_reduction(h, a, cone)
    report = {
        "q": jsonio.qform_to_json(q),
        "u": [jsonio.element_to_json(u) for u in u_list],
        "v": [jsonio.element_to_json(v) for v in v_list],
        "evidence": evidence,
    }
    return report, evidence["match"]


def _cmd_count_roots(config, seed, bound):
    m = jsonio.parse_poly(config["m"])
    conditions = config.get("conditions", [])
    if not isinstance(conditions, list):
        raise ParseError("conditions must be an array of polynomials")
    conditions = [jsonio.parse_poly(g) for g in conditions]
    return {"count": count_roots_with_signs(m, conditions)}, True


def _cmd_extend(config, seed, bound):
    A = jsonio.parse_algebra(config["algebra"])
    embedding = config["embedding"]
    if not isinstance(embedding, dict):
        raise ParseError("embedding must be an object")
    jsonio.check_keys(embedding, ("dst_field", "image"), "embedding keys")
    dst = jsonio.parse_field(embedding["dst_field"])
    image = jsonio.parse_element(dst, embedding["image"])
    emb = embed_field(A.field, dst, image)
    cone = _cone_from_config(A, config)
    Q = _ordering_by_index(dst, config.get("target_ordering_index", 0))
    rng = random.Random(seed)
    samples = jsonio.parse_count(config.get("samples", 25), "samples")
    extended, report = extend_cone(emb, cone, Q, samples=samples, rng=rng)
    out = {
        "target_ordering_index": Q.root_index,
        "orientation": extended.orientation,
        "n_src": local_degree_nP(A, cone.ordering).value,
        "n_dst": local_degree_nP(extended.algebra, Q).value,
        "containment": report,
        "pass": report["pass"],
    }
    return out, report["pass"]


def _cmd_verify(config, seed, bound):
    only = config.get("criteria")
    if only is not None:
        if not isinstance(only, list) or not all(isinstance(c, str) for c in only):
            raise ParseError("criteria must be an array of criterion names")
        if not only:
            raise ParseError("criteria must name at least one criterion")
        jsonio.check_keys(only, ALL_CRITERIA, "criteria")
    sizes = config.get("sizes", {})
    if not isinstance(sizes, dict):
        raise ParseError("sizes must be an object")
    jsonio.check_keys(sizes, SIZE_KEYS, "sizes keys")
    for key, value in sizes.items():
        jsonio.parse_count(value, f"sizes.{key}")
    results = run_suite(seed=seed, only=only, sizes=sizes)
    ok = all(r.passed for r in results)
    report = {
        "seed": seed,
        "criteria": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "pass": ok,
    }
    return report, ok


_CONE_KEYS = {"ordering_index", "orientation"}  # read by _cone_from_config

# command -> (handler, the config keys it reads; any other key is an error)
_COMMANDS = {
    "orderings": (_cmd_orderings, {"field"}),
    "nil": (_cmd_nil, {"algebra"}),
    "signature": (_cmd_signature, {"algebra", "form"}),
    "cones": (_cmd_cones, {"algebra", "samples"}),
    "member": (_cmd_member, {"algebra", "element", *_CONE_KEYS}),
    "np": (_cmd_np, {"algebra", "form", "search", *_CONE_KEYS}),
    "sylvester": (_cmd_sylvester, {"algebra", "form", "element", *_CONE_KEYS}),
    "count-roots": (_cmd_count_roots, {"m", "conditions"}),
    "extend": (_cmd_extend, {"algebra", "embedding", "target_ordering_index", "samples", *_CONE_KEYS}),
    "verify": (_cmd_verify, {"criteria", "sizes"}),
}


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def render(report: dict, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(_render_text(report)) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# built once per process; parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="hermsig",
    description=(
        "Exact signatures of hermitian forms and positive cones over "
        "algebras with involution"
    ),
)
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--format", choices=("json", "text"), default="json")
_PARSER.add_argument("--bound", type=int, default=8)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", help="JSON job config (optional for verify)")


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.config is None and args.command != "verify":
        _PARSER.error(f"{args.command} needs --config")

    handler, keys = _COMMANDS[args.command]
    try:
        jsonio.parse_count(args.bound, "--bound")
        config = _load_config(args.config) if args.config else {}
        jsonio.check_keys(config, keys, "config keys")
        report, ok = handler(config, args.seed, args.bound)
    except HermsigError as e:
        error = {"error": e.code, "message": str(e)}
        sys.stdout.write(render(error, args.format))
        return 2
    except KeyError as e:
        error = {"error": "ParseError", "message": f"missing config key {e}"}
        sys.stdout.write(render(error, args.format))
        return 2
    sys.stdout.write(render(report, args.format))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())
