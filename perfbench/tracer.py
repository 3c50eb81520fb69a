"""Per-layer tracing of hermsig from outside the program.

Every public function of every hermsig module is wrapped in place, and the
wrapper is also patched into each module that imported the name (``from
.orderings import sign_of`` copies the reference, so patching only
``hermsig.orderings`` would miss the calls made from the other modules).  A
few methods are wrapped too: the hot arithmetic ones (`FieldElement` and
`DElement` products and sums) only count, so their time stays with the layer
that called them; the rest are timed like functions.

Each timed wrapper records calls, inclusive time (outermost activation
only), self time (inclusive minus the time of wrapped children) and
exceptions raised.  Argument statistics are taken on an excluded clock: the
time spent gathering them is subtracted from every span.  The run is
single-threaded with one client and no queue, so no wait time exists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import timeit
from collections import Counter
from fractions import Fraction
from time import perf_counter

MODULES = (
    "exactnum",
    "orderings",
    "qforms",
    "algebras",
    "hermitian",
    "cones",
    "wittideal",
    "verify",
    "jsonio",
    "cli",
)

# criteria each workload runs; the traced report names all of them
CRITERIA = (
    "sturm_sign_count_oracle",
    "trace_transfer_consistency",
    "congruence_invariance",
    "nil_vanishing",
    "max_signature_equals_local_degree",
    "cone_membership_psd_vs_signature",
    "cone_axioms",
    "same_signature_on_cones",
    "mideal_suite",
    "z_witness_small_scale",
    "star_ratio_constancy",
    "cone_extension",
)

# inclusive-time groups that span several functions
GROUPS = {
    "jsonio.s.parse": lambda mod, name: mod == "jsonio" and name.startswith("parse_"),
    "hermitian.s.star_pairing": lambda mod, name: mod == "hermitian"
    and name in ("star_pairing", "star_pairing_form"),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()  # "module.name" -> calls
        self.inclusive = Counter()  # "module.name" or group -> seconds
        self.self_s = Counter()  # module -> seconds
        self.exceptions = Counter()  # module -> count
        self.counts = Counter()  # argument and outcome statistics
        self._depth = Counter()
        self._stack: list[list[float]] = []
        self._excluded = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, module, name, fn, groups, on_call=None, on_return=None):
        tracer = self
        key = f"{module}.{name}"
        keys = (key, *groups)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                t = perf_counter()
                on_call(tracer, args)
                tracer._excluded += perf_counter() - t
            tracer.calls[key] += 1
            for k in keys:
                depth[k] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter() - tracer._excluded
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exceptions[module] += 1
                raise
            finally:
                dur = perf_counter() - tracer._excluded - start
                stack.pop()
                tracer.self_s[module] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                for k in keys:
                    depth[k] -= 1
                    if not depth[k]:
                        tracer.inclusive[k] += dur
            if on_return is not None:
                t = perf_counter()
                on_return(tracer, args, result, dur)
                tracer._excluded += perf_counter() - t
            return result

        return wrapper

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hermsig.{m}") for m in MODULES}
        everywhere = [importlib.import_module("hermsig"), *mods.values()]
        for mname, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                groups = [g for g, pick in GROUPS.items() if pick(mname, name)]
                hooks = _HOOKS.get(f"{mname}.{name}", {})
                if mname == "verify" and name.startswith("criterion_"):
                    hooks = {"on_return": _criterion_time}
                wrapped = self._timed(mname, name, fn, groups, **hooks)
                for target in everywhere:
                    if target.__dict__.get(name) is fn:
                        self._patch(target, name, wrapped)
        self._wrap_methods(mods)

    def _wrap_methods(self, mods) -> None:
        orderings, algebras, hermitian = mods["orderings"], mods["algebras"], mods["hermitian"]
        FieldElement, DElement = orderings.FieldElement, algebras.DElement
        counts = self.counts

        def counted(fn, stat):
            @functools.wraps(fn)
            def wrapper(a, b):
                stat(a, b)
                return fn(a, b)

            return wrapper

        def field_mul(a, b):
            if type(b) is FieldElement:
                counts[f"field_mul.deg{a.owner.degree}"] += 1

        def field_add(a, b):
            counts[f"field_add.deg{a.owner.degree}"] += 1

        def delement_mul(a, b):
            if type(b) is DElement:
                counts[f"delement_mul.{a.desc.kind}"] += 1

        mul = counted(FieldElement.__mul__, field_mul)
        self._patch(FieldElement, "__mul__", mul)
        self._patch(FieldElement, "__rmul__", mul)
        self._patch(FieldElement, "__add__", counted(FieldElement.__add__, field_add))
        self._patch(DElement, "__mul__", counted(DElement.__mul__, delement_mul))
        timed = [
            ("orderings", orderings.NumberField, "__init__", "NumberField"),
            ("algebras", algebras.AlgebraWithInvolution, "involution", "involution"),
            ("algebras", algebras.AlgebraWithInvolution, "multiply", "multiply"),
            ("algebras", algebras.AlgebraWithInvolution, "invert", "invert"),
            ("hermitian", hermitian.HermitianForm, "flattened_diagonal", "flattened_diagonal"),
        ]
        for module, cls, attr, name in timed:
            self._patch(cls, attr, self._timed(module, name, cls.__dict__[attr], ()))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, calls, inc = self.counts, self.calls, self.inclusive
        out: dict[str, float] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        for m in MODULES:
            out[f"{m}.self_s"] = self.self_s[m]
            out[f"{m}.exceptions"] = self.exceptions[m]
        for name in ("tarski_query", "sturm_sequence", "refine_interval", "gcd"):
            out[f"exactnum.calls.{name}"] = calls[f"exactnum.{name}"]
        out["orderings.calls.sign_of"] = calls["orderings.sign_of"]
        out["orderings.rational_ratio.sign_of"] = ratio(c["sign_of.rational"], calls["orderings.sign_of"])
        for d in (1, 2, 4):
            out[f"orderings.calls.field_mul.deg{d}"] = c[f"field_mul.deg{d}"]
        out["orderings.calls.NumberField"] = calls["orderings.NumberField"]
        out["qforms.calls.diagonalize_symmetric"] = calls["qforms.diagonalize_symmetric"]
        out["qforms.s.diagonalize_symmetric"] = inc["qforms.diagonalize_symmetric"]
        for kind in ("base", "quadratic", "quaternion"):
            out[f"algebras.calls.delement_mul.{kind}"] = c[f"delement_mul.{kind}"]
        for name in ("mat_mul", "mat_inv", "involution"):
            out[f"algebras.calls.{name}"] = calls[f"algebras.{name}"]
        out["hermitian.calls.diagonalize_hermitian"] = calls["hermitian.diagonalize_hermitian"]
        out["hermitian.entries.diagonalize_hermitian"] = c["diag.entries"]
        out["hermitian.zero_offdiag_ratio"] = ratio(c["diag.offdiag_zero"], c["diag.offdiag"])
        out["hermitian.s.diagonalize_hermitian"] = inc["hermitian.diagonalize_hermitian"]
        out["hermitian.calls.flattened_diagonal"] = calls["hermitian.flattened_diagonal"]
        out["hermitian.calls.signature"] = calls["hermitian.signature"]
        out["hermitian.s.star_pairing"] = inc["hermitian.s.star_pairing"]
        out["hermitian.s.congruence_transform"] = inc["hermitian.congruence_transform"]
        out["cones.calls.cone_membership"] = calls["cones.cone_membership"]
        out["cones.s.cone_membership"] = inc["cones.cone_membership"]
        out["cones.member_ratio"] = ratio(c["cone_membership.member"], calls["cones.cone_membership"])
        out["cones.calls.sample_cone_member"] = calls["cones.sample_cone_member"]
        out["wittideal.calls.mideal_check"] = calls["wittideal.mideal_check"]
        out["wittideal.s.mideal_check"] = inc["wittideal.mideal_check"]
        out["wittideal.calls.find_Z_witness"] = calls["wittideal.find_Z_witness"]
        out["wittideal.found_ratio"] = ratio(c["find_Z_witness.found"], calls["wittideal.find_Z_witness"])
        out["wittideal.calls.sylvester_reduction"] = calls["wittideal.sylvester_reduction"]
        for name in CRITERIA:
            out[f"verify.s.{name}"] = inc[f"verify.s.{name}"]
        out["jsonio.s.parse"] = inc["jsonio.s.parse"]
        out["cli.s.render"] = inc["cli.render"]
        return out

    def layer_calls(self) -> Counter:
        """Calls per module, arithmetic counters included."""
        out = Counter()
        for key, n in self.calls.items():
            out[key.split(".", 1)[0]] += n
        for key, n in self.counts.items():
            if key.startswith("field_"):
                out["orderings"] += n
            elif key.startswith("delement_"):
                out["algebras"] += n
        return out


# -- argument and outcome statistics -----------------------------------------


def _diag_stats(tracer, args):
    B = args[1]
    ell = len(B)
    c = tracer.counts
    c["diag.entries"] += ell * ell
    if ell >= 2:
        c["diag.offdiag"] += ell * (ell - 1)
        c["diag.offdiag_zero"] += sum(
            1 for i in range(ell) for j in range(ell) if i != j and B[i][j].is_zero
        )


def _sign_of_stats(tracer, args):
    if args[0].is_rational:
        tracer.counts["sign_of.rational"] += 1


def _membership_outcome(tracer, args, result, dur):
    if result[0]:
        tracer.counts["cone_membership.member"] += 1


def _witness_outcome(tracer, args, result, dur):
    if type(result).__name__ == "ZWitness":
        tracer.counts["find_Z_witness.found"] += 1


def _criterion_time(tracer, args, result, dur):
    tracer.inclusive[f"verify.s.{result.name}"] += dur


_HOOKS = {
    "hermitian.diagonalize_hermitian": {"on_call": _diag_stats},
    "orderings.sign_of": {"on_call": _sign_of_stats},
    "cones.cone_membership": {"on_return": _membership_outcome},
    "wittideal.find_Z_witness": {"on_return": _witness_outcome},
}


# -- per-operation kernel timings ----------------------------------------------

# figures from the ROADMAP baseline, in microseconds
ROADMAP_US = {
    "exactnum.us.fraction_mul": 2.6,
    "orderings.us.field_mul.deg1": 2.8,
    "orderings.us.field_mul.deg4": 126.0,
    "algebras.us.delement_mul.quaternion.deg1": 162.0,
}


def per_op_us(target_s: float = 0.025, repeats: int = 15) -> dict[str, float]:
    """Microseconds per operation on fixed operands, unwrapped.

    The best of several repeats, as the machine's speed varies over time.
    """
    from hermsig.algebras import DElement, quaternion_desc
    from hermsig.orderings import NumberField

    qq = NumberField([0, 1])
    rt2 = NumberField([-2, 0, 1])
    rt4 = NumberField([-2, 0, 0, 0, 1])
    F = Fraction
    x = [F(3, 7), F(-5, 2), F(11, 9), F(-4, 13)]
    y = [F(-8, 5), F(7, 3), F(-2, 11), F(9, 4)]

    def felem(field, coords):
        return field.element(coords[: field.degree])

    def quat(field):
        desc = quaternion_desc(field, field.from_rational(-1), field.from_rational(-1))
        a = DElement(desc, tuple(felem(field, x[i:] + x[:i]) for i in range(4)))
        b = DElement(desc, tuple(felem(field, y[i:] + y[:i]) for i in range(4)))
        return a, b

    q1, q2 = quat(qq)
    q4a, q4b = quat(rt4)
    ops = {
        "exactnum.us.fraction_mul": (x[0], y[0], "mul"),
        "orderings.us.field_mul.deg1": (felem(qq, x), felem(qq, y), "mul"),
        "orderings.us.field_mul.deg2": (felem(rt2, x), felem(rt2, y), "mul"),
        "orderings.us.field_mul.deg4": (felem(rt4, x), felem(rt4, y), "mul"),
        "orderings.us.field_add.deg1": (felem(qq, x), felem(qq, y), "add"),
        "algebras.us.delement_mul.quaternion.deg1": (q1, q2, "mul"),
        "algebras.us.delement_mul.quaternion.deg4": (q4a, q4b, "mul"),
    }
    out = {}
    for name, (a, b, op) in ops.items():
        stmt = (lambda: a * b) if op == "mul" else (lambda: a + b)
        timer = timeit.Timer(stmt)
        number = 1
        while timer.timeit(number) < target_s / 5:
            number *= 4
        out[name] = min(timer.repeat(repeat=repeats, number=number)) / number * 1e6
    return out
