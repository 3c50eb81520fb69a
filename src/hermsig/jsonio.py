"""JSON wire formats.

Every rational on the wire is a JSON integer or a string of the grammar

    rational := [+-]? digits ( "/" digits )?      digits := [0-9]+

read with `int()` on each half: ASCII digits only, a sign only on the
numerator, a nonzero denominator, no spaces, underscores, decimal points
or exponents, so no float ever enters the library.  Anything else, a JSON
float or boolean included, is a `ParseError`.  Fractions need not be
reduced ("6/4" reads as 3/2).  Polynomials are arrays lowest degree first;
intervals are two-element arrays; field elements are arrays of rationals in
the power basis; a DElement is an array of 1, 2 or 4 field elements; an
algebra element is an n x n array of DElements.  A lone rational stands for
the scalar it names wherever a field element, DElement or algebra element
is expected.  Field elements and DElements are read straight into their
integer blocks over one lcm of denominators and written back from them, in
lowest terms as `str(Fraction)` would write each coordinate.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError
from .exactnum import Interval, Polynomial
from .orderings import FieldElement, NumberField, _canonical
from .qforms import QuadraticForm
from .algebras import (
    BASE,
    QUADRATIC,
    QUATERNION,
    AlgebraElement,
    AlgebraWithInvolution,
    DElement,
    DivisionAlgebraDesc,
    _make,
    base_desc,
    make_algebra,
    quadratic_desc,
    quaternion_desc,
)
from .hermitian import HermitianForm, diagonal_form

# [0-9], unlike \d, is ASCII only
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(v) -> tuple[int, int]:
    """(numerator, denominator) of one wire rational, den > 0, not reduced."""
    if isinstance(v, str):
        m = _RATIONAL.fullmatch(v)
        if m is None:
            raise ParseError(f"bad rational {v!r}")
        num, den = m.groups()
        try:
            n, d = int(num), int(den) if den else 1
        except ValueError as e:  # beyond int()'s digit limit
            raise ParseError(f"bad rational {v!r}") from e
        if d == 0:
            raise ParseError(f"bad rational {v!r}: zero denominator")
        return n, d
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    raise ParseError(f"not a rational: {v!r}")


def parse_frac(v) -> Fraction:
    return Fraction(*_rational(v))


def _coordinates(F: NumberField, v) -> list[tuple[int, int]]:
    """The rationals of one wire field element, a lone rational padded with 0."""
    if isinstance(v, (int, str)):
        return [_rational(v)] + [(0, 1)] * (F.degree - 1)
    if not isinstance(v, list):
        raise ParseError("field element must be an array of rationals")
    if len(v) != F.degree:
        raise ParseError(
            f"field element needs {F.degree} coordinates, got {len(v)}"
        )
    return [_rational(c) for c in v]


def _block(rationals) -> tuple[list[int], int]:
    """Numerators over the one lcm of the denominators, not yet reduced."""
    den = math.lcm(*(d for _, d in rationals))
    return [n * (den // d) for n, d in rationals], den


def _rationals_json(nums, den: int) -> list[str]:
    """Each nums[i]/den in lowest terms, written as str(Fraction) would."""
    out = []
    for n in nums:
        g = math.gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


def parse_count(v, what: str) -> int:
    """A non-negative integer such as a sample size; JSON booleans are not."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ParseError(f"{what} must be a non-negative integer, got {v!r}")
    return v


def check_keys(v, allowed, what: str) -> None:
    """Reject the keys of an object (or names in an array) outside a declared set."""
    unknown = set(v) - set(allowed)
    if unknown:
        raise ParseError(f"unknown {what}: {sorted(unknown)}")


def parse_poly(v) -> Polynomial:
    if not isinstance(v, list):
        raise ParseError("polynomial must be an array of rationals")
    return Polynomial([parse_frac(c) for c in v])


def interval_to_json(iv: Interval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def parse_field(v) -> NumberField:
    if not isinstance(v, dict) or "min_poly" not in v:
        raise ParseError("field descriptor needs a min_poly")
    check_keys(v, ("min_poly",), "field keys")
    if not isinstance(v["min_poly"], list):
        raise ParseError("min_poly must be an array of rationals")
    try:
        return NumberField([parse_frac(c) for c in v["min_poly"]])
    except ValueError as e:
        raise ParseError(str(e)) from e


def element_to_json(x: FieldElement) -> list[str]:
    return _rationals_json(x.nums, x.den)


def parse_element(F: NumberField, v) -> FieldElement:
    return _canonical(F, *_block(_coordinates(F, v)))


def delement_to_json(x: DElement) -> list[list[str]]:
    deg, nums = x.desc.field.degree, x.nums
    return [_rationals_json(nums[s : s + deg], x.den) for s in range(0, len(nums), deg)]


def parse_delement(desc: DivisionAlgebraDesc, v) -> DElement:
    field = desc.field
    if isinstance(v, (int, str)):
        n, d = _rational(v)
        return _make(desc, (n,) + (0,) * (desc.dim * field.degree - 1), d)
    if not isinstance(v, list):
        raise ParseError("algebra coefficient must be an array")
    if len(v) != desc.dim:
        raise ParseError(
            f"{desc.kind} coefficient needs {desc.dim} components, got {len(v)}"
        )
    return _make(desc, *_block([q for c in v for q in _coordinates(field, c)]))


# each division kind's builder and the components it reads besides the kind
_DIVISION_KINDS = {
    BASE: (base_desc, ()),
    QUADRATIC: (quadratic_desc, ("d",)),
    QUATERNION: (quaternion_desc, ("a", "b")),
}


def parse_desc(F: NumberField, v) -> DivisionAlgebraDesc:
    if not isinstance(v, dict) or "kind" not in v:
        raise ParseError("division descriptor needs a kind")
    kind = v["kind"]
    if not isinstance(kind, str) or kind not in _DIVISION_KINDS:
        raise ParseError(f"unknown division kind {kind!r}")
    build, components = _DIVISION_KINDS[kind]
    check_keys(v, ("kind", *components), f"{kind} division keys")
    try:
        return build(F, *(parse_element(F, v[c]) for c in components))
    except KeyError as e:
        raise ParseError(f"missing component {e}") from e
    except ValueError as e:
        raise ParseError(str(e)) from e


def parse_algebra(v) -> AlgebraWithInvolution:
    if not isinstance(v, dict):
        raise ParseError("algebra descriptor must be an object")
    check_keys(v, ("field", "division", "n", "phi"), "algebra keys")
    try:
        F = parse_field(v["field"])
        desc = parse_desc(F, v["division"])
        n = v["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ParseError("n must be a positive integer")
        phi = v.get("phi")
        if phi is not None:
            if not isinstance(phi, list) or not all(
                isinstance(row, list) for row in phi
            ):
                raise ParseError("phi must be an array of arrays")
            phi = [[parse_delement(desc, e) for e in row] for row in phi]
        return make_algebra(desc, n, phi)
    except KeyError as e:
        raise ParseError(f"missing algebra component {e}") from e
    except ValueError as e:
        raise ParseError(str(e)) from e


def algebra_element_to_json(x: AlgebraElement) -> list:
    return [[delement_to_json(e) for e in row] for row in x.entries]


def parse_algebra_element(A: AlgebraWithInvolution, v) -> AlgebraElement:
    if isinstance(v, (int, str)):
        return A.scalar(parse_element(A.field, v))
    if not isinstance(v, list) or len(v) != A.n:
        raise ParseError(f"algebra element must be an {A.n} x {A.n} array")
    rows = []
    for row in v:
        if not isinstance(row, list) or len(row) != A.n:
            raise ParseError(f"algebra element must be an {A.n} x {A.n} array")
        rows.append([parse_delement(A.desc, e) for e in row])
    return A.element(rows)


def parse_hermitian_form(A: AlgebraWithInvolution, v) -> HermitianForm:
    if not isinstance(v, dict):
        raise ParseError("form descriptor must be an object")
    # exactly one of diag and gram
    check_keys(v, ("diag",) if "diag" in v else ("gram",), "form keys")
    if "diag" in v:
        if not isinstance(v["diag"], list):
            raise ParseError("form diag must be an array of algebra elements")
        return diagonal_form(
            A, [parse_algebra_element(A, e) for e in v["diag"]]
        )
    if "gram" not in v:
        raise ParseError("form descriptor needs gram or diag")
    if not isinstance(v["gram"], list) or not all(
        isinstance(row, list) for row in v["gram"]
    ):
        raise ParseError("form gram must be an array of arrays")
    gram = [
        [parse_algebra_element(A, e) for e in row] for row in v["gram"]
    ]
    return HermitianForm(A, gram)


def qform_to_json(q: QuadraticForm) -> dict:
    return {"diag": [element_to_json(d) for d in q.diag]}


def witness_to_json(w) -> dict:
    return {
        "transform": [[delement_to_json(e) for e in row] for row in w.transform],
        "diagonal": [element_to_json(d) for d in w.diagonal],
    }


def zwitness_to_json(w) -> dict:
    return {
        "q": qform_to_json(w.q),
        "a_list": [algebra_element_to_json(a) for a in w.a_list],
        "b_list": [algebra_element_to_json(b) for b in w.b_list],
        "evidence": w.evidence,
    }
