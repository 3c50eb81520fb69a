"""Wire rationals read straight into integer blocks, and written back from them.

The reference below reads each coordinate with `Fraction(str)` and builds
the element through `NumberField.element` and `DElement`, one lcm per
layer, as `jsonio` did before it built each block with one lcm.  Drawn
strings cover unreduced fractions, signs on zero, explicit plus signs, zero
numerators and JSON integers, over the D of all nine standard algebras
(`m2_qq_phi` and the sqrt 2 fields included), so the two must give equal
elements.  The writer must give the strings `str(Fraction)` gives.
"""

import warnings
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermsig import jsonio  # noqa: E402
from hermsig.algebras import DElement  # noqa: E402
from hermsig.errors import ParseError  # noqa: E402
from hermsig.orderings import NumberField  # noqa: E402
from hermsig.verify import standard_algebras  # noqa: E402

with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)
    ALGEBRAS = standard_algebras()

QQ = NumberField([0, 1])


def _reference_element(F, v):
    if isinstance(v, (int, str)):
        return F.from_rational(Fraction(v))
    return F.element([Fraction(c) for c in v])


def _reference_delement(desc, v):
    if isinstance(v, (int, str)):
        return desc.from_field(desc.field.from_rational(Fraction(v)))
    return DElement(desc, tuple(_reference_element(desc.field, c) for c in v))


_SPECIAL = ["-0", "+0", "+3", "0/5", "-0/7", "6/4", "-6/4", "+10/15", "007", "12/08"]


@st.composite
def wire_rationals(draw):
    form = draw(st.integers(0, 4))
    if form == 0:
        return draw(st.sampled_from(_SPECIAL))
    if form == 1:
        return draw(st.integers(-10**30, 10**30))
    num = draw(st.integers(-(10**20), 10**20))
    sign = draw(st.sampled_from(["", "+"])) if num >= 0 else ""
    if form == 2:
        return f"{sign}{num}"
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**20)))
    return f"{sign}{num}/{den}"


@st.composite
def wire_elements(draw, F):
    if draw(st.integers(0, 4)) == 0:
        return draw(wire_rationals())
    return [draw(wire_rationals()) for _ in range(F.degree)]


@st.composite
def wire_delements(draw):
    key = draw(st.sampled_from(sorted(ALGEBRAS)))
    desc = ALGEBRAS[key].desc
    if draw(st.integers(0, 5)) == 0:
        return key, desc, draw(wire_rationals())
    return key, desc, [draw(wire_elements(desc.field)) for _ in range(desc.dim)]


@settings(max_examples=300, deadline=None)
@given(wire_delements())
def test_parse_delement_matches_the_fraction_reference(case):
    key, desc, v = case
    x = jsonio.parse_delement(desc, v)
    # equality of DElements is equality of their canonical blocks
    assert x == _reference_delement(desc, v), key
    assert jsonio.delement_to_json(x) == [[str(c) for c in comp.coords] for comp in x.comps]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_parse_element_and_frac_match_the_fraction_reference(key, data):
    F = ALGEBRAS[key].field
    v = data.draw(wire_elements(F))
    x = jsonio.parse_element(F, v)
    assert x == _reference_element(F, v)
    assert jsonio.element_to_json(x) == [str(c) for c in x.coords]
    q = data.draw(wire_rationals())
    assert jsonio.parse_frac(q) == Fraction(q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_parse_algebra_element_matches_the_fraction_reference(key, data):
    A = ALGEBRAS[key]
    desc = A.desc
    if data.draw(st.booleans()):
        v = data.draw(wire_rationals())
        expected = A.scalar(A.field.from_rational(Fraction(v)))
    else:
        v = [
            [
                data.draw(
                    st.one_of(
                        wire_rationals(),
                        st.lists(wire_elements(desc.field), min_size=desc.dim, max_size=desc.dim),
                    )
                )
                for _ in range(A.n)
            ]
            for _ in range(A.n)
        ]
        expected = A.element([[_reference_delement(desc, e) for e in row] for row in v])
    x = jsonio.parse_algebra_element(A, v)
    assert x == expected
    written = jsonio.algebra_element_to_json(x)
    assert written == [
        [[[str(c) for c in comp.coords] for comp in e.comps] for e in row] for row in x.entries
    ]


REJECTED = ["1/0", "1/-2", "", "/3", "3/", "٣", "1.5", "1e400", "1/2.5", " 3 ", "1_0", "+-1", "1/+2", "3\n", True, 1.5, None]


@pytest.mark.parametrize("v", REJECTED, ids=repr)
def test_rejected_rationals(v):
    desc = ALGEBRAS["qq_ham"].desc
    with pytest.raises(ParseError):
        jsonio.parse_frac(v)
    with pytest.raises(ParseError):
        jsonio.parse_element(QQ, v)
    with pytest.raises(ParseError):
        jsonio.parse_element(QQ, [v])
    with pytest.raises(ParseError):
        jsonio.parse_delement(desc, [[v], "0", "0", "0"])
    with pytest.raises(ParseError):
        jsonio.parse_delement(desc, v)


def test_digits_beyond_the_int_limit_are_a_parse_error():
    with pytest.raises(ParseError):
        jsonio.parse_frac("1" * 5000)
