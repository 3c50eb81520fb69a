from fractions import Fraction

import pytest

from hermsig.errors import ParseError
from hermsig import jsonio
from hermsig.algebras import base_desc, make_algebra, quaternion_desc
from hermsig.exactnum import Interval, Polynomial
from hermsig.hermitian import diagonal_form, signature_vector
from hermsig.orderings import NumberField
from hermsig.qforms import QuadraticForm

QQ = NumberField([0, 1])
RT2 = NumberField([-2, 0, 1])


def test_fraction_roundtrip():
    for text in ("3", "-1/2", "0"):
        assert str(jsonio.parse_frac(text)) == text
    assert jsonio.parse_frac(7) == 7
    with pytest.raises(ParseError):
        jsonio.parse_frac("not-a-number")
    with pytest.raises(ParseError):
        jsonio.parse_frac(1.5)
    with pytest.raises(ParseError):
        jsonio.parse_frac("1/0")
    with pytest.raises(ParseError):
        jsonio.parse_frac(True)


def test_poly_and_interval_roundtrip():
    p = jsonio.parse_poly(["-2", "0", 1])
    assert p == Polynomial([Fraction(-2), Fraction(0), Fraction(1)])
    with pytest.raises(ParseError):
        jsonio.parse_poly("x^2 - 2")
    assert jsonio.interval_to_json(Interval(Fraction(1, 3), Fraction(2))) == ["1/3", "2"]


def test_field_and_element_roundtrip():
    F = jsonio.parse_field({"min_poly": ["-2", "0", "1"]})
    assert F == RT2
    x = jsonio.parse_element(F, ["1/2", 3])
    assert x == RT2.element([Fraction(1, 2), 3])
    assert jsonio.element_to_json(x) == ["1/2", "3"]
    assert jsonio.element_to_json(jsonio.parse_element(F, "-5")) == ["-5", "0"]
    with pytest.raises(ParseError):
        jsonio.parse_element(F, ["1"])  # wrong coordinate count
    with pytest.raises(ParseError):
        jsonio.parse_field({"min_poly": "x"})


def test_algebra_roundtrip():
    phi = [["1", "0"], ["0", [["1", "0"], "0", "0", "0"]]]
    B = jsonio.parse_algebra(
        {
            "field": {"min_poly": ["-2", "0", "1"]},
            "division": {"kind": "quaternion", "a": "-1", "b": ["0", "1"]},
            "n": 2,
            "phi": phi,
        }
    )
    assert B.desc == quaternion_desc(RT2, RT2.from_rational(-1), RT2.generator())
    assert B.n == 2
    one = [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]
    zero = [["0", "0"]] * 4
    assert jsonio.algebra_element_to_json(B.phi_element()) == [[one, zero], [zero, one]]
    assert B.phi_element() == B.identity()
    with pytest.raises(ParseError):
        jsonio.parse_delement(B.desc, ["1", "0"])  # a quaternion has 4 components


def test_form_roundtrip_and_diag_sugar():
    A = make_algebra(quaternion_desc(QQ, QQ.from_rational(-1), QQ.from_rational(-1)), 1)
    # an element of M_1(H): one row of one quaternion of four rationals
    two = [[[["2"], ["0"], ["0"], ["0"]]]]
    minus_three = [[[["-3"], ["0"], ["0"], ["0"]]]]
    gram = [[two, "0"], ["0", minus_three]]
    h = jsonio.parse_hermitian_form(A, {"gram": gram})
    assert h.gram == diagonal_form(A, [2, -3]).gram
    zero = [[[["0"], ["0"], ["0"], ["0"]]]]
    written = [[jsonio.algebra_element_to_json(e) for e in row] for row in h.gram]
    assert written == [[two, zero], [zero, minus_three]]
    sugar = jsonio.parse_hermitian_form(A, {"diag": ["2", "-3"]})
    assert sugar.gram == h.gram


def test_parse_algebra_errors():
    with pytest.raises(ParseError):
        jsonio.parse_algebra({"field": {"min_poly": ["0", "1"]}})
    with pytest.raises(ParseError):
        jsonio.parse_algebra(
            {
                "field": {"min_poly": ["0", "1"]},
                "division": {"kind": "nope"},
                "n": 1,
            }
        )


def test_qform_roundtrip():
    q = QuadraticForm(RT2, [RT2.one(), -RT2.generator()])
    assert jsonio.qform_to_json(q) == {"diag": [["1", "0"], ["0", "-1"]]}
    # a quadratic form is a hermitian form over (F, id); its Gram is
    # diagonalized by the one hermitian routine
    A = make_algebra(base_desc(QQ), 1)
    plane = jsonio.parse_hermitian_form(A, {"gram": [["0", "1"], ["1", "0"]]})
    assert plane.rank() == 2 and signature_vector(plane).values == (0,)
    with pytest.raises(ParseError):
        jsonio.parse_hermitian_form(A, {})
