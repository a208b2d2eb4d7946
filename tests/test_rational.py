import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mopsrel import FormatError, as_scalar, format_rational, parse_rational


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-1/4", Fraction(-1, 4)), ("0", Fraction(0)),
     ("10/3", Fraction(10, 3)), ("-0", Fraction(0))],
)
def test_parse_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1.5", "1/0", "1/-2", "+3", "", "a", "1 /2", "1e3"])
def test_parse_rejects(text):
    with pytest.raises(FormatError):
        parse_rational(text)


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_as_scalar_coercions():
    assert as_scalar(7) == Fraction(7)
    assert as_scalar("2/3") == Fraction(2, 3)
    assert as_scalar(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(FormatError):
        as_scalar(0.5)
    with pytest.raises(FormatError):
        as_scalar(None)


# the interpreter's cap on decimal digits in an int conversion (0: no cap)
DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_CAP, reason="no int digit cap in this interpreter")
def test_parse_reports_oversized_integer_as_format_error():
    digits = "7" * (DIGIT_CAP + 700)
    with pytest.raises(FormatError, match=f"{len(digits)} characters"):
        parse_rational(digits)
    with pytest.raises(FormatError, match=f"{len(digits) + 2} characters"):
        parse_rational("1/" + digits)
