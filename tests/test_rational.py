import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mopsrel import FormatError, as_scalar, format_rational, parse_rational
from mopsrel.rational import _scalar_parts


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-1/4", Fraction(-1, 4)), ("0", Fraction(0)),
     ("10/3", Fraction(10, 3)), ("-0", Fraction(0)), ("0007", Fraction(7)),
     ("6/4", Fraction(3, 2)), ("-06/4", Fraction(-3, 2)), ("0/5", Fraction(0))],
)
def test_parse_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["1.5", "1/0", "1/-2", "+3", "", "a", "1 /2", "1e3",
     "+1", " 1", "/2", "1/", "3\n", "\u0663", "1/\u0663", "1_000", "1/2\n"],
)
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


@pytest.mark.parametrize("value", [True, False])
def test_as_scalar_refuses_bool(value):
    # a bool is an int, but a JSON true or false is not a coefficient
    with pytest.raises(FormatError):
        as_scalar(value)


def test_as_scalar_accepts_json_integers():
    assert as_scalar(-12) == Fraction(-12)
    assert as_scalar(0) == Fraction(0)
    assert as_scalar(10**40) == Fraction(10**40)


# the interpreter's cap on decimal digits in an int conversion (0: no cap)
DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_CAP, reason="no int digit cap in this interpreter")
def test_parse_reports_oversized_integer_as_format_error():
    digits = "7" * (DIGIT_CAP + 700)
    with pytest.raises(FormatError, match=f"{len(digits)} characters"):
        parse_rational(digits)
    with pytest.raises(FormatError, match=f"{len(digits) + 2} characters"):
        parse_rational("1/" + digits)


# decimal strings of a drawn length: short ones, and ones just under the cap
LENGTHS = st.integers(1, 12) | st.integers((DIGIT_CAP or 4300) - 3, DIGIT_CAP or 4300)


@st.composite
def rational_strings(draw):
    """Strings of the form -?p(/q)? the parser must accept, with leading
    zeros, "-0" and unreduced fractions among them."""
    rnd = draw(st.randoms(use_true_random=False))

    def digits(first="0123456789"):
        n = draw(LENGTHS)
        return rnd.choice(first) + "".join(rnd.choices("0123456789", k=n - 1))

    sign = draw(st.sampled_from(["", "-"]))
    num = draw(st.sampled_from(["0", "00", "6", "007"])) if draw(st.booleans()) else digits()
    if draw(st.booleans()):
        return sign + num
    den = draw(st.sampled_from(["4", "1", "10"])) if draw(st.booleans()) else digits("123456789")
    return f"{sign}{num}/{den}"


@settings(max_examples=150, deadline=None)
@given(rational_strings())
def test_parse_matches_fraction(text):
    assert parse_rational(text) == Fraction(text)



def reference_parts(values) -> list:
    return [(f.numerator, f.denominator) for f in map(as_scalar, values)]


# entries a document or a caller may give: strings with unreduced fractions,
# "-0/7" and leading zeros among them, ints and Fractions
ENTRIES = (
    rational_strings()
    | st.sampled_from(["6/4", "-0/7", "007/14", "-0", "0/1", "-12/8"])
    | st.integers(-10**30, 10**30)
    | st.fractions()
)
# what ``as_scalar`` refuses: bad strings, bools, floats, other types and, under
# a digit cap, strings past it
OVERSIZED = ["7" * (DIGIT_CAP + 1), "-1/" + "3" * (DIGIT_CAP + 5)] if DIGIT_CAP else []
REFUSED = st.sampled_from(
    ["1.5", "1/0", "+3", "", " 1", "3\n", "1/2\n", "٣", "1 /2", True, False, 0.5,
     None, [], *OVERSIZED]
) | st.floats()


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRIES, max_size=8))
def test_scalar_parts_match_as_scalar(values):
    nums, dens = _scalar_parts(values)
    assert list(zip(nums, dens)) == reference_parts(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRIES, max_size=4), REFUSED, st.lists(ENTRIES | REFUSED, max_size=3))
def test_scalar_parts_refuse_as_as_scalar(head, bad, tail):
    """The first refused entry raises the FormatError that ``as_scalar``
    raises for it, message and all."""
    with pytest.raises(FormatError) as expected:
        as_scalar(bad)
    with pytest.raises(FormatError) as got:
        _scalar_parts(head + [bad] + tail)
    assert type(got.value) is FormatError and str(got.value) == str(expected.value)
