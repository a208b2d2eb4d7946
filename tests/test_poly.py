from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mopsrel import FormatError, Polynomial

coeff_lists = st.lists(st.fractions(), max_size=6)
points = st.fractions()


def test_canonical_form():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).is_zero
    assert Polynomial.zero().degree == -1
    assert Polynomial.x().degree == 1
    assert Polynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert Polynomial([0, 0, "5"]).coeff(2) == 5
    assert Polynomial([1]).coeff(9) == 0


def test_monic_flag():
    assert Polynomial([2, 1]).is_monic
    assert not Polynomial([1, 2]).is_monic
    assert not Polynomial.zero().is_monic


@given(coeff_lists, coeff_lists, points)
def test_add_is_pointwise(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    assert (p + q)(x) == p(x) + q(x)


@given(coeff_lists, coeff_lists, points)
def test_mul_is_pointwise(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists, st.fractions(), points)
def test_scalar_mul(a, k, x):
    p = Polynomial(a)
    assert (k * p)(x) == k * p(x)
    assert (p * k)(x) == p(x) * k


@given(coeff_lists, st.fractions(), points)
def test_scalar_add_sub(a, k, x):
    p = Polynomial(a)
    assert (p + k)(x) == p(x) + k
    assert (k + p)(x) == k + p(x)
    assert (p - k)(x) == p(x) - k
    assert (k - p)(x) == k - p(x)


@given(coeff_lists, coeff_lists)
def test_sub_then_add_round_trip(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert (p - q) + q == p


# small denominators, so that sums and scalar multiples often share a
# content that only the lcm scaling brings out
small_lists = st.lists(st.fractions(-3, 3, max_denominator=12), max_size=6)


@given(st.one_of(coeff_lists, small_lists), st.one_of(coeff_lists, small_lists), st.fractions())
@example([Fraction(1, 6), Fraction(1, 10)], [Fraction(1, 3), Fraction(2, 5)], Fraction(3, 2))
@example([Fraction(1, 3), Fraction(2, 3)], [], Fraction(0))
def test_operator_results_are_canonical(a, b, k):
    """+, - and scalar * give the very polynomial that the coefficient-wise
    Fraction results construct: equal, and equal in hash."""
    p, q = Polynomial(a), Polynomial(b)
    width = range(max(len(a), len(b), 1))
    for result, coeffs in (
        (p + q, [p.coeff(i) + q.coeff(i) for i in width]),
        (p - q, [p.coeff(i) - q.coeff(i) for i in width]),
        (p - p, []),
        (k - p, [k * (i == 0) - p.coeff(i) for i in width]),
        (k * p, [k * p.coeff(i) for i in width]),
        (p * k, [p.coeff(i) * k for i in width]),
        (0 * p, []),
    ):
        expected = Polynomial(coeffs)
        assert result == expected
        assert hash(result) == hash(expected)


@given(coeff_lists)
def test_json_round_trip(a):
    p = Polynomial(a)
    assert Polynomial.from_json(p.to_json()) == p


def test_from_json_rejects_non_list():
    with pytest.raises(FormatError):
        Polynomial.from_json({"coeffs": []})


def test_str_smoke():
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial([Fraction(-1, 2), 0, 1])) == "x^2 - 1/2"
    assert str(Polynomial([1, -1])) == "-x + 1"
