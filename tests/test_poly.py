from fractions import Fraction

from hypothesis import example, given, strategies as st

from mopsrel import Polynomial

coeff_lists = st.lists(st.fractions(), max_size=6)
points = st.fractions()


def test_canonical_form():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).is_zero
    assert Polynomial().degree == -1
    assert Polynomial.x().degree == 1
    assert Polynomial([0, 0, 0, 1]).coeffs == (0, 0, 0, 1)
    assert Polynomial([0, 0, "5"]).coeffs[2] == 5


def test_monic_flag():
    assert Polynomial([2, 1]).is_monic
    assert not Polynomial([1, 2]).is_monic
    assert not Polynomial().is_monic


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


def padded(p, width):
    """p's coefficients, zero-padded to ``width`` entries."""
    return list(p.coeffs) + [Fraction(0)] * (width - len(p.coeffs))


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
    width = max(len(a), len(b), 1)
    pc, qc = padded(p, width), padded(q, width)
    for result, coeffs in (
        (p + q, [x + y for x, y in zip(pc, qc)]),
        (p - q, [x - y for x, y in zip(pc, qc)]),
        (p - p, []),
        (k - p, [k * (i == 0) - x for i, x in enumerate(pc)]),
        (k * p, [k * x for x in pc]),
        (p * k, [x * k for x in pc]),
        (0 * p, []),
    ):
        expected = Polynomial(coeffs)
        assert result == expected
        assert hash(result) == hash(expected)


def test_str_smoke():
    assert str(Polynomial()) == "0"
    assert str(Polynomial([Fraction(-1, 2), 0, 1])) == "x^2 - 1/2"
    assert str(Polynomial([1, -1])) == "-x + 1"
