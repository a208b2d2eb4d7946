from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from mopsrel import (
    DepthError,
    DomainError,
    JacobiParams,
    chebyshev_kind,
    jacobi_moments,
    jacobi_recurrence,
    moments_from_recurrence,
    mops_from_recurrence,
    norm_squared,
)
from oracles import apply_raw, jacobi_norm_ratio_float, op_via_determinants, path_moments

params_st = st.fractions(min_value=Fraction(-3, 4), max_value=3, max_denominator=4)


def test_parameter_domain():
    with pytest.raises(DomainError):
        JacobiParams(-1, 0)
    with pytest.raises(DomainError):
        JacobiParams(0, "-3/2")


def test_removable_singularities_are_covered():
    # alpha + beta = 0 hits the generic beta_0 formula's zero denominator
    rec = jacobi_recurrence(JacobiParams("1/2", "-1/2"), 4)
    assert rec.beta[0] == Fraction(-1, 2)
    assert rec.gamma[0] == Fraction(1, 4)
    # alpha + beta = -1 hits the generic gamma_1 formula
    rec = jacobi_recurrence(JacobiParams("-1/2", "-1/2"), 4)
    assert rec.gamma[0] == Fraction(1, 2)
    assert all(g == Fraction(1, 4) for g in rec.gamma[1:])


@pytest.mark.parametrize(
    "kind,beta0", [(2, Fraction(0)), (3, Fraction(1, 2)), (4, Fraction(-1, 2))]
)
def test_chebyshev_kinds(kind, beta0):
    rec = chebyshev_kind(kind, 8)
    assert rec.beta[0] == beta0
    assert all(b == 0 for b in rec.beta[1:])
    assert all(g == Fraction(1, 4) for g in rec.gamma)
    with pytest.raises(DomainError):
        chebyshev_kind(1, 4)


@settings(max_examples=20, deadline=None)
@given(params_st, params_st)
def test_symmetric_case_has_zero_beta(a, _b):
    rec = jacobi_recurrence(JacobiParams(a, a), 6)
    assert all(b == 0 for b in rec.beta)


@pytest.mark.parametrize(
    "a,b", [("1/2", "1/2"), ("-1/2", "1/2"), ("0", "0"), ("1", "2"), ("-3/4", "1/3")]
)
def test_recurrence_against_determinant_oracle(a, b):
    """The closed-form recurrence coefficients must agree with polynomials
    recovered from brute-force moments alone."""
    rec = jacobi_recurrence(JacobiParams(a, b), 5)
    brute = path_moments(list(rec.beta) + [Fraction(0)] * 8, rec.gamma, 7)
    p = mops_from_recurrence(rec, 4)
    for k in range(4):
        assert p[k] == op_via_determinants(brute, k)
    # and the squared norms match the gamma products
    acc = Fraction(1)
    for n in range(1, 4):
        acc *= rec.gamma[n - 1]
        assert apply_raw(brute, p[n] * p[n]) == acc


def test_norm_ratio_exact_and_float_check():
    for a, b in [("1/2", "1/2"), ("1/2", "-1/2"), ("0", "0"), ("1", "2")]:
        params = JacobiParams(a, b)
        for n in range(1, 7):
            rec = jacobi_recurrence(params, n + 1)
            value = norm_squared(rec, n)
            acc = Fraction(1)
            for k in range(1, n + 1):
                acc *= rec.gamma[k - 1]
            assert value == acc
            closed = jacobi_norm_ratio_float(params.alpha, params.beta, n)
            assert abs(closed - float(value)) <= 1e-10 * float(value)


def test_moments_mu1():
    for a, b in [("1/2", "1/2"), ("-1/2", "1/2"), ("2", "1/3")]:
        rec = jacobi_recurrence(JacobiParams(a, b), 4)
        mom = moments_from_recurrence(rec, 5)
        assert mom.moments[0] == 1
        assert mom.moments[1] == rec.beta[0]


# parameter pairs over assorted denominators, tied so that alpha + beta hits
# the removable singularities of the recurrence formulas (0 and -1)
pearson_param = st.fractions(min_value=Fraction(-59, 60), max_value=7, max_denominator=60)


@settings(max_examples=40, deadline=None)
@given(pearson_param, pearson_param, st.sampled_from(["free", "sum0", "sum-1"]))
@example(Fraction(1, 2), 0, "sum0")
@example(Fraction(-1, 3), 0, "sum0")
@example(Fraction(-1, 2), 0, "sum-1")
@example(Fraction(-1, 3), 0, "sum-1")
@example(Fraction(0), Fraction(0), "free")
def test_pearson_moments_match_the_lattice_paths(a, b, tie):
    b = {"free": b, "sum0": -a, "sum-1": -1 - a}[tie]
    if a <= -1 or b <= -1:
        return
    params = JacobiParams(a, b)
    rec = jacobi_recurrence(params, 61)
    mom = jacobi_moments(params, 120)
    assert mom == moments_from_recurrence(rec, 120)
    assert list(mom.moments[:8]) == path_moments(rec.beta, rec.gamma, 7)


def arcsine_moment(n: int) -> Fraction:
    """(1/pi) int x^n (1 - x^2)^(-1/2) dx over [-1, 1]: binom(n, n/2) / 2^n
    for even n, 0 for odd n."""
    return Fraction(comb(n, n // 2), 2**n) if n % 2 == 0 else Fraction(0)


# the Chebyshev weights over the arcsine weight: (1 - x^2), 1 + x and 1 - x,
# each divided by its own mass (1/2, 1, 1)
CHEBYSHEV_MOMENTS = {
    2: lambda n: 2 * (arcsine_moment(n) - arcsine_moment(n + 2)),
    3: lambda n: arcsine_moment(n) + arcsine_moment(n + 1),
    4: lambda n: arcsine_moment(n) - arcsine_moment(n + 1),
}


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_pearson_moments_of_the_chebyshev_kinds(kind):
    a, b = {2: ("1/2", "1/2"), 3: ("-1/2", "1/2"), 4: ("1/2", "-1/2")}[kind]
    mom = jacobi_moments(JacobiParams(a, b), 167)
    assert list(mom.moments) == [CHEBYSHEV_MOMENTS[kind](n) for n in range(168)]
    assert mom == moments_from_recurrence(chebyshev_kind(kind, 84), 167)


def test_pearson_moments_depth():
    params = JacobiParams("1/3", "2/7")
    assert jacobi_moments(params, 0).moments == (1,)
    assert jacobi_moments(params, 1).moments == (1, jacobi_recurrence(params, 1).beta[0])
    with pytest.raises(DepthError):
        jacobi_moments(params, -1)
