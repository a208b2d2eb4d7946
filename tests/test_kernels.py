"""The integer kernels against plain Fraction references.

Polynomial arithmetic, the Hankel form, the three-term recurrence and the
two moment <-> recurrence directions all run on integers over a common
denominator. Every test here recomputes the same value term by term in
Fraction arithmetic, written out in the test, and asserts exact equality.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mopsrel import (
    DepthError,
    MomentFunctional,
    Polynomial,
    RecurrencePair,
    chebyshev_case,
    moments_from_recurrence,
    mops_from_recurrence,
    recurrence_from_moments,
)
from oracles import hankel_det, orthogonality_moments, path_moments

# denominators that share a large factor, so common denominators and
# content reductions actually cancel
BIG = (2**61 - 1) * 3**20
shared = st.builds(
    lambda n, k: Fraction(n, BIG * k),
    st.integers(-(10**30), 10**30),
    st.integers(1, 12),
)
small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
coeff = st.one_of(small, shared, st.just(Fraction(0)))
nonzero = st.one_of(small, shared).map(lambda v: v or Fraction(1))
coeff_lists = st.lists(coeff, max_size=7)


def ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def same(p: Polynomial, coeffs) -> bool:
    """Exact equality of value and of the canonical form: equal
    polynomials must compare and hash equal however they were built."""
    ref = Polynomial(coeffs)
    return p.coeffs == tuple(coeffs) and p == ref and hash(p) == hash(ref)


@given(coeff_lists, coeff_lists)
def test_product_matches_fraction_convolution(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert same(p * q, ref_mul(p.coeffs, q.coeffs))


@pytest.mark.parametrize(
    "a, b",
    [
        ([], [1, 2]),
        ([0, 0], [3]),
        ([Fraction(5, 7)], [Fraction(-7, 5), 1]),
        ([Fraction(-1, BIG), Fraction(1, 2 * BIG)], [Fraction(BIG, 3), -BIG]),
        ([-1, 0, -2], [0, -3, Fraction(-1, 4)]),
    ],
)
def test_product_edge_cases(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert same(p * q, ref_mul(p.coeffs, q.coeffs))
    assert same(q * p, ref_mul(p.coeffs, q.coeffs))


@given(coeff_lists, coeff)
def test_scalar_product_matches_fractions(a, c):
    p = Polynomial(a)
    expected = ref_trim(x * c for x in p.coeffs)
    assert same(p * c, expected)
    assert same(c * p, expected)


@given(coeff_lists, coeff_lists)
def test_sum_and_difference_match_fractions(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert same(p + q, ref_add(p.coeffs, q.coeffs))
    assert same(p - q, ref_add(p.coeffs, q.coeffs, -1))
    assert same(-p, ref_trim(-x for x in p.coeffs))
    assert (p - p).is_zero and (p - p) == Polynomial.zero()


@given(coeff_lists, coeff)
def test_evaluation_matches_horner_in_fractions(a, x):
    p = Polynomial(a)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    assert p(x) == acc


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=13), st.lists(coeff, max_size=7))
def test_hankel_form_matches_apply_of_square(moments, q):
    u = MomentFunctional(moments)
    p = Polynomial(q)
    if 2 * p.degree > u.depth:
        with pytest.raises(DepthError):
            u.apply_square(p)
        return
    ref = Fraction(0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(p.coeffs):
            ref += x * y * u.moments[i + j]
    assert u.apply_square(p) == ref == u.apply(p * p)
    assert u.apply(p) == sum(
        (c * u.moments[k] for k, c in enumerate(p.coeffs)), Fraction(0)
    )


def ref_mops(beta, gamma, count):
    polys = [(Fraction(1),)]
    prev = ()
    for n in range(count - 1):
        cur = polys[-1]
        nxt = [Fraction(0)] + list(cur)
        for i, c in enumerate(cur):
            nxt[i] -= beta[n] * c
        if n >= 1:
            for i, c in enumerate(prev):
                nxt[i] -= gamma[n - 1] * c
        prev = cur
        polys.append(ref_trim(nxt))
    return polys


def random_recurrence(rng, n):
    def frac(nonzero):
        while True:
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if v or not nonzero:
                return v

    return (
        [frac(False) for _ in range(n)],
        [frac(True) for _ in range(n)],
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(coeff, min_size=9, max_size=9), st.lists(coeff, min_size=9, max_size=9))
def test_mops_matches_fraction_recurrence(beta, gamma):
    rec = RecurrencePair(beta, gamma)
    for got, want in zip(mops_from_recurrence(rec, 10), ref_mops(beta, gamma, 10)):
        assert same(got, want)


def test_mops_matches_fraction_recurrence_at_degree_60():
    beta, gamma = random_recurrence(random.Random(61), 60)
    rec = RecurrencePair(beta, gamma)
    got = mops_from_recurrence(rec, 61)
    assert [p.coeffs for p in got] == ref_mops(rec.beta, rec.gamma, 61)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_moments_match_path_enumeration(data):
    depth = data.draw(st.integers(0, 8))
    beta = data.draw(st.lists(coeff, min_size=5, max_size=5))
    gamma = data.draw(st.lists(nonzero, min_size=5, max_size=5))
    mine = moments_from_recurrence(RecurrencePair(beta, gamma), depth)
    assert list(mine.moments) == path_moments(beta, gamma, depth)


@pytest.mark.parametrize("depth", [0, 1, 2, 9, 10, 159, 160])
def test_moments_match_orthogonality_oracle(depth):
    beta, gamma = random_recurrence(random.Random(depth), 160)
    mine = moments_from_recurrence(RecurrencePair(beta, gamma), depth)
    assert list(mine.moments) == orthogonality_moments(beta, gamma, depth)


def ref_recurrence_from_moments(mu):
    """The sigma recursion in Fractions: (beta, gamma, first_vanishing)."""
    if mu[0] == 0:
        return [], [], 0
    beta, gamma = [mu[1] / mu[0]] if len(mu) > 1 else [], []
    prev, row = [], list(mu)
    for k in range(1, (len(mu) - 1) // 2 + 1):
        nxt = []
        for j in range(len(mu) - 2 * k):
            val = row[j + 2] - beta[k - 1] * row[j + 1]
            if k >= 2:
                val -= gamma[k - 2] * prev[j + 2]
            nxt.append(val)
        if nxt[0] == 0:
            return beta[:k], gamma, k
        gamma.append(nxt[0] / row[0])
        if len(nxt) > 1:
            beta.append(nxt[1] / nxt[0] - row[1] / row[0])
        prev, row = row, nxt
    return beta, gamma, None


def test_recurrence_round_trip_at_160():
    beta, gamma = random_recurrence(random.Random(160), 81)
    rec = RecurrencePair(beta, gamma)
    mom = moments_from_recurrence(rec, 160)
    rep = recurrence_from_moments(mom)
    assert (rep.regular_through, rep.first_vanishing, rep.checked_through) == (80, None, 80)
    assert rep.rec.beta == rec.beta[:80]
    assert rep.rec.gamma == rec.gamma[:80]
    assert (list(rep.rec.beta), list(rep.rec.gamma), None) == ref_recurrence_from_moments(
        mom.moments
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=12))
def test_recurrence_from_moments_matches_fractions(moments):
    rep = recurrence_from_moments(MomentFunctional(moments))
    beta, gamma, first = ref_recurrence_from_moments([Fraction(m) for m in moments])
    assert rep.rec.beta == tuple(beta)
    assert rep.rec.gamma == tuple(gamma)
    assert rep.first_vanishing == first


def test_recurrence_singular_at_zero_mass():
    rep = recurrence_from_moments(MomentFunctional([0, 1, 2, 3, 4]))
    assert (rep.regular_through, rep.first_vanishing, rep.checked_through) == (-1, 0, 0)
    assert rep.rec.beta == () and rep.rec.gamma == ()


def test_recurrence_singular_on_shifted_chebyshev_functional():
    case = chebyshev_case(8)
    report = case.shifted_hankel
    assert (report.regular_through, report.first_vanishing, report.checked_through) == (-1, 0, 0)
    # the same shift of u rebuilt from its recurrence, against the reference
    u = moments_from_recurrence(case.u_rec, 16)
    shifted = u.left_multiply(Polynomial([-1, 1]))
    rep = recurrence_from_moments(shifted)
    assert (rep.regular_through, rep.first_vanishing, rep.checked_through) == (-1, 0, 0)
    assert ref_recurrence_from_moments(shifted.moments) == ([], [], 0)


def test_recurrence_singular_in_the_middle():
    # three point masses: Delta_0..Delta_2 are nonzero and Delta_3 = 0
    atoms = [(Fraction(-1), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3)), (Fraction(2), Fraction(1, 6))]
    moments = [sum(w * x**n for x, w in atoms) for n in range(21)]
    rep = recurrence_from_moments(MomentFunctional(moments))
    assert (rep.regular_through, rep.first_vanishing, rep.checked_through) == (2, 3, 3)
    assert [hankel_det(moments, k) != 0 for k in range(4)] == [True, True, True, False]
    beta, gamma, first = ref_recurrence_from_moments(moments)
    assert (rep.rec.beta, rep.rec.gamma, first) == (tuple(beta), tuple(gamma), 3)
