"""The integer kernels against plain Fraction references.

Polynomial arithmetic and linear combinations, the Hankel form, the
three-term recurrence, the two moment <-> recurrence directions, the moment
operations, the Jacobi recurrence and the 2-3 relation sequences and
checkers all run on integers with one reduction per result. Every test
here recomputes the same value term by term in Fraction arithmetic, written
out in the test or in ``tests/oracles.py``, and asserts exact equality.
"""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mopsrel import (
    DepthError,
    DomainError,
    FunctionalRelation,
    JacobiParams,
    MomentFunctional,
    Polynomial,
    RecurrencePair,
    Relation23,
    RelationTag,
    auxiliary_sequences,
    chebyshev_case,
    chebyshev_kind,
    check_both,
    check_by_constants,
    check_by_equations,
    classify,
    compose_ladders,
    constant_sequences,
    generate_q,
    induced_recurrence,
    jacobi_recurrence,
    moments_from_recurrence,
    mops_from_recurrence,
    recurrence_from_moments,
    regularity_criterion,
    v_moments_from_relation,
    verify_functional_relation,
)
from mopsrel.casebook import _relation_break
from mopsrel.functional import _connection_break, _darboux
from mopsrel.poly import _combination
from mopsrel.rational import _reduce_pairs
from mopsrel.relation23 import _index_condition
from conftest import ladder_parts, random_spectral_chain
from oracles import (
    add_point_mass_raw,
    apply_raw,
    divide_by_linear_raw,
    hankel_det,
    hankel_form,
    left_multiply_raw,
    orthogonality_moments,
    path_moments,
    scale_raw,
)

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
    assert (p - p).is_zero and (p - p) == Polynomial()


@given(coeff_lists, coeff)
def test_evaluation_matches_horner_in_fractions(a, x):
    p = Polynomial(a)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    assert p(x) == acc


# --- linear combinations of polynomials --------------------------------


def ref_combination(terms):
    out = [Fraction(0)] * max((len(p.coeffs) for _, p in terms), default=0)
    for c, p in terms:
        for i, x in enumerate(p.coeffs):
            out[i] += c * x
    return ref_trim(out)


# the callers pass int coefficients 1 and -1 as well as Fractions
term_lists = st.lists(
    st.tuples(st.one_of(coeff, st.sampled_from([1, -1, 0])), coeff_lists.map(Polynomial)),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(term_lists, st.lists(nonzero, max_size=5))
def test_combination_and_zero_test_match_fractions(terms, splits):
    expected = ref_combination(terms)
    assert same(_combination(terms), expected)
    assert _combination(terms).is_zero == (expected == ())
    # each term again as -(c / k) (k p): the sum cancels to zero, but only
    # after every term is brought over the common denominator
    cancelled = terms + [
        (-Fraction(c) / k, p * k) for (c, p), k in zip(terms, splits + [1] * len(terms))
    ]
    assert _combination(cancelled).is_zero


def test_combination_cancels_only_after_the_lcm_scaling():
    p = Polynomial([Fraction(1, BIG), Fraction(-3, 7), 1])
    q = Polynomial([Fraction(2, 3 * BIG), 0, Fraction(5, 11)])
    terms = [
        (Fraction(1, 3), p), (Fraction(-1, 6), p * 2),
        (Fraction(7, 5), q), (-1, q * Fraction(7, 5)),
    ]
    # no term is zero, and the terms have different denominators
    assert all(c and not (c * r).is_zero for c, r in terms)
    assert _combination(terms).is_zero and _combination(terms) == Polynomial()
    bent = terms + [(Fraction(1, BIG), Polynomial.one())]
    assert not _combination(bent).is_zero
    assert same(_combination(bent), (Fraction(1, BIG),))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 8))
def test_generate_q_matches_fractions(data, count):
    p = [Polynomial(data.draw(coeff_lists)) for _ in range(count)]
    r, s = ([Fraction(0)] + data.draw(st.lists(coeff, min_size=count - 1, max_size=count - 1))
            for _ in range(2))
    t = [Fraction(0)] * 2 + data.draw(st.lists(coeff, min_size=count - 2, max_size=count - 2))
    ref = [(Fraction(1),)]
    for n in range(1, count):
        terms = [(1, p[n]), (s[n], p[n - 1]), (-r[n], Polynomial(ref[n - 1]))]
        if n >= 2:
            terms.append((t[n], p[n - 2]))
        ref.append(ref_combination(terms))
    q = generate_q(p, Relation23(r, s, t))
    assert len(q) == count
    for got, want in zip(q, ref):
        assert same(got, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=13), st.lists(coeff, max_size=7))
def test_hankel_form_matches_apply_of_square(moments, q):
    u = MomentFunctional(moments)
    p = Polynomial(q)
    if 2 * p.degree > u.depth:
        with pytest.raises(DepthError):
            u.apply(p * p)
        return
    assert u.apply(p * p) == hankel_form(u.moments, p)
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
    assert rep.rec == RecurrencePair(beta, gamma)
    assert rep.first_vanishing == first


def test_report_counts_build_no_fraction_view(monkeypatch):
    """checked_through and regular_through count the recovered gammas on
    their integer parts: neither builds the Fraction view of the recurrence."""
    from mopsrel.rational import _SequenceModel

    rep = recurrence_from_moments(moments_from_recurrence(chebyshev_case(20).u_rec, 40))
    built = []
    view = _SequenceModel._fractions

    def spy(model):
        built.append(type(model).__name__)
        return view(model)

    monkeypatch.setattr(_SequenceModel, "_fractions", spy)
    assert (rep.first_vanishing, rep.checked_through, rep.regular_through) == (None, 20, 20)
    assert built == []
    assert len(rep.rec.gamma) == 20 and built == ["RecurrencePair"]


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



# --- the Jacobi recurrence ---------------------------------------------


def ref_jacobi(a, b, count):
    s = a + b
    beta = [(b - a) / (s + 2)]
    for n in range(1, count):
        beta.append((b * b - a * a) / ((2 * n + s) * (2 * n + s + 2)))
    gamma = []
    if count >= 2:
        gamma.append(4 * (1 + a) * (1 + b) / ((s + 2) ** 2 * (s + 3)))
    for n in range(2, count):
        gamma.append(
            4 * n * (n + a) * (n + b) * (n + s)
            / ((2 * n - 1 + s) * (2 * n + s) ** 2 * (2 * n + s + 1))
        )
    return beta, gamma


jacobi_param = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
).filter(lambda v: v > -1)


@settings(max_examples=60, deadline=None)
@given(jacobi_param, jacobi_param, st.sampled_from(["free", "sum0", "sum-1", "equal"]),
       st.integers(1, 24))
def test_jacobi_recurrence_matches_fractions(a, b, tie, count):
    if tie == "sum0":
        b = -a
    elif tie == "sum-1":
        b = -1 - a
    elif tie == "equal":
        b = a
    if b <= -1 or a <= -1:
        return
    rec = jacobi_recurrence(JacobiParams(a, b), count)
    beta, gamma = ref_jacobi(a, b, count)
    assert rec.beta == tuple(beta) and rec.gamma == tuple(gamma)


@pytest.mark.parametrize(
    "a, b",
    [("1/2", "-1/2"), ("-1/2", "1/2"), ("-1/3", "-2/3"), ("-1/2", "-1/2"),
     ("0", "0"), ("1/3", "2/7"), ("5", "5")],
)
def test_jacobi_recurrence_at_the_removable_singularities(a, b):
    a, b = Fraction(a), Fraction(b)
    rec = jacobi_recurrence(JacobiParams(a, b), 86)
    assert (list(rec.beta), list(rec.gamma)) == ref_jacobi(a, b, 86)


# --- the moment operations ---------------------------------------------


moment_lists = st.lists(coeff, min_size=1, max_size=12)
# mu_n = k_n / p_n over distinct primes p_n: no two moment denominators
# share a factor, so the common denominator is their product
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
coprime_moment_lists = st.permutations(PRIMES).flatmap(lambda primes: st.lists(
    st.integers(-(10**12), 10**12), min_size=1, max_size=len(primes),
).map(lambda nums: [Fraction(k, p) for k, p in zip(nums, primes)]))


def assert_canonical(f: MomentFunctional) -> None:
    """f's integer vector is in canonical form: it is the one the public
    constructor gives for f's moments."""
    assert f._den > 0
    assert math.gcd(f._den, *f._nums) == 1
    assert MomentFunctional(f.moments) == f


@settings(max_examples=60, deadline=None)
@given(moment_lists, st.lists(coeff, min_size=1, max_size=4).filter(lambda c: any(c)))
def test_left_multiply_matches_fractions(moments, phi):
    u, p = MomentFunctional(moments), Polynomial(phi)
    if p.degree > u.depth:
        with pytest.raises(DepthError):
            u.left_multiply(p)
        return
    got = u.left_multiply(p)
    assert list(got.moments) == left_multiply_raw(u.moments, p)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff, coeff)
def test_add_point_mass_matches_fractions(moments, xi, mass):
    u = MomentFunctional(moments)
    got = u.add_point_mass(xi, mass)
    assert list(got.moments) == add_point_mass_raw(u.moments, xi, mass)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff, coeff)
def test_divide_by_linear_matches_fractions(moments, c, first):
    u = MomentFunctional(moments)
    got = u.divide_by_linear(c, first)
    assert list(got.moments) == divide_by_linear_raw(u.moments, c, first)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff)
def test_scale_and_normalized_match_fractions(moments, k):
    u = MomentFunctional(moments)
    assert list(u.scale(k).moments) == scale_raw(u.moments, k)
    assert_canonical(u.scale(k))
    if u.moments[0] == 0:
        with pytest.raises(DomainError):
            u.normalized()
    else:
        assert list(u.normalized().moments) == scale_raw(u.moments, 1 / u.moments[0])
        assert_canonical(u.normalized())


@settings(max_examples=80, deadline=None)
@given(coprime_moment_lists, st.lists(coeff, min_size=1, max_size=4).filter(any),
       coeff, coeff, nonzero)
def test_moment_operations_on_coprime_denominators(moments, phi, x, y, k):
    """Every moment operation, on a public functional and on one that a
    kernel built, against the Fraction references; each result is in
    canonical form, and ``apply`` is the term-by-term sum."""
    u = MomentFunctional(moments)
    p, mu = Polynomial(phi), u.moments
    assert_canonical(u)
    # w is built by kernels only, so the operations below start from a
    # vector with no cached Fraction view
    w, w_ref = u.scale(k).add_point_mass(x, y), add_point_mass_raw(scale_raw(mu, k), x, y)
    results = [
        (w, w_ref),
        (u.scale(x), scale_raw(mu, x)),
        (w.scale(x), scale_raw(w_ref, x)),
        (u.divide_by_linear(x, y), divide_by_linear_raw(mu, x, y)),
        (w.divide_by_linear(x, y), divide_by_linear_raw(w_ref, x, y)),
    ]
    if w_ref[0]:
        results.append((w.normalized(), scale_raw(w_ref, 1 / w_ref[0])))
    if p.degree <= u.depth:
        results.append((u.left_multiply(p), left_multiply_raw(mu, p)))
        results.append((w.left_multiply(p), left_multiply_raw(w_ref, p)))
        assert u.apply(p) == apply_raw(mu, p)
        assert w.apply(p) == apply_raw(w_ref, p)
    for got, ref in results:
        assert list(got.moments) == ref
        assert_canonical(got)


def divide_raw(moments, phi, psi, first, last) -> list:
    """sigma_0..sigma_last of the sigma with psi sigma = phi u, psi monic of
    degree q = len(first): sigma_{n+q} = <u, phi x^n> - sum_k p_k sigma_{n+k}."""
    q, p = len(first), psi.coeffs
    out = list(first)[: last + 1]
    for n in range(last + 1 - q):
        out.append(sum(f * moments[n + k] for k, f in enumerate(phi.coeffs))
                   - sum(p[k] * out[n + k] for k in range(q)))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data(), coprime_moment_lists, st.lists(coeff, min_size=1, max_size=2).filter(any),
       st.lists(coeff, min_size=1, max_size=2))
def test_divide_matches_fractions_and_left_multiply_undoes_it(data, moments, phi, low):
    """The one division kernel, for psi = x - c as ``divide_by_linear`` takes
    it and psi = x^2 + a x + b as ``v_moments_from_relation`` does, against
    the forward substitution in Fractions; the product psi sigma is phi u on
    the range where both are known."""
    u, phi, psi = MomentFunctional(moments), Polynomial(phi), Polynomial(low + [1])
    q = psi.degree
    first = data.draw(st.lists(coeff, min_size=q, max_size=q))
    last = data.draw(st.integers(0, u.depth + q - phi.degree))
    sigma = u._divide(phi, psi, first, last)
    assert list(sigma.moments) == divide_raw(u.moments, phi, psi, first, last)
    assert_canonical(sigma)
    if q <= last and phi.degree <= u.depth:
        assert (sigma.left_multiply(psi).moments
                == u.left_multiply(phi).moments[: last - q + 1])


# --- the 2-3 relation sequences and the two checkers ---------------------


def ref_induced(beta, gamma, r, s, t, upto):
    bt = [beta[n] + s[n] - s[n + 1] - r[n] + r[n + 1] for n in range(upto + 1)]
    gt = [
        gamma[n - 1] + t[n] - t[n + 1]
        + s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
        - r[n] * (r[n + 1] - r[n] - bt[n] + bt[n - 1])
        for n in range(1, upto + 1)
    ]
    return bt, gt


def ref_auxiliary(beta, gamma, r, s, t, upto, gt):
    a, b, c, d = ([None] * (upto + 1) for _ in range(4))
    for n in range(1, upto + 1):
        a[n] = gamma[n - 1] + t[n] - t[n + 1] + s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
    for n in range(2, upto + 1):
        b[n] = s[n] * gamma[n - 2] + t[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 2])
        d[n] = r[n] * gt[n - 2]
    for n in range(3, upto + 1):
        c[n] = t[n] * gamma[n - 3]
    return a, b, c, d


def ref_constancy(beta, gamma, r, s, t, depth, bt, gt, a):
    """A_n, B_n for 3 <= n <= depth - 1 (they read a_{n+1}) and C_n for
    3 <= n <= depth, from the sequences through depth."""
    A, B, C = ([None] * (depth + 1) for _ in range(3))
    for n in range(3, depth):
        ratio = a[n + 1] / t[n + 1]
        A[n] = s[n] * ratio - beta[n - 1] - beta[n] + s[n + 1]
        B[n] = (
            a[n] * ratio
            + (s[n] - beta[n - 1]) * (s[n] * ratio - beta[n] - s[n] + s[n + 1])
            + t[n] - a[n] - gamma[n - 2]
        )
    for n in range(3, depth + 1):
        C[n] = bt[n] - r[n + 1] - gt[n - 1] / r[n]
    return A, B, C


def ref_prelude_failures(r, s, t, depth, gt, a, b, c, d):
    failures = [("gamma_tilde", n) for n in range(1, depth + 1) if gt[n - 1] == 0]
    if b[2] - d[2] != a[2] * (s[1] - r[1]):
        failures.append(("ci1", 2))
    if b[3] - d[3] != a[3] * (s[2] - r[2]):
        failures.append(("ci2", 3))
    if c[3] - b[3] * (s[1] - r[1]) != a[3] * (t[2] - s[2] * (s[1] - r[1])):
        failures.append(("ci3", 3))
    return failures


def ref_equation_failures(beta, gamma, r, s, t, depth):
    bt, gt = ref_induced(beta, gamma, r, s, t, depth)
    a, b, c, d = ref_auxiliary(beta, gamma, r, s, t, depth, gt)
    failures = ref_prelude_failures(r, s, t, depth, gt, a, b, c, d)
    for n in range(4, depth + 1):
        if b[n] != a[n] * s[n - 1]:
            failures.append(("eqn1", n))
        if c[n] != a[n] * t[n - 1]:
            failures.append(("eqn2", n))
        if d[n] != a[n] * r[n - 1]:
            failures.append(("eqn3", n))
    return failures


def ref_constancy_failures(beta, gamma, r, s, t, depth):
    bt, gt = ref_induced(beta, gamma, r, s, t, depth)
    a, b, c, d = ref_auxiliary(beta, gamma, r, s, t, depth, gt)
    failures = ref_prelude_failures(r, s, t, depth, gt, a, b, c, d)
    if t[4] * gamma[1] != a[4] * t[3]:
        failures.append(("startup", 4))
    before = len(failures)
    A, B, C = ref_constancy(beta, gamma, r, s, t, depth, bt, gt, a)
    for name, seq, last in (("A_constant", A, depth - 1), ("B_constant", B, depth - 1),
                            ("C_constant", C, depth)):
        failures += [(name, n) for n in range(4, last + 1) if seq[n] != seq[3]]
    return failures, ((A[3], B[3], C[3]) if len(failures) == before else None)


def random_value(rng, nonzero=False):
    """Zero (unless ``nonzero``), a small rational, or one whose
    denominator shares the large factor BIG."""
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            v = Fraction(0)
        elif kind == 1:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            v = Fraction(rng.randint(-(10**30), 10**30), BIG * rng.randint(1, 12))
        if v or not nonzero:
            return v


def gated_instance(rng, depth):
    """A recurrence and a non-degenerate relation through depth + 2 with
    the nonzero r_n, t_n (n >= 3) and gamma_n the checkers admit; s_n and
    beta_n vanish often."""
    size = depth + 3
    while True:
        r = [Fraction(0)] + [random_value(rng, n >= 3) for n in range(1, size)]
        s = [Fraction(0)] + [random_value(rng) for _ in range(1, size)]
        t = [Fraction(0), Fraction(0)] + [random_value(rng, n >= 3) for n in range(2, size)]
        rel = Relation23(r, s, t)
        if classify(rel).tag is RelationTag.NONDEGENERATE23:
            break
    beta = [random_value(rng) for _ in range(size - 1)]
    gamma = [random_value(rng, True) for _ in range(size - 1)]
    return RecurrencePair(beta, gamma), rel


def assert_sequences_match_fractions(rec, rel, depth):
    """The induced recurrence and the auxiliary sequences through
    depth + 1, and the constancy expressions through depth, equal their
    references."""
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    induced = induced_recurrence(rec, rel, depth + 1)
    bt, gt = ref_induced(*args, depth + 1)
    assert list(induced.beta) == bt and list(induced.gamma) == gt
    assert induced == RecurrencePair(bt, gt)
    aux = auxiliary_sequences(rec, rel, depth + 1)
    assert tuple(aux) == ref_auxiliary(*args, depth + 1, gt)
    assert constant_sequences(rec, rel, depth) == ref_constancy(*args, depth, bt, gt, aux.a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(4, 9))
def test_relation_sequences_match_fractions(seed, depth):
    assert_sequences_match_fractions(*gated_instance(random.Random(seed), depth), depth)


@functools.cache
def generic_chain(depth):
    """The worked Jacobi chain at generic parameters, whose relation
    coefficients grow by about 20 bits per index."""
    from mopsrel import jacobi_chain

    return jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, depth)


@pytest.mark.parametrize(
    "case, depth", [("jacobi-generic", 40), ("chebyshev", 40), ("jacobi-generic", 100)],
    ids=["jacobi-generic", "chebyshev", "jacobi-generic-100"],
)
def test_relation_sequences_match_fractions_on_worked_cases(case, depth):
    """The worked cases at depth 40, where the generic Jacobi chain's
    relation coefficients reach hundreds of bits, and at depth 100, in the
    range of depths the CLI traffic checks."""
    rep = generic_chain(depth) if case == "jacobi-generic" else chebyshev_case(depth)
    assert_sequences_match_fractions(rep.u_rec, rep.rel, depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(4, 60))
@example(seed=20261018, depth=60)
@example(seed=20261019, depth=200)  # the deepest CLI documents the benchmark sends
def test_checker_failure_lists_match_fractions(seed, depth):
    """Each checker alone and ``check_both``: the failure lists, the
    constants triple, the induced recurrence and the constancy expressions
    (reduced from the pairs the verdict keeps) equal their references."""
    rec, rel = gated_instance(random.Random(seed), depth)
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    expected_eq = ref_equation_failures(*args, depth)
    expected_ct, triple = ref_constancy_failures(*args, depth)
    bt, gt = ref_induced(*args, depth)
    expected_abc = ref_constancy(*args, depth, bt, gt, ref_auxiliary(*args, depth, gt)[0])
    _, both_eq, both_ct = check_both(rec, rel, depth)
    alone = (check_by_equations(rec, rel, depth), check_by_constants(rec, rel, depth))
    for eq, ct in (alone, (both_eq, both_ct)):
        assert [tuple(f) for f in eq.failures] == expected_eq
        assert [tuple(f) for f in ct.failures] == expected_ct
        assert eq.is_mops == (not expected_eq) and ct.is_mops == (not expected_ct)
        assert ct.constants == triple
        assert tuple(_reduce_pairs(seq) for seq in ct.constancy) == expected_abc
        assert eq.induced == ct.induced == RecurrencePair(bt, gt)


def test_checker_conditions_on_a_positive_case_with_large_factors():
    """The worked Jacobi chain at generic parameters: coefficients of
    hundreds of bits, every condition met, and each perturbation caught by
    the same conditions as the reference."""
    from mopsrel import jacobi_chain

    rep = jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 12)
    rec, rel, depth = rep.u_rec, rep.rel, 12
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    assert ref_equation_failures(*args, depth) == []
    for field, n in (("s", 1), ("s", 2), ("t", 2), ("t", 5), ("r", 7)):
        seqs = {"r": list(rel.r), "s": list(rel.s), "t": list(rel.t)}
        seqs[field][n] += Fraction(1, 2**61 - 1)
        bent = Relation23(seqs["r"], seqs["s"], seqs["t"])
        args = (rec.beta, rec.gamma, bent.r, bent.s, bent.t)
        eq = check_by_equations(rec, bent, depth)
        ct = check_by_constants(rec, bent, depth)
        assert [tuple(f) for f in eq.failures] == ref_equation_failures(*args, depth)
        failures, triple = ref_constancy_failures(*args, depth)
        assert [tuple(f) for f in ct.failures] == failures and ct.constants == triple
        assert not eq.is_mops and not ct.is_mops


@pytest.mark.parametrize("field", ["r", "s", "t", "beta", "gamma"])
def test_checker_conditions_on_bent_large_coefficients_at_depth_40(field):
    """The generic Jacobi chain at depth 40, with coefficients of up to
    about 840 bits: one entry of r, s, t, beta or gamma bent by
    1 / (2^61 - 1) at indices up to 40. Both verdicts of ``check_both``
    fail, and each failure list, and the constants triple, equal the
    Fraction reference, so a sign or index slip in a kernel's formula
    shows on kilobit data."""
    rep, depth = generic_chain(40), 40
    for n in (MUTABLE[field] + 2, 13, 27, depth):
        seqs = {"r": list(rep.rel.r), "s": list(rep.rel.s), "t": list(rep.rel.t),
                "beta": list(rep.u_rec.beta), "gamma": [None] + list(rep.u_rec.gamma)}
        seqs[field][n] += Fraction(1, 2**61 - 1)
        rec = RecurrencePair(seqs["beta"], seqs["gamma"][1:])
        rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
        _, eq, ct = check_both(rec, rel, depth)
        args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
        assert [tuple(f) for f in eq.failures] == ref_equation_failures(*args, depth)
        failures, triple = ref_constancy_failures(*args, depth)
        assert [tuple(f) for f in ct.failures] == failures and ct.constants == triple
        assert not eq.is_mops and not ct.is_mops


def assert_checkers_match_fractions(rec, rel, depth):
    """``check_both`` and ``constant_sequences`` against the Fraction
    references: both failure lists, the constants triple, the induced
    recurrence and the constancy expressions."""
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    bt, gt = ref_induced(*args, depth)
    expected_abc = ref_constancy(*args, depth, bt, gt, ref_auxiliary(*args, depth, gt)[0])
    failures, triple = ref_constancy_failures(*args, depth)
    _, eq, ct = check_both(rec, rel, depth)
    assert [tuple(f) for f in eq.failures] == ref_equation_failures(*args, depth)
    assert [tuple(f) for f in ct.failures] == failures and ct.constants == triple
    assert eq.induced == ct.induced == RecurrencePair(bt, gt)
    assert tuple(_reduce_pairs(seq) for seq in ct.constancy) == expected_abc
    assert constant_sequences(rec, rel, depth) == expected_abc


@pytest.mark.parametrize("bend", [None, ("s", 97), ("beta", 158)], ids=["chain", "s_97", "beta_158"])
def test_checkers_match_fractions_on_the_generic_chain_at_depth_160(bend):
    """The generic Jacobi chain at depth 160, whose coefficients reach
    thousands of bits, as given (every condition met, constants (a, b, c))
    and with one entry bent by 1 / (2^61 - 1), so both failure lists are
    long."""
    rep, depth = generic_chain(160), 160
    seqs = {"r": list(rep.rel.r), "s": list(rep.rel.s), "t": list(rep.rel.t),
            "beta": list(rep.u_rec.beta), "gamma": list(rep.u_rec.gamma)}
    if bend:
        seqs[bend[0]][bend[1]] += Fraction(1, 2**61 - 1)
    rec = RecurrencePair(seqs["beta"], seqs["gamma"])
    rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
    assert_checkers_match_fractions(rec, rel, depth)
    if not bend:
        assert check_by_constants(rec, rel, depth).constants == rep.verdict_constants.constants


def ratio_path_instance(seed, depth):
    """A gated instance whose ratios a_{n+1} / t_{n+1} take the zero and the
    sign paths of their reduction: t_6, t_7 and t_10 are negative, and
    gamma_6 and gamma_9 are solved for a_6 = a_9 = 0 (a_6 over t_6 < 0, a_9
    over t_9 > 0). None if a solved gamma is 0."""
    rec, rel = gated_instance(random.Random(seed), depth)
    beta, gamma = list(rec.beta), [None] + list(rec.gamma)
    r, s, t = list(rel.r), list(rel.s), list(rel.t)
    t[9] = abs(t[9])
    for n in (6, 7, 10):
        t[n] = -abs(t[n])
    for n in (6, 9):
        # a_n = gamma_n + t_n - t_{n+1} + s_n (s_{n+1} - s_n - beta_n + beta_{n-1}) = 0
        gamma[n] = t[n + 1] - t[n] - s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
        if not gamma[n]:
            return None
    return RecurrencePair(beta, gamma[1:]), Relation23(r, s, t)


@pytest.mark.parametrize("seed", range(6))
def test_constancy_ratio_zero_and_sign_paths_match_fractions(seed):
    depth = 12
    rec, rel = next(filter(None, (ratio_path_instance(seed * 1000 + k, depth)
                                  for k in range(1000))))
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    _, gt = ref_induced(*args, depth)
    a = ref_auxiliary(*args, depth, gt)[0]
    assert a[6] == a[9] == 0 and a[7] and a[10]
    assert rel.t[6] < 0 < rel.t[9] and rel.t[7] < 0 and rel.t[10] < 0
    assert_checkers_match_fractions(rec, rel, depth)


def test_constancy_refuses_zero_divisors():
    """t_6 is the last t_{n+1} that A_5 and B_5 divide by at depth 6, and
    r_5 one of the r_n that C_n divides by."""
    rep = chebyshev_case(6)
    for name, n in (("t", 6), ("r", 5)):
        seqs = {"r": list(rep.rel.r), "s": list(rep.rel.s), "t": list(rep.rel.t)}
        seqs[name][n] = Fraction(0)
        rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
        with pytest.raises(DomainError, match=f"{name}_{n} = 0: constancy"):
            constant_sequences(rep.u_rec, rel, 6)
    # t_7 is read (by a_6) but divided by at depth 7 only
    t = list(rep.rel.t)
    t[7] = Fraction(0)
    A, B, C = constant_sequences(rep.u_rec, Relation23(rep.rel.r, rep.rel.s, t), 6)
    assert A[6] is B[6] is None and C[6] is not None


def test_constant_sequences_start_at_depth_4():
    """A_3 and B_3 read a_4, so depth 3 defines no constancy expression
    and is refused; at depth 4 only C reaches n = 4."""
    rep = chebyshev_case(6)
    with pytest.raises(DepthError, match="depth >= 4"):
        constant_sequences(rep.u_rec, rep.rel, 3)
    A, B, C = constant_sequences(rep.u_rec, rep.rel, 4)
    assert None not in (A[3], B[3], C[3], C[4]) and A[4] is B[4] is None


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), coeff, coeff, coeff, st.sampled_from(["free", "equal", "nudge"]),
       coeff)
@example(n=2, r_prev=Fraction(0), s_prev=Fraction(0), r_n=Fraction(0), kind="free",
         t_free=Fraction(0))
def test_index_condition_matches_fractions(n, r_prev, s_prev, r_n, kind, t_free):
    """The one test of t_n = r_n (s_{n-1} - r_{n-1}) on a relation's integer
    parts against the equality in Fractions: zero entries, small ones and
    ones whose denominators share BIG, with t_n drawn, on the equality, or
    1/BIG off it."""
    target = r_n * (s_prev - r_prev)
    t_n = {"free": t_free, "equal": target, "nudge": target + Fraction(1, BIG)}[kind]
    r, s, t = ([Fraction(0)] * (n + 1) for _ in range(3))
    r[n - 1], r[n], s[n - 1], t[n] = r_prev, r_n, s_prev, t_n
    rel = Relation23(r, s, t)
    assert _index_condition(rel._integers(), n) == (t_n == r_n * (s_prev - r_prev))


@functools.cache
def mutation_bases():
    """Positive instances with data through index 22: the Chebyshev case,
    the generic and half Jacobi chains, and a random chain of the builder
    that both worked cases call."""
    from mopsrel import jacobi_chain

    return (
        chebyshev_case(21),
        jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 21),
        jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, 21),
        random_spectral_chain(random.Random(20260818), 21)[0],
    )


# the first index of each sequence that a mutation may set
MUTABLE = {"r": 1, "s": 1, "t": 2, "beta": 0, "gamma": 1}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3), st.integers(5, 20), st.sampled_from(sorted(MUTABLE)), st.data(),
    st.sampled_from(["7", "-3/5", "0", "nudge"]),
)
def test_checkers_agree_on_single_entry_mutations(base, depth, field, data, kind):
    """One entry of r, s, t, beta or gamma of a positive instance set to
    another value, at an index up to one past the window of either checker:
    check_both refuses the data or gives two verdicts that agree, and both
    failure lists (and the constants triple) equal their references. Near
    a positive instance the conditions fail at few indices, so each
    eqn1-eqn3 and A/B/C constancy condition is decided one index at a time."""
    rep = mutation_bases()[base]
    seqs = {"r": list(rep.rel.r), "s": list(rep.rel.s), "t": list(rep.rel.t),
            "beta": list(rep.u_rec.beta), "gamma": [None] + list(rep.u_rec.gamma)}
    n = data.draw(st.integers(MUTABLE[field], depth + 2), label="n")
    old = seqs[field][n]
    seqs[field][n] = old + Fraction(1, 2**61 - 1) if kind == "nudge" else Fraction(kind)
    rec = RecurrencePair(seqs["beta"], seqs["gamma"][1:])
    rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
    try:
        _, eq, ct = check_both(rec, rel, depth)
    except DomainError:
        return
    assert eq.is_mops == ct.is_mops
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    assert [tuple(f) for f in eq.failures] == ref_equation_failures(*args, depth)
    failures, triple = ref_constancy_failures(*args, depth)
    assert [tuple(f) for f in ct.failures] == failures and ct.constants == triple


def ref_pivots(beta, gamma, z, k1, count):
    """[None, k_1, ..., k_m] with k_{n+1} = beta_n - z - gamma_n / k_n, term by
    term in Fractions, stopping after the first zero."""
    k = [None, k1]
    for n in range(1, count):
        if k[n] == 0:
            break
        k.append(beta[n] - z - gamma[n - 1] / k[n])
    return k


def ref_darboux(beta, gamma, z, k):
    """beta', gamma', U's diagonal [q_0, q_1, ...] and the first zero k_n of L U + z I,
    term by term in Fractions: q_0 = beta_0 - z - k_1, then gamma'_n = k_n q_{n-1}, q_n =
    gamma_n / k_n (0 past the given gammas) and beta'_n = z + q_n + k_n."""
    q = [beta[0] - z - k[1]]
    out_beta, out_gamma = [z + q[0]], []
    for n in range(1, len(k)):
        if k[n] == 0:
            return out_beta, out_gamma, q, n
        out_gamma.append(k[n] * q[n - 1])
        q.append(gamma[n - 1] / k[n] if n <= len(gamma) else Fraction(0))
        out_beta.append(z + q[n] + k[n])
    return out_beta, out_gamma, q, None


non_integer = st.one_of(small, shared).filter(lambda v: v.denominator > 1)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(1, 12))
def test_pivots_and_darboux_match_fractions(data, count):
    """``_darboux`` on random recurrences, small and BIG-denominator entries,
    a non-integer z and k_1 in part of the draws, k_1 = beta_0 - z (the
    Christoffel reading) in another, k_1 = 0 in another, and a zero pivot
    k_m forced by the choice of beta_{m-1} in another: L's subdiagonal k,
    U's diagonal q and the recurrence of L U + z I hold exactly the
    reference values as reduced parts, in lowest terms with k_0 = 0, with
    the same lengths and the same first vanishing index."""
    beta = data.draw(st.lists(coeff, min_size=count, max_size=count), label="beta")
    gamma = data.draw(st.lists(nonzero, min_size=count - 1, max_size=count), label="gamma")
    z = data.draw(st.one_of(non_integer, coeff), label="z")
    k1 = data.draw(st.one_of(non_integer, nonzero, st.just(None)), label="k1")
    if k1 is None:
        k1 = beta[0] - z
    zero = data.draw(st.sampled_from([None, *range(1, count + 1)]), label="zero")
    if zero == 1:
        k1 = Fraction(0)
    elif zero is not None:
        k = ref_pivots(beta, gamma, z, k1, zero - 1)
        if len(k) == zero and k[-1] != 0:
            beta[zero - 1] = z + gamma[zero - 2] / k[-1]
    k = ref_pivots(beta, gamma, z, k1, count)
    if zero is not None:
        assert len(k) <= zero + 1 and k[-1] == 0
    out_beta, out_gamma, q, first = ref_darboux(beta, gamma, z, k)
    report, pivots, diagonal = _darboux(RecurrencePair(beta, gamma), z, k1, count)
    assert pivots == ladder_parts(k)
    assert diagonal == ([v.numerator for v in q], [v.denominator for v in q])
    assert report.first_vanishing == first
    assert report.rec._integers() == tuple(
        ([v.numerator for v in seq], [v.denominator for v in seq])
        for seq in (out_beta, out_gamma)
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 9))
def test_compose_ladders_matches_fractions(data, top):
    a = [None] + data.draw(st.lists(coeff, min_size=top, max_size=top))
    b = [None] + data.draw(st.lists(coeff, min_size=top, max_size=top))
    l = [None] + data.draw(st.lists(coeff, min_size=top, max_size=top))
    r, s, t = ([Fraction(0)] * (top + 1) for _ in range(3))
    s[1] = a[1] - b[1] + l[1]
    for n in range(2, top + 1):
        gap = b[n - 1] - l[n - 1]
        if gap == 0:
            with pytest.raises(DomainError, match=f"n={n}"):
                compose_ladders(a, b, l)
            return
        rho = (b[n] - l[n]) / gap
        r[n], s[n], t[n] = b[n - 1] * rho, a[n] + l[n - 1] * rho, a[n - 1] * l[n - 1] * rho
    rel = compose_ladders(a, b, l)
    assert (list(rel.r), list(rel.s), list(rel.t)) == (r, s, t)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=12), coeff, coeff, coeff, coeff, coeff)
def test_functional_identity_matches_fractions(moments, lam, c, a, b, beta0):
    u = MomentFunctional([1] + moments)
    fr = FunctionalRelation(lam or Fraction(1), c, a, b)
    ref = [Fraction(1), beta0]
    for n in range(u.depth - 1):
        ref.append(fr.lam * (u.moments[n + 1] - fr.c * u.moments[n]) - fr.a * ref[n + 1] - fr.b * ref[n])
    v = v_moments_from_relation(u, fr, beta0)
    assert list(v.moments) == ref
    depth = u.depth - 2
    assert verify_functional_relation(u, v, fr, depth) == (True, None)
    # a change of one moment is found at the first identity that reads it
    k = len(ref) - 1
    bent = MomentFunctional(ref[:k] + [ref[k] + Fraction(1, BIG)])
    first = next(
        n for n in range(depth + 1)
        if fr.lam * (u.moments[n + 1] - fr.c * u.moments[n])
        != bent.moments[n + 2] + fr.a * bent.moments[n + 1] + fr.b * bent.moments[n]
    )
    assert verify_functional_relation(u, bent, fr, depth) == (False, first)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=12), st.lists(coeff, min_size=2, max_size=2),
       coeff, coeff, coeff, st.one_of(st.none(), st.tuples(st.integers(0, 11), nonzero)))
def test_functional_identity_at_lambda_zero(moments, start, c, a, b, bend):
    """With lambda = 0 the identity holds exactly where (x^2 + a x + b) v
    vanishes: v solves v_{n+2} = -a v_{n+1} - b v_n, perhaps with one moment
    bent, and the first failing n is the first nonzero product moment."""
    u = MomentFunctional([1] + moments)
    ref = list(start)
    while len(ref) < u.depth + 1:
        ref.append(-a * ref[-1] - b * ref[-2])
    if bend is not None and bend[0] < len(ref):
        ref[bend[0]] += bend[1]
    depth = u.depth - 2
    first = next((n for n in range(depth + 1)
                  if ref[n + 2] + a * ref[n + 1] + b * ref[n] != 0), None)
    fr = FunctionalRelation(Fraction(0), c, a, b)
    assert verify_functional_relation(u, MomentFunctional(ref), fr, depth) == (first is None, first)


# --- connection certificates on recurrences -------------------------------

# P = L R, L unit lower with subdiagonals l^(1)..l^(w), holds exactly when
# L J_R = J_P L, J the Jacobi matrix of a recurrence (``_connection_break``).
# At w = 1, L's subdiagonal is k, and row n of the identity has the entries
# (n, n): beta^R_n + k_n = beta_n + k_{n+1},
# (n, n-1): gamma^R_n + k_n beta^R_{n-1} = gamma_n + beta_n k_n and
# (n, n-2): k_n gamma^R_{n-1} = gamma_n k_{n-1}.


def lemma_upper(lower, k, top):
    """The upper recurrence that the ladder U_n = L_n + k_n L_{n-1}
    (1 <= n <= top) over the lower recurrence asks for: with R the lower
    family and P the upper, the entries (n, n) and (n, n-1) of
    L J_R = J_P L solved for P's, beta'_0 = beta_0 - k_1 and, for n >= 1,
    beta'_n = beta_n + k_n - k_{n+1} and gamma'_n = gamma_n + k_n (beta_{n-1} - beta'_n)."""
    beta, gamma = lower.beta, (None,) + lower.gamma
    up_beta = [beta[0] - k[1]] + [beta[n] + k[n] - k[n + 1] for n in range(1, top)]
    up_gamma = [gamma[n] + k[n] * (beta[n - 1] - up_beta[n]) for n in range(1, top)]
    return RecurrencePair(up_beta, up_gamma)


def forced_k(lower, k1, k2, top):
    """k_1..k_top from k_1 and k_2, each k_{n+1} (n >= 2) forced by the entry
    (n, n-2) of L J_R = J_P L (R the lower family, P the upper),
    k_n gamma_{n-1} = gamma'_n k_{n-1}, with gamma'_n from ``lemma_upper``, so
    that the ladder holds through top. None when a forced k_n vanishes."""
    beta, gamma = lower.beta, (None,) + lower.gamma
    k = [None, k1, k2]
    for n in range(2, top):
        if k[n] == 0 or k[n - 1] == 0:
            return None
        k.append((k[n] * gamma[n - 1] / k[n - 1] - gamma[n]) / k[n] - beta[n - 1] + beta[n] + k[n])
    return k


def polynomial_ladder_break(lower, upper, bands, top):
    """The first n at which U_n - L_n - sum_j l^(j)_n L_{n-j} is not the zero
    polynomial, over the families of the two recurrences, or None. ``bands``
    lists the subdiagonals l^(1), l^(2), ..., each as [unused, l_1, ..., l_top]."""
    low = mops_from_recurrence(lower, top + 1)
    up = mops_from_recurrence(upper, top + 1)
    return next(
        (n for n in range(1, top + 1)
         if not _combination([(1, up[n]), (-1, low[n])] + [
             (-l[n], low[n - j]) for j, l in enumerate(bands, 1) if j <= n]).is_zero),
        None,
    )


def bend(k, upper, field, index, delta):
    """k and the upper recurrence with ``delta`` added to one entry: k_index,
    beta'_index or gamma'_{index + 1}."""
    k, beta, gamma = list(k), list(upper.beta), list(upper.gamma)
    {"k": k, "beta": beta, "gamma": gamma}[field][index] += delta
    return k, RecurrencePair(beta, gamma)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 10))
def test_ladder_certificate_matches_polynomial_identities(data, top):
    """A ladder built by the lemma, then bent in one entry of k, beta' or
    gamma', fails first where the polynomial identity does."""
    lower = RecurrencePair(
        data.draw(st.lists(coeff, min_size=top, max_size=top)),
        data.draw(st.lists(nonzero, min_size=top - 1, max_size=top - 1)),
    )
    k = forced_k(lower, data.draw(nonzero), data.draw(nonzero), top)
    if k is None:
        return
    upper = lemma_upper(lower, k, top)
    assert polynomial_ladder_break(lower, upper, [k], top) is None
    assert _connection_break(upper, lower, (ladder_parts(k),), top) is None
    field = data.draw(st.sampled_from(["k", "beta", "gamma"]))
    first = 1 if field == "k" else 0
    last = {"k": top, "beta": top - 1, "gamma": top - 2}[field]
    index = data.draw(st.integers(first, last))
    k, upper = bend(k, upper, field, index, data.draw(nonzero))
    expected = polynomial_ladder_break(lower, upper, [k], top)
    assert expected is not None
    assert _connection_break(upper, lower, (ladder_parts(k),), top) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 10))
def test_ladder_certificate_matches_polynomial_identities_for_free_k(data, top):
    """With k drawn freely, the entries (n, n) and (n, n-1) hold by
    construction, so the entry (n, n-2), k_n gamma_{n-1} = gamma'_n k_{n-1},
    decides (at n = 3 unless the draw meets it)."""
    lower = RecurrencePair(
        data.draw(st.lists(coeff, min_size=top, max_size=top)),
        data.draw(st.lists(nonzero, min_size=top - 1, max_size=top - 1)),
    )
    k = [None] + data.draw(st.lists(coeff, min_size=top, max_size=top))
    upper = lemma_upper(lower, k, top)
    assert (_connection_break(upper, lower, (ladder_parts(k),), top)
            == polynomial_ladder_break(lower, upper, [k], top))


@pytest.fixture(scope="module")
def generic_down_ladder():
    """The down ladder W~_n = P_n + b_n P_{n-1} of the generic Jacobi chain
    at depth 40, the relation of which reaches 842 bits: P from the
    recurrence of u (entries up to 589 bits), W~ rebuilt by the lemma."""
    from mopsrel import jacobi_chain

    rep = jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 40)
    top = 42
    k = forced_k(rep.u_rec, rep.b_seq[1], rep.b_seq[2], top)
    assert k == list(rep.b_seq)
    return rep.u_rec, lemma_upper(rep.u_rec, k, top), k, top


@pytest.mark.parametrize(
    "field, index",
    [("k", 1), ("k", 2), ("k", 23), ("k", 42), ("beta", 0), ("beta", 17),
     ("beta", 41), ("gamma", 0), ("gamma", 29), ("gamma", 40)],
)
def test_ladder_certificate_on_generic_jacobi_data(generic_down_ladder, field, index):
    lower, upper, k, top = generic_down_ladder
    assert _connection_break(upper, lower, (ladder_parts(k),), top) is None
    k, upper = bend(k, upper, field, index, Fraction(1, 2**61 - 1))
    expected = polynomial_ladder_break(lower, upper, [k], top)
    assert expected is not None
    assert _connection_break(upper, lower, (ladder_parts(k),), top) == expected


# the first list position that a bend of the 1-3 ladder may set (gamma_{i+1} at
# position i of gamma): l2_1 = 0 lies below its band
LADDER13_BENDABLE = {"l1": 1, "l2": 2, "beta": 0, "gamma": 0}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(12, 40), st.sampled_from(sorted(LADDER13_BENDABLE)),
       st.data())
def test_connection_certificate_at_band_width_2_on_builder_chains(seed, depth, field, data):
    """v = w / (x - z1) of a builder positive has the MOPS Q_n = W_n + c_n
    W_{n-1}. With d_n the pivots of J(w) - z2 I from d_0 = beta_0 - z2, rows
    1.. of ``_darboux``'s step on them are the recurrence of the MOPS K of
    (x - z2) w, and W_n = K_n + e_n K_{n-1}, e_n = gamma_n / d_{n-1} (e_0 =
    0). So Q = L_c L_e K is the 1-3 ladder Q_n = K_n + l1_n K_{n-1} + l2_n
    K_{n-2}, l1_n = c_n + e_n and l2_n = c_n e_{n-1}, through top = depth +
    2, which a certificate reading only l1 would refuse at n = 2. One entry
    of l1, l2 or v's beta or gamma, bent by 1/7, breaks it first where the
    polynomial identity breaks."""
    chain, (w_rec, _, _, z2, _, _) = random_spectral_chain(random.Random(seed), depth)
    top = depth + 2
    step, d, _ = _darboux(w_rec, z2, w_rec.beta[0] - z2, top)
    if step.first_vanishing is not None:  # (x - z2) w is not regular through top
        return
    k_rec = RecurrencePair(step.rec.beta[1:], step.rec.gamma[1:])
    e = [Fraction(0)] + [w_rec.gamma[n - 1] / Fraction(d[0][n], d[1][n])
                         for n in range(1, top + 1)]
    c = chain.c_seq
    l1 = [None] + [c[n] + e[n] for n in range(1, top + 1)]
    l2 = [None] + [c[n] * e[n - 1] for n in range(1, top + 1)]
    q_rec = chain.v_rec
    assert polynomial_ladder_break(k_rec, q_rec, [l1, l2], top) is None
    assert _connection_break(q_rec, k_rec, (ladder_parts(l1), ladder_parts(l2)), top) is None

    seqs = {"l1": l1, "l2": l2, "beta": list(q_rec.beta), "gamma": list(q_rec.gamma)}
    # the certificate reads v's beta and gamma through top - 1
    last = top if field in ("l1", "l2") else top - 1 - (field == "gamma")
    seqs[field][data.draw(st.integers(LADDER13_BENDABLE[field], last), label="n")] += Fraction(1, 7)
    q_rec = RecurrencePair(seqs["beta"], seqs["gamma"])
    expected = polynomial_ladder_break(k_rec, q_rec, [l1, l2], top)
    assert expected is not None
    assert _connection_break(q_rec, k_rec, (ladder_parts(l1), ladder_parts(l2)), top) == expected


def forced_ladder(lower, width, draws, top):
    """An upper recurrence and the subdiagonals [unused, l_1, ..., l_top] of
    a unit lower L of band width 0, 1 or 2 with P = L R through top (R the
    lower family, P the upper), or None where a forced k vanishes: P = R;
    the ladder of ``forced_k`` from draws[0], draws[1]; or that ladder M
    followed by the forced ladder P_n = M_n + k'_n M_{n-1} from draws[2],
    draws[3], so l1_n = k_n + k'_n and l2_n = k'_n k_{n-1} (k_0 = 0)."""
    bands, upper = [], lower
    for k1, k2 in zip(draws[: 2 * width : 2], draws[1 : 2 * width : 2]):
        k = forced_k(upper, k1, k2, top)
        if k is None:
            return None
        bands.append(k)
        upper = lemma_upper(upper, k, top)
    if width == 2:
        k, kk = bands
        bands = [[None] + [k[n] + kk[n] for n in range(1, top + 1)],
                 [None, Fraction(0)] + [kk[n] * k[n - 1] for n in range(2, top + 1)]]
    return upper, bands


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2), st.integers(2, 10))
def test_connection_certificate_reads_each_band_at_0_to_top(data, width, top):
    """At band widths 0, 1 and 2 a forced ladder, bent in one entry of a band
    or of the upper recurrence (or not at all), fails first where the
    polynomial identity does, the same with every band and both recurrences
    extended past top by arbitrary entries; a band cut to top entries is
    refused."""
    lower = RecurrencePair(
        data.draw(st.lists(coeff, min_size=top, max_size=top)),
        data.draw(st.lists(nonzero, min_size=top - 1, max_size=top - 1)),
    )
    built = forced_ladder(lower, width, data.draw(st.lists(nonzero, min_size=4, max_size=4)), top)
    if built is None:
        return
    upper, bands = built
    beta, gamma = list(upper.beta), list(upper.gamma)
    fields = {**{f"l{j}": band for j, band in enumerate(bands, 1)}, "beta": beta, "gamma": gamma}
    field = data.draw(st.sampled_from(["none", *fields]))
    if field != "none":
        # l^(j)_n is bendable from n = j, beta'_n through top - 1, gamma'_{i+1} through i = top - 2
        first = int(field[1:]) if field.startswith("l") else 0
        last = {"beta": top - 1, "gamma": top - 2}.get(field, top)
        fields[field][data.draw(st.integers(first, last))] += Fraction(1, 7)
        upper = RecurrencePair(beta, gamma)
    expected = polynomial_ladder_break(lower, upper, bands, top)
    assert _connection_break(upper, lower, tuple(map(ladder_parts, bands)), top) == expected
    extra = st.lists(coeff, min_size=1, max_size=3)
    longer = tuple(ladder_parts(band + data.draw(extra)) for band in bands)
    upper, lower = (RecurrencePair(rec.beta + tuple(data.draw(extra)),
                                   rec.gamma + tuple(data.draw(extra))) for rec in (upper, lower))
    assert _connection_break(upper, lower, longer, top) == expected
    if width:
        cut = data.draw(st.integers(0, width - 1))
        short = tuple(tuple(part[:top] for part in band) if j == cut else band
                      for j, band in enumerate(longer))
        with pytest.raises(DepthError, match=f"through index {top}, have {top - 1}"):
            _connection_break(upper, lower, short, top)


def test_connection_certificate_at_band_width_0_decides_equal_recurrences():
    """With no band the certificate decides P = R: the second and fourth
    Chebyshev kinds differ at beta_0, so P_1 != R_1, and a kind equals
    itself. On the Chebyshev lambda-ladder (the fourth kind over the second)
    at top 10, a bent lambda_10 breaks the ladder at 10, and the band cut
    to lambda_0..lambda_9 is refused rather than read through 9."""
    second, fourth = chebyshev_kind(2, 12), chebyshev_kind(4, 12)
    assert _connection_break(second, fourth, (), 10) == 1
    assert _connection_break(second, second, (), 10) is None
    lam = list(chebyshev_case(10).lambda_seq)
    assert _connection_break(fourth, second, (ladder_parts(lam),), 10) is None
    lam[10] += Fraction(1, 7)
    band = ladder_parts(lam)
    assert _connection_break(fourth, second, (band,), 10) == 10
    with pytest.raises(DepthError):
        _connection_break(fourth, second, (tuple(part[:10] for part in band),), 10)


def random_composition(data, top, equal_prefix=0):
    """A family R from a random recurrence, a 2-2 ladder (a, b) that gives
    P_n = R_n + b_n R_{n-1} - a_n P_{n-1}, a 1-2 ladder l that gives
    Q_n = R_n + l_n R_{n-1} (b_n != l_n), and the families P, Q and R, as
    Polynomial lists through top. a_n = b_n for n <= equal_prefix, so that
    P_n = R_n there; further a_n = b_n draws come by chance."""
    rec = RecurrencePair(
        data.draw(st.lists(small, min_size=top, max_size=top)),
        data.draw(st.lists(nonzero, min_size=top, max_size=top)),
    )
    r = mops_from_recurrence(rec, top + 1)
    b = [None] + data.draw(st.lists(nonzero, min_size=top, max_size=top))
    l = [None] + [v + data.draw(nonzero) for v in b[1:]]
    a = [None] + [
        b[n] if n <= equal_prefix else data.draw(st.one_of(st.just(b[n]), small))
        for n in range(1, top + 1)
    ]
    p, q = [r[0]], [r[0]]
    for n in range(1, top + 1):
        p.append(r[n] + r[n - 1] * b[n] - p[n - 1] * a[n])
        q.append(r[n] + r[n - 1] * l[n])
    return a, b, l, p, q, r


def polynomial_23_break(rel, p, q):
    """The first n at which Q_n + r_n Q_{n-1} - P_n - s_n P_{n-1} - t_n P_{n-2}
    (no t term at n = 1) is not the zero polynomial, or None."""
    r, s, t = rel.r, rel.s, rel.t
    for n in range(1, rel.max_index + 1):
        rest = q[n] + q[n - 1] * r[n] - p[n] - p[n - 1] * s[n]
        if n >= 2:
            rest = rest - p[n - 2] * t[n]
        if not rest.is_zero:
            return n
    return None


def bend_relation(rel, bends):
    """The relation with each (field, index, delta) of ``bends`` added."""
    seqs = {"r": list(rel.r), "s": list(rel.s), "t": list(rel.t)}
    for field, index, delta in bends:
        seqs[field][index] += delta
    return Relation23(seqs["r"], seqs["s"], seqs["t"])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 9))
def test_23_certificate_matches_polynomial_identities(data, top):
    """Random composed ladders with one bent r, s or t entry: the
    certificate fails first where the polynomial identity does."""
    a, b, l, p, q, _ = random_composition(data, top)
    rel = compose_ladders(a, b, l)
    assert polynomial_23_break(rel, p, q) is None
    assert _relation_break(rel, *map(ladder_parts, (a, b, l))) is None
    field = data.draw(st.sampled_from("rst"))
    index = data.draw(st.integers(2 if field == "t" else 1, top))
    bent = bend_relation(rel, [(field, index, data.draw(nonzero))])
    expected = polynomial_23_break(bent, p, q)
    assert expected is not None
    assert _relation_break(bent, *map(ladder_parts, (a, b, l))) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(3, 9), st.booleans())
def test_23_certificate_with_f_nonzero_decides_by_p_equal_r(data, top, equal):
    """r_n and s_n moved by one delta, and t_n by delta (l_{n-1} - b_{n-1}
    + a_{n-1}), keep l_n + r_n = b_n + e_n and g_n = f_n but make
    f_n = delta (l_{n-1} - b_{n-1}) nonzero: the identity then holds at n
    exactly when P_{n-2} = R_{n-2}, which a = b through n - 2 ensures."""
    index = data.draw(st.integers(3, top))
    a, b, l, p, q, r = random_composition(data, top, equal_prefix=index - 2 if equal else 0)
    rel = compose_ladders(a, b, l)
    delta = data.draw(nonzero)
    bent = bend_relation(rel, [
        ("r", index, delta), ("s", index, delta),
        ("t", index, delta * (l[index - 1] - b[index - 1] + a[index - 1])),
    ])
    expected = polynomial_23_break(bent, p, q)
    assert expected == (None if p[index - 2] == r[index - 2] else index)
    assert not equal or expected is None
    assert _relation_break(bent, *map(ladder_parts, (a, b, l))) == expected


@pytest.fixture(scope="module")
def generic_composition():
    """The generic Jacobi chain at depth 40, whose relation reaches 842
    bits, with its ladders as the certificate reads them and the MOPS of u
    (P) and of v (Q) through the relation's last index."""
    rep = generic_chain(40)
    top = rep.rel.max_index
    p, q = (mops_from_recurrence(rec, top + 1) for rec in (rep.u_rec, rep.v_rec))
    ladders = [ladder_parts(seq) for seq in (rep.b_seq, rep.a_seq, rep.c_seq)]
    assert polynomial_23_break(rep.rel, p, q) is None
    assert _relation_break(rep.rel, *ladders) is None
    return rep.rel, ladders, p, q


@pytest.mark.parametrize("field", ["r", "s", "t"])
@pytest.mark.parametrize("index", [3, 20, 41])
def test_23_certificate_on_generic_jacobi_data(generic_composition, field, index):
    """One r, s or t entry of the depth-40 generic chain bent by 1/7: the
    certificate, which cross-multiplies unreduced pairs of entries near 800
    bits, fails first where the polynomial identity does, at the bent index."""
    rel, ladders, p, q = generic_composition
    bent = bend_relation(rel, [(field, index, Fraction(1, 7))])
    assert polynomial_23_break(bent, p, q) == index
    assert _relation_break(bent, *ladders) == index


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 9))
def test_regularity_criterion_reads_p_at_c_by_the_recurrence(data, depth):
    """The no-root side of ``regularity_criterion`` from the recurrence
    against P_n(c) of the built family, with beta_{k-1} chosen, if drawn,
    so that P_k(c) = 0 for one k <= depth. At depth 0 the recurrence is
    empty: P_0 = 1 has no root, and no beta_0 is read."""
    beta = data.draw(st.lists(small, min_size=depth, max_size=depth))
    gamma = data.draw(st.lists(st.one_of(nonzero, st.just(Fraction(0))), min_size=depth, max_size=depth))
    c = data.draw(st.one_of(small, shared))
    k = data.draw(st.integers(0, depth))
    p = mops_from_recurrence(RecurrencePair(beta, gamma), depth + 1)
    if k and p[k - 1](c) != 0:
        # P_k(c) = (c - beta_{k-1}) P_{k-1}(c) - gamma_{k-1} P_{k-2}(c) = 0
        before = p[k - 2](c) * gamma[k - 2] if k >= 2 else 0
        beta[k - 1] = c - before / p[k - 1](c)
        p = mops_from_recurrence(RecurrencePair(beta, gamma), depth + 1)
        assert p[k](c) == 0
    rel = Relation23(*([Fraction(0)] * (max(depth, 2) + 1) for _ in range(3)))
    no_root, _ = regularity_criterion(RecurrencePair(beta, gamma), c, rel, depth)
    assert no_root == all(p[n](c) != 0 for n in range(depth + 1))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 9))
def test_regularity_criterion_no_index_side_matches_fractions(data, depth):
    """The no-index side of ``regularity_criterion``, decided on integer
    parts, against t_n != r_n (s_{n-1} - r_{n-1}) in Fractions, with t_k
    set, if drawn, so that the equality holds at one chosen k <= depth."""
    top = max(depth, 2)
    r, s, t = ([Fraction(0)] + data.draw(st.lists(coeff, min_size=top, max_size=top)) for _ in range(3))
    t[1] = Fraction(0)
    k = data.draw(st.integers(0, depth))
    if k >= 2:
        t[k] = r[k] * (s[k - 1] - r[k - 1])
    rec = RecurrencePair([Fraction(0)] * depth, [Fraction(1)] * depth)
    _, no_index = regularity_criterion(rec, 0, Relation23(r, s, t), depth)
    assert no_index == all(t[n] != r[n] * (s[n - 1] - r[n - 1]) for n in range(2, depth + 1))
    assert no_index or depth >= 2
    assert not no_index or k < 2
