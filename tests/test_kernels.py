"""The integer kernels against plain Fraction references.

Polynomial arithmetic and linear combinations, the Hankel form, the
three-term recurrence, the two moment <-> recurrence directions, the moment
operations, the Jacobi recurrence and the 2-3 relation sequences and
checkers all run on integers with one reduction per result. Every test
here recomputes the same value term by term in Fraction arithmetic, written
out in the test, and asserts exact equality.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    v_moments_from_relation,
    verify_functional_relation,
)
from mopsrel.poly import _combination, _vanishes
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
    assert _vanishes(terms) == (expected == ())
    # each term again as -(c / k) (k p): the sum cancels to zero, but only
    # after every term is brought over the common denominator
    cancelled = terms + [
        (-Fraction(c) / k, p * k) for (c, p), k in zip(terms, splits + [1] * len(terms))
    ]
    assert _vanishes(cancelled)
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
    assert _vanishes(terms) and _combination(terms) == Polynomial.zero()
    bent = terms + [(Fraction(1, BIG), Polynomial.one())]
    assert not _vanishes(bent)
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


@settings(max_examples=60, deadline=None)
@given(moment_lists, st.lists(coeff, min_size=1, max_size=4).filter(lambda c: any(c)))
def test_left_multiply_matches_fractions(moments, phi):
    u, p = MomentFunctional(moments), Polynomial(phi)
    d = p.degree
    if d > u.depth:
        with pytest.raises(DepthError):
            u.left_multiply(p)
        return
    ref = [
        sum((c * u.moments[n + k] for k, c in enumerate(p.coeffs)), Fraction(0))
        for n in range(u.depth - d + 1)
    ]
    assert list(u.left_multiply(p).moments) == ref


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff, coeff)
def test_add_point_mass_matches_fractions(moments, xi, mass):
    u = MomentFunctional(moments)
    ref, power = [], Fraction(1)
    for mu in u.moments:
        ref.append(mu + mass * power)
        power *= xi
    assert list(u.add_point_mass(xi, mass).moments) == ref


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff, coeff)
def test_divide_by_linear_matches_fractions(moments, c, first):
    u = MomentFunctional(moments)
    ref = [first]
    for mu in u.moments:
        ref.append(c * ref[-1] + mu)
    assert list(u.divide_by_linear(c, first).moments) == ref


@settings(max_examples=60, deadline=None)
@given(moment_lists, coeff)
def test_scale_and_normalized_match_fractions(moments, k):
    u = MomentFunctional(moments)
    assert list(u.scale(k).moments) == [k * m for m in u.moments]
    if u.moments[0] == 0:
        with pytest.raises(DomainError):
            u.normalized()
    else:
        assert list(u.normalized().moments) == [m / u.moments[0] for m in u.moments]


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
    A, B, C = ([None] * (depth + 1) for _ in range(3))
    for n in range(3, depth + 1):
        ratio = a[n + 1] / t[n + 1]
        A[n] = s[n] * ratio - beta[n - 1] - beta[n] + s[n + 1]
        B[n] = (
            a[n] * ratio
            + (s[n] - beta[n - 1]) * (s[n] * ratio - beta[n] - s[n] + s[n + 1])
            + t[n] - a[n] - gamma[n - 2]
        )
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
    bt, gt = ref_induced(beta, gamma, r, s, t, depth + 1)
    a, b, c, d = ref_auxiliary(beta, gamma, r, s, t, depth + 1, gt)
    failures = ref_prelude_failures(r, s, t, depth, gt, a, b, c, d)
    if t[4] * gamma[1] != a[4] * t[3]:
        failures.append(("startup", 4))
    before = len(failures)
    A, B, C = ref_constancy(beta, gamma, r, s, t, depth, bt, gt, a)
    for name, seq in (("A_constant", A), ("B_constant", B), ("C_constant", C)):
        failures += [(name, n) for n in range(4, depth + 1) if seq[n] != seq[3]]
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
    aux = auxiliary_sequences(rec, rel, depth + 1)
    assert tuple(aux) == ref_auxiliary(*args, depth + 1, gt)
    assert constant_sequences(rec, rel, depth) == ref_constancy(*args, depth, bt, gt, aux.a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(4, 9))
def test_relation_sequences_match_fractions(seed, depth):
    assert_sequences_match_fractions(*gated_instance(random.Random(seed), depth), depth)


@pytest.mark.parametrize("case", ["jacobi-generic", "chebyshev"])
def test_relation_sequences_match_fractions_on_worked_cases(case):
    """The worked cases at depth 40; the generic Jacobi chain's relation
    coefficients reach hundreds of bits."""
    from mopsrel import jacobi_chain

    if case == "jacobi-generic":
        rep = jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 40)
    else:
        rep = chebyshev_case(40)
    assert_sequences_match_fractions(rep.u_rec, rep.rel, 40)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(4, 9))
def test_checker_failure_lists_match_fractions(seed, depth):
    rec, rel = gated_instance(random.Random(seed), depth)
    args = (rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    eq = check_by_equations(rec, rel, depth)
    ct = check_by_constants(rec, rel, depth)
    expected_eq = ref_equation_failures(*args, depth)
    expected_ct, triple = ref_constancy_failures(*args, depth)
    assert [tuple(f) for f in eq.failures] == expected_eq
    assert [tuple(f) for f in ct.failures] == expected_ct
    assert eq.is_mops == (not expected_eq) and ct.is_mops == (not expected_ct)
    assert ct.constants == triple
    bt, gt = ref_induced(*args, depth)
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


def test_constancy_refuses_zero_divisors():
    rep = chebyshev_case(6)
    for name, n in (("t", 7), ("r", 5)):
        seqs = {"r": list(rep.rel.r), "s": list(rep.rel.s), "t": list(rep.rel.t)}
        seqs[name][n] = Fraction(0)
        rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
        with pytest.raises(DomainError, match=f"{name}_{n} = 0: constancy"):
            constant_sequences(rep.u_rec, rel, 6)


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
