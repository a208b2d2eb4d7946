from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mopsrel import (
    DepthError,
    DomainError,
    MomentFunctional,
    Polynomial,
    RecurrencePair,
    chebyshev_kind,
    moments_from_recurrence,
    mops_from_recurrence,
    norm_squared,
    recurrence_from_moments,
)
from mopsrel.functional import _darboux
from oracles import (
    apply_raw,
    bessel_recurrence,
    hankel_det,
    hermite_recurrence,
    laguerre_recurrence,
    op_via_determinants,
    path_moments,
)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def small_rec(draw_beta, draw_gamma, size):
    return RecurrencePair(draw_beta[:size], draw_gamma[:size])


def test_apply_and_depth_guard():
    u = MomentFunctional([1, 2, 5])
    assert u.apply(Polynomial([3, 0, 1])) == 3 + 5
    with pytest.raises(DepthError):
        u.apply(Polynomial([0, 0, 0, 1]))


@given(
    st.lists(small_fractions, min_size=4, max_size=7),
    st.lists(small_fractions, min_size=4, max_size=4),
    st.lists(small_fractions, min_size=4, max_size=4),
)
def test_apply_is_linear(moms, a, b):
    u = MomentFunctional(moms)
    p, q = Polynomial(a), Polynomial(b)
    assert u.apply(p + q) == u.apply(p) + u.apply(q)
    assert u.apply(3 * p) == 3 * u.apply(p)


@given(
    st.lists(small_fractions, min_size=5, max_size=8),
    st.lists(small_fractions, min_size=2, max_size=3),
    st.lists(small_fractions, min_size=1, max_size=3),
)
def test_left_multiply_is_adjoint(moms, phi_c, p_c):
    phi = Polynomial(phi_c)
    p = Polynomial(p_c)
    if phi.is_zero:
        return
    u = MomentFunctional(moms)
    if phi.degree + p.degree > u.depth:
        return
    assert u.left_multiply(phi).apply(p) == u.apply(phi * p)


def test_point_mass_is_evaluation():
    zero = MomentFunctional([0] * 6)
    delta = zero.add_point_mass(Fraction(1, 2), 3)
    p = Polynomial([1, 4, 4])
    assert delta.apply(p) == 3 * p(Fraction(1, 2))


@given(st.lists(small_fractions, min_size=3, max_size=7), small_fractions, small_fractions)
def test_divide_by_linear_inverts_left_multiply(moms, c, free):
    u = MomentFunctional(moms)
    sigma = u.divide_by_linear(c, free)
    back = sigma.left_multiply(Polynomial([-c, 1]))
    assert back.moments == u.moments


def test_normalize():
    u = MomentFunctional([2, 4])
    assert u.normalized().moments == (1, 2)
    with pytest.raises(DomainError):
        MomentFunctional([0, 1]).normalized()


def test_mops_from_recurrence_matches_chebyshev():
    rec = chebyshev_kind(2, 5)
    p = mops_from_recurrence(rec, 5)
    assert all(q.degree == n and q.is_monic for n, q in enumerate(p))
    assert p[2] == Polynomial([Fraction(-1, 4), 0, 1])
    assert p[3] == Polynomial([0, Fraction(-1, 2), 0, 1])


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_moments_against_path_enumeration(kind):
    rec = chebyshev_kind(kind, 6)
    mine = moments_from_recurrence(rec, 8)
    brute = path_moments(list(rec.beta) + [Fraction(0)] * 8, rec.gamma, 8)
    assert list(mine.moments) == brute


def test_moments_against_path_enumeration_asymmetric():
    from mopsrel import JacobiParams, jacobi_recurrence

    rec = jacobi_recurrence(JacobiParams(1, 2), 6)
    mine = moments_from_recurrence(rec, 7)
    brute = path_moments(list(rec.beta) + [Fraction(0)] * 8, rec.gamma, 7)
    assert list(mine.moments) == brute


def test_recurrence_round_trip_explicit():
    rec = RecurrencePair(
        ["1/2", "-1", "2", "0", "1/3"], ["1/4", "3", "-1/2", "5", "1"]
    )
    mom = moments_from_recurrence(rec, 9)
    rep = recurrence_from_moments(mom)
    assert rep.first_vanishing is None
    assert rep.rec.beta == rec.beta
    assert rep.rec.gamma == rec.gamma[:4]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(small_fractions, min_size=4, max_size=4),
    st.lists(small_fractions.filter(lambda v: v != 0), min_size=4, max_size=4),
)
def test_recurrence_round_trip_random(beta, gamma):
    rec = RecurrencePair(beta, gamma)
    mom = moments_from_recurrence(rec, 7)
    rep = recurrence_from_moments(mom)
    assert rep.first_vanishing is None
    assert rep.rec.beta == rec.beta
    assert rep.rec.gamma == rec.gamma[:3]


def test_recovered_polynomials_match_determinant_oracle():
    rec = RecurrencePair(["1", "-1/2", "2"], ["1/3", "5", "1"])
    mom = moments_from_recurrence(rec, 5)
    p = mops_from_recurrence(rec, 4)
    for k in range(4):
        assert p[k] == op_via_determinants(mom.moments, k)


def test_norm_squared_is_hankel_ratio():
    rec = RecurrencePair(["1/2", "-1", "2", "1"], ["1/4", "3", "-1/2", "2"])
    mom = moments_from_recurrence(rec, 7)
    for n in range(1, 4):
        assert norm_squared(rec, n) == hankel_det(mom.moments, n) / hankel_det(
            mom.moments, n - 1
        )
    p = mops_from_recurrence(rec, 4)
    for n in range(4):
        assert apply_raw(mom.moments, p[n] * p[n]) == norm_squared(rec, n)


def test_point_mass_only_regular_through_zero():
    delta = MomentFunctional([1] * 9)  # all moments of delta_1
    rep = recurrence_from_moments(delta)
    assert rep.regular_through == 0
    assert rep.first_vanishing == 1
    assert rep.rec.beta == (Fraction(1),)


def test_zero_mass_flagged_at_zero():
    w2 = moments_from_recurrence(chebyshev_kind(2, 5), 8)
    shifted = w2.left_multiply(Polynomial.x())
    rep = recurrence_from_moments(shifted)
    assert rep.regular_through == -1
    assert rep.first_vanishing == 0


def test_mu1_equals_beta0():
    from mopsrel import JacobiParams, jacobi_recurrence

    for a, b in [("1/2", "1/2"), ("-1/2", "1/2"), ("0", "0"), ("1", "2")]:
        rec = jacobi_recurrence(JacobiParams(a, b), 4)
        mom = moments_from_recurrence(rec, 4)
        assert mom.moments[1] == rec.beta[0]


def test_moments_refuse_a_zero_gamma_with_the_checkers_message():
    """The moment sweep reads gamma_1..gamma_{depth // 2} and refuses a zero
    among them as ``RecurrencePair.require_regular`` (the checkers') does."""
    rec = RecurrencePair(["0"] * 4, ["1", "0", "1"])
    with pytest.raises(DomainError) as refused:
        moments_from_recurrence(rec, 6)
    assert str(refused.value) == "recurrence gamma_2 is zero inside the working range"
    # depth 5 reads gamma through index 2 only
    beyond = moments_from_recurrence(RecurrencePair(["0"] * 4, ["1", "1", "0"]), 5)
    assert beyond.moments == moments_from_recurrence(RecurrencePair(["0"] * 4, ["1", "1"]), 5).moments


def test_json_round_trips():
    rec = RecurrencePair(["0"], ["1/4"])
    assert RecurrencePair.from_json(rec.to_json()) == rec


@pytest.mark.parametrize("alpha", [Fraction(-5, 6), Fraction(0), Fraction(7, 3)])
def test_laguerre_closed_forms_recover_from_the_weight_moments(alpha):
    """The oracles' Laguerre closed forms are the recurrence of the moments
    of x^alpha e^(-x), mu_n = (alpha + 1)(alpha + 2)...(alpha + n)."""
    mu = [Fraction(1)]
    for n in range(1, 21):
        mu.append(mu[-1] * (alpha + n))
    rep = recurrence_from_moments(MomentFunctional(mu))
    closed = laguerre_recurrence(alpha, 11)
    assert rep.first_vanishing is None
    assert rep.rec.beta == closed.beta[:10] and rep.rec.gamma == closed.gamma


def test_hermite_closed_forms_recover_from_the_weight_moments():
    """The oracles' Hermite closed forms are the recurrence of the moments
    of e^(-x^2), normalized: mu_{2k} = (1/2)(3/2)...((2k - 1)/2), odd ones 0."""
    mu = [Fraction(1)]
    for n in range(1, 21):
        mu.append(0 if n % 2 else mu[-2] * Fraction(n - 1, 2))
    rep = recurrence_from_moments(MomentFunctional(mu))
    closed = hermite_recurrence(11)
    assert rep.first_vanishing is None
    assert rep.rec.beta == closed.beta[:10] and rep.rec.gamma == closed.gamma


@pytest.mark.parametrize("a", [Fraction(k, 6) for k in range(7, 25)])
def test_bessel_closed_forms_recover_from_the_functional_moments(a):
    """The oracles' Bessel closed forms (Krall and Frink, b = 2) are the
    recurrence of the moments mu_0 = 1, mu_n = -2 mu_{n-1} / (a + n - 1),
    through 20 entries of each of beta and gamma."""
    mu = [Fraction(1)]
    for n in range(1, 41):
        mu.append(-2 * mu[-1] / (a + n - 1))
    rep = recurrence_from_moments(MomentFunctional(mu))
    closed = bessel_recurrence(a, 21)
    assert rep.first_vanishing is None
    assert rep.rec.beta == closed.beta[:20] and rep.rec.gamma == closed.gamma


@settings(max_examples=120, deadline=None)
@given(
    st.lists(small_fractions, min_size=10, max_size=10),
    st.lists(small_fractions.filter(bool), min_size=9, max_size=9),
    st.integers(0, 7),
    small_fractions,
    small_fractions,
    st.sampled_from([None, None, None, 1, 2, 3, 4, 5, 6, 7, 8]),
)
def test_darboux_geronimus_reading_matches_the_hankel_recovery(beta, gamma, top, z, k1, zero):
    """On a random quasi-definite recurrence of f (beta_0..beta_{K+1},
    gamma_1..gamma_{K+1}, K = top) and random z and k_1, the Darboux kernel
    on the pivots k_1..k_{K+1} of J(f) - z I gives the report
    ``recurrence_from_moments`` gives on the sigma with (x - z) sigma = f and
    first moment 1 / (beta_0 - z - k_1): the same entries, the same first
    vanishing index and the same lengths. ``zero`` = m <= K + 1 runs the
    pivot recursion backwards from k_m = 0 for k_1, so that sigma's first
    zero Hankel determinant is at m. Without one, the Christoffel reading at
    z of sigma's recurrence gives back f's."""
    rec = RecurrencePair(beta[: top + 2], gamma[: top + 1])
    if zero is not None and zero <= top + 1:
        k1 = Fraction(0)
        for n in range(zero - 1, 0, -1):
            assume(beta[n] - z - k1 != 0)
            k1 = gamma[n - 1] / (beta[n] - z - k1)
    q0 = beta[0] - z - k1
    assume(q0 != 0)
    got, _, _ = _darboux(rec, z, k1, top + 1)
    sigma = moments_from_recurrence(rec, 2 * top + 2).divide_by_linear(z, 1 / q0)
    assert got == recurrence_from_moments(sigma.normalized())
    if zero is not None and zero <= top + 1:
        assert got.first_vanishing == zero
    if got.first_vanishing is None:
        low = got.rec
        back, _, _ = _darboux(low, z, low.beta[0] - z, top + 2)
        assert back.first_vanishing is None
        assert (RecurrencePair(back.rec.beta[1 : top + 2], back.rec.gamma[1:])
                == RecurrencePair(beta[: top + 1], gamma[: top + 1]))


def test_darboux_requires_beta_and_gamma_through_count_minus_one():
    """The step reads beta and gamma through count - 1 and takes only a
    missing gamma_count as 0. On the second kind at z = 2 and k_1 = 1/3,
    count 5, a recurrence cut to gamma_1..gamma_3 would feed a 0 for gamma_4
    into the pivot k_5 and give another step; it is refused, as is one cut
    to beta_0..beta_3. One gamma short, the step differs from the whole
    recurrence's only in q_5 and beta'_5, which read gamma_5."""
    second = chebyshev_kind(2, 6)
    beta, gamma, z, k1 = second.beta, second.gamma, Fraction(2), Fraction(1, 3)
    with pytest.raises(DepthError, match="need gamma through index 4, have 3"):
        _darboux(RecurrencePair(beta, gamma[:3]), z, k1, 5)
    with pytest.raises(DepthError, match="need beta through index 4, have 3"):
        _darboux(RecurrencePair(beta[:4], gamma), z, k1, 5)
    whole, k, q = _darboux(RecurrencePair(beta, gamma), z, k1, 5)
    short, k_short, q_short = _darboux(RecurrencePair(beta, gamma[:4]), z, k1, 5)
    assert k_short == k and whole.first_vanishing is short.first_vanishing is None
    assert q_short[0][:5] == q[0][:5] and q_short[0][5] == 0 != q[0][5]
    assert short.rec.gamma == whole.rec.gamma and short.rec.beta[:5] == whole.rec.beta[:5]
