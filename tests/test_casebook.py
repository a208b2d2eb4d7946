"""Worked-case builders: frozen values, certified identities, failure paths."""

import dataclasses
import hashlib
import inspect
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mopsrel import (
    ContractError,
    DepthError,
    DomainError,
    FunctionalRelation,
    JacobiParams,
    MomentFunctional,
    Polynomial,
    RecurrencePair,
    RecurrenceReport,
    Relation23,
    check_by_constants,
    check_by_equations,
    chebyshev_case,
    compose_ladders,
    generate_q,
    half_case_closed_forms,
    jacobi_chain,
    jacobi_moments,
    jacobi_recurrence,
    moments_from_recurrence,
    mops_from_recurrence,
    norm_squared,
    recurrence_from_moments,
    relation_constants,
    v_moments_from_relation,
    verify_functional_relation,
)
from mopsrel import casebook, families, functional, rational, relation23
from mopsrel.cli import _json_text
from conftest import ladder_parts, random_spectral_chain
from oracles import hankel_form


@pytest.fixture(scope="module")
def cheb():
    return chebyshev_case(6)


@pytest.fixture(scope="module")
def chain():
    return jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, 6)


def test_chebyshev_depth_guard():
    with pytest.raises(DepthError):
        chebyshev_case(4)


def test_chebyshev_frozen_ladder(cheb):
    assert cheb.point_mass_ratio == Fraction(3, 2)
    assert cheb.a_seq[0] is None
    assert cheb.a_seq[1:4] == (Fraction(-1, 2), Fraction(-5, 6), Fraction(3, 10))
    assert cheb.b_seq[1:4] == (Fraction(-3, 2), Fraction(-5, 6), Fraction(-7, 10))
    assert all(v == Fraction(1, 2) for v in cheb.lambda_seq[1:])


def test_chebyshev_frozen_relation(cheb):
    rel = cheb.rel
    assert rel.r[1:4] == (0, -1, Fraction(-3, 4))
    assert rel.s[1:4] == (Fraction(3, 2), Fraction(-1, 2), Fraction(3, 4))
    assert rel.t[2:5] == (Fraction(-1, 6), Fraction(-3, 8), Fraction(1, 7))


def test_chebyshev_verdicts_and_constants(cheb):
    assert cheb.verdict_equations.is_mops
    assert cheb.verdict_constants.is_mops
    assert cheb.constants == FunctionalRelation(Fraction(3, 2), 1, 1, 0)
    assert cheb.verdict_constants.constants == (1, 0, 1)


def test_chebyshev_flags(cheb):
    assert cheb.regularity == (False, False)
    assert cheb.shifted_hankel.regular_through == -1
    assert cheb.shifted_hankel.first_vanishing == 0
    assert cheb.odd_index_identity is True
    assert cheb.to_json()["moment_identity_ok"] is True
    # what the key states: lambda (x - c) u = (x^2 + a x + b) v on u's moments and
    # the fourth kind's, from the Pearson equation
    u = moments_from_recurrence(cheb.u_rec, 2 * cheb.depth + 2)
    v = jacobi_moments(JacobiParams(*families._CHEBYSHEV_PARAMS[4]), u.depth)
    assert verify_functional_relation(u, v, cheb.constants, u.depth - 2) == (True, None)


def test_chebyshev_odd_index_identity_direct(cheb):
    # t_{2k+1} = r_{2k+1} (s_{2k} - r_{2k}) for every odd index in range
    rel = cheb.rel
    for n in range(3, cheb.depth + 1, 2):
        assert rel.t[n] == rel.r[n] * (rel.s[n - 1] - rel.r[n - 1])


def test_chebyshev_q_family_satisfies_relation(cheb):
    count = cheb.depth + 2
    p = mops_from_recurrence(cheb.u_rec, count)
    q = mops_from_recurrence(cheb.q_rec, count)
    assert q == generate_q(p, cheb.rel)


def test_chebyshev_json_payload(cheb):
    payload = cheb.to_json()
    assert payload["case"] == "chebyshev"
    assert payload["point_mass_ratio"] == Fraction(3, 2)
    assert payload["classification"] == "NonDegenerate23"
    assert payload["lambda"][1] == Fraction(1, 2)
    assert payload["regularity_criterion"] == [False, False]
    assert payload["shifted_functional_first_vanishing"] == 0
    written = json.loads(_json_text(payload))
    assert (written["point_mass_ratio"], written["lambda"][1]) == ("3/2", "1/2")


def test_chebyshev_csv_shape(cheb):
    rows = cheb.to_csv()
    assert rows[0] == [
        "n", "a_n", "b_n", "lambda_n", "r_n", "s_n", "t_n",
        "beta_tilde_n", "gamma_tilde_n", "A_n", "B_n", "C_n",
    ]
    assert len(rows) == cheb.depth + 2
    assert all(len(row) == 12 for row in rows)
    assert rows[1][:2] == [0, None]


def test_chebyshev_relation_is_the_ladder_composition(cheb):
    rel = compose_ladders(cheb.a_seq, cheb.b_seq, cheb.lambda_seq)
    assert (rel.r, rel.s, rel.t) == (cheb.rel.r, cheb.rel.s, cheb.rel.t)


def test_jacobi_depth_guard():
    with pytest.raises(DepthError):
        jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, 4)


def test_jacobi_frozen_ladders(chain):
    assert chain.ok and chain.failure is None
    assert chain.u_mass == Fraction(-1, 3)
    assert chain.v_mass == Fraction(1, 3)
    assert chain.a_seq[1:6] == (
        2,
        Fraction(-9, 8),
        Fraction(-7, 9),
        Fraction(-19, 28),
        Fraction(-12, 19),
    )
    assert chain.b_seq[1:6] == (
        6,
        Fraction(3, 40),
        Fraction(35, 117),
        Fraction(741, 2044),
        Fraction(292, 741),
    )
    # symmetric weight with c_1 = -a_1 keeps the ladders opposite
    assert all(c == -a for a, c in zip(chain.a_seq[1:], chain.c_seq[1:]))


def test_jacobi_relation_collapses_onto_ladder(chain):
    # with c_n = -a_n the mixing ratio is a_n / a_{n-1}, so r_n = a_n
    for n in range(2, chain.depth + 1):
        assert chain.rel.r[n] == chain.a_seq[n]
    assert chain.rel.s[1] - chain.rel.r[1] == (
        chain.b_seq[1] + chain.c_seq[1] - chain.a_seq[1]
    )


def test_jacobi_relation_is_the_ladder_composition(chain):
    # P_n + b_n P_{n-1} = W_n + a_n W_{n-1} and Q_n = W_n + c_n W_{n-1}
    rel = compose_ladders(chain.b_seq, chain.a_seq, chain.c_seq)
    assert (rel.r, rel.s, rel.t) == (chain.rel.r, chain.rel.s, chain.rel.t)


def test_jacobi_verdicts_and_constants(chain):
    assert chain.verdict_equations.is_mops
    assert chain.verdict_constants.is_mops
    assert chain.constants == FunctionalRelation(1, 1, 2, 1)
    assert chain.verdict_constants.constants == (2, 1, 1)
    assert chain.constants.lam == -chain.u_mass / chain.v_mass


def test_jacobi_flags(chain):
    payload = chain.to_json()
    assert payload["moment_identity_ok"] is payload["norm_link_ok"] is True
    assert chain.regularity == (True, True)
    # what the norm-link key states, as Favard products: <v, Q_n^2> = c_n <w, W_{n-1}^2>
    w_rec = jacobi_recurrence(JacobiParams("1/2", "1/2"), chain.depth)
    for n in range(1, chain.depth + 1):
        assert chain.v_mass * norm_squared(chain.v_rec, n) == (
            chain.c_seq[n] * norm_squared(w_rec, n - 1))


def test_jacobi_json_and_csv(chain):
    payload = chain.to_json()
    assert payload["case"] == "jacobi-chain"
    assert payload["ok"] is True
    assert payload["u_mass"] == Fraction(-1, 3)
    assert payload["classification"] == "NonDegenerate23"
    assert json.loads(_json_text(payload))["u_mass"] == "-1/3"
    rows = chain.to_csv()
    assert rows[0][:4] == ["n", "a_n", "b_n", "c_n"]
    assert len(rows) == chain.depth + 2


@pytest.mark.parametrize(
    "a1, c1, condition, index",
    [
        (0, -2, "a1 must be nonzero", None),
        (2, 0, "c1 must be nonzero", None),
        (-1, -2, "w_tilde_mass", None),
        (1, -2, "u_mass", None),
        (2, 1, "v_mass", None),
        ("-1/4", -2, "a_recursion_breakdown", 2),
        (2, 2, "link_coefficients_equal", 1),
    ],
)
def test_jacobi_admissibility_failures(a1, c1, condition, index):
    rep = jacobi_chain(JacobiParams("1/2", "1/2"), a1, c1, 6)
    assert not rep.ok
    assert rep.failure.condition == condition
    assert rep.failure.n == index
    payload = rep.to_json()
    assert payload["ok"] is False
    assert payload["failure"].condition == condition
    assert "relation" not in payload
    rows = rep.to_csv()
    assert rows[0] == ["failure", "n"]
    assert rows[1] == [condition, index]


@pytest.mark.parametrize(
    "a1, c1, condition",
    [
        # a_2 = -1 - gamma_1 / a_1 and c_2 = 1 - gamma_1 / c_1 with gamma_1 = 1/4
        ("-1/4", "1/4", "a_recursion_breakdown"),
        (2, "1/4", "c_recursion_breakdown"),
        # a_3 = 0 at a_1 = -1/3 comes after c_2 = 0
        ("-1/3", "1/4", "c_recursion_breakdown"),
    ],
)
def test_jacobi_recursion_breakdown_is_reported_at_its_smallest_index(a1, c1, condition):
    """A zero a_n or c_n below the top index is reported at the smallest n,
    the a-ladder's before the c-ladder's when both vanish at that n."""
    rep = jacobi_chain(JacobiParams("1/2", "1/2"), a1, c1, 6)
    assert not rep.ok
    assert (rep.failure.condition, rep.failure.n) == (condition, 2)


def test_half_case_denominators_vanish_only_outside_the_domain():
    """Each closed-form denominator of ``half_case_closed_forms`` is linear
    in a1, with one zero (1 - w (n - 1) has none at n = 1). For n < 400 that
    zero is a1 = 1 or lies inside (-1/2, 0], which the function refuses
    before it divides."""
    for n in range(1, 400):
        zeros = [Fraction(1 + n - n * n, 2 * n * n - 1)]  # (2n+1)(1+a1) - w n (n+1)
        if n > 1:
            zeros.append(Fraction(2 - n, 2 * (n - 1)))  # 1 - w (n - 1), w = 1 + 2 a1
        for a1 in zeros:
            w = 1 + 2 * a1
            assert (1 - w * (n - 1)) * ((2 * n + 1) * (1 + a1) - w * n * (n + 1)) == 0
            assert a1 == 1 or Fraction(-1, 2) < a1 <= 0
            with pytest.raises(DomainError):
                half_case_closed_forms(a1, n)


def test_jacobi_other_parameter_sets():
    legendre = jacobi_chain(JacobiParams(0, 0), 3, -3, 5)
    assert legendre.ok
    assert legendre.u_mass == Fraction(-1, 2)
    assert legendre.v_mass == Fraction(1, 4)
    assert legendre.constants.lam == 2

    skew = jacobi_chain(JacobiParams(1, 2), 2, -2, 5)
    assert skew.ok
    assert skew.u_mass == Fraction(-2, 7)
    assert skew.v_mass == Fraction(5, 16)
    assert skew.constants.lam == Fraction(32, 35)


def test_half_case_domain():
    for bad in (1, -1):
        with pytest.raises(DomainError, match="must not be"):
            half_case_closed_forms(bad, 6)
    for bad in (0, "-1/4"):
        with pytest.raises(DomainError, match="outside"):
            half_case_closed_forms(bad, 6)


def test_half_case_matches_recursion_and_pipeline(chain):
    a, b = half_case_closed_forms(2, 8)
    assert a[1:9] == list(chain.a_seq[1:9])
    assert b[1:9] == list(chain.b_seq[1:9])
    # independent recheck of the forward recursion a_{n+1} = -1 - gamma_n / a_n
    g = jacobi_recurrence(JacobiParams("1/2", "1/2"), 9).gamma
    for n in range(1, 8):
        assert a[n + 1] == -1 - g[n - 1] / a[n]


CHAIN_SETS = {
    "generic": (JacobiParams("1/3", "2/7"), 3, -5),
    "half": (JacobiParams("1/2", "1/2"), 2, -2),
}


@pytest.mark.parametrize(
    "name, depth", [("generic", 5), ("generic", 12), ("generic", 40), ("half", 30)]
)
def test_jacobi_norm_link_favard_matches_quadratic_form(name, depth):
    """The norm link <v, Q_n^2> = c_n <w, W_{n-1}^2>, which the chain's payload
    states as true, holds for every n <= depth as two Hankel forms summed in
    plain Fractions, one on v's moments and one on w's (``jacobi_moments``); and
    <v, Q_n^2> is the Favard product mu_0(v) gamma_1 ... gamma_n of the
    recurrence the chain lifted for v."""
    params, a1, c1 = CHAIN_SETS[name]
    report = jacobi_chain(params, a1, c1, depth)
    w = jacobi_moments(params, 2 * depth + 2)
    v_raw = w.divide_by_linear(-1, report.v_mass)
    q = mops_from_recurrence(report.v_rec, depth + 1)
    big_w = mops_from_recurrence(jacobi_recurrence(params, depth), depth)
    for n in range(1, depth + 1):
        v_side = hankel_form(v_raw.moments, q[n])
        assert v_side == report.c_seq[n] * hankel_form(w.moments, big_w[n - 1])
        assert v_side == v_raw.moments[0] * norm_squared(report.v_rec, n)


def b_by_norm_ratio(report, params):
    """b_n = -a_n <w, W_{n-1}^2> / (u_mass <u, P_{n-1}^2>) for 1 <= n <= depth + 2,
    each norm a Favard product from ``norm_squared``: the ratio the chain
    telescopes."""
    w_rec = jacobi_recurrence(params, report.depth + 2)
    return (None,) + tuple(
        -report.a_seq[n] * norm_squared(w_rec, n - 1)
        / (report.u_mass * norm_squared(report.u_rec, n - 1))
        for n in range(1, report.depth + 3)
    )


@pytest.mark.parametrize(
    "name, depth",
    [("generic", 5), ("generic", 12), ("generic", 40), ("generic", 100), ("half", 30)],
)
def test_jacobi_b_seq_is_the_norm_ratio(name, depth):
    params, a1, c1 = CHAIN_SETS[name]
    report = jacobi_chain(params, a1, c1, depth)
    assert report.b_seq == b_by_norm_ratio(report, params)


def _chain_outputs(report):
    return _json_text(report.to_json()), report.to_csv()


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [5, 6, 12])
@pytest.mark.parametrize("name", ["generic", "half"])
def test_jacobi_chain_reads_no_moment_past_its_window(monkeypatch, name, depth, extra):
    """The chain reads w through its recurrence alone (it builds no moment,
    ``test_jacobi_chain_recovers_no_recurrence_from_moments``), so its window
    is the recurrence's: junk entries past what it asks for change no byte of
    its report."""
    params, a1, c1 = CHAIN_SETS[name]
    expected = _chain_outputs(jacobi_chain(params, a1, c1, depth))
    recurrence = casebook.jacobi_recurrence

    def padded(p, count):
        rec = recurrence(p, count)
        junk = [Fraction(1, 7)] * extra
        return RecurrencePair(list(rec.beta) + junk, list(rec.gamma) + junk)

    monkeypatch.setattr(casebook, "jacobi_recurrence", padded)
    assert _chain_outputs(jacobi_chain(params, a1, c1, depth)) == expected


EDGE_PARAMS = JacobiParams(Fraction(1, 3), Fraction(2, 7))


def first_link_for_zero_at(shift, m, k_m=Fraction(0)):
    """The k_1 whose forward recursion k_{n+1} = beta_n + shift - gamma_n / k_n
    over the Jacobi(1/3, 2/7) recurrence reaches k_m (0 by default; shift -1
    for the chain's a_n, +1 for its c_n), by running the recursion backwards."""
    rec = jacobi_recurrence(EDGE_PARAMS, m)
    k = k_m
    for n in range(m - 1, 0, -1):
        k = rec.gamma[n - 1] / (rec.beta[n] + shift - k)
    return k


def first_link_for_u_pivot_at(m):
    """The a_1 whose chain has W~_{m+1}(-1) = W_{m+1}(-1) + a_{m+1} W_m(-1) = 0,
    so that u = (1 + x) w~ has its first zero Hankel determinant at m: a_{m+1}
    = -W_{m+1}(-1) / W_m(-1), from the Jacobi(1/3, 2/7) recurrence at x = -1,
    then the a-recursion backwards."""
    rec = jacobi_recurrence(EDGE_PARAMS, m + 1)
    values = [Fraction(1), -1 - rec.beta[0]]  # W_0(-1), W_1(-1)
    for n in range(1, m + 1):
        values.append((-1 - rec.beta[n]) * values[n] - rec.gamma[n - 1] * values[n - 1])
    return first_link_for_zero_at(-1, m + 1, -values[m + 1] / values[m])


def edge_links(ladder, zero):
    """(a_1, c_1) of a chain over Jacobi(1/3, 2/7) whose c-ladder, a-ladder or
    u pivot (``ladder`` = "c", "a", "u") is zero at index ``zero``."""
    if ladder == "u":
        return first_link_for_u_pivot_at(zero), -5
    k1 = first_link_for_zero_at(1 if ladder == "c" else -1, zero)
    return (3, k1) if ladder == "c" else (k1, -5)


# (ladder, index of its zero past depth 6, failure, sha256 of the JSON payload)
WINDOW_EDGES = [
    ("c", 8, ("v_not_regular", 8),
     "2d10f89f27d9232a71e4cb8d15ea25bfca65c38b5c3e2424d362ae76b52d03a6"),
    ("a", 8, ("w_tilde_not_regular", 8),
     "a667e95c41a604a3349ec441d13bc145a2dde96b2fd775acd503cc8688218cd5"),
    ("c", 9, None, "61564ba1714fc553dac5e233bf4f5e85fc52dad4be422ce8d878a1636dc2dffb"),
    ("a", 9, None, "ff605ebefb3516c8f0a8e53dc206da90d799730d5e815701a7e35f21f9da1477"),
    ("c", 10, None, "bfcffe4ff7aa9efcc3abc55e19b74f54ea93c5c597c0a0d398d7b48dc4452afd"),
    ("a", 10, None, "834475bf772ac837ea54bae8c3da930471877aa02a9fdc4200d60db76479668e"),
    # ("u", m): u's own pivot d_m = 0, at the window edge and one past it
    ("u", 8, ("u_not_regular", 8),
     "538f9b59deba3ea87e161056c2f84107161aa136300e10aff015bdfb5ce66aec"),
    ("u", 9, None, "117505b5ab2646753ec27fba563d6ef74da3907c7134adf3c2d7910f841eba62"),
]


@pytest.mark.parametrize("ladder, zero, failure, digest", WINDOW_EDGES,
                         ids=[f"{case[0]}_{case[1]}" for case in WINDOW_EDGES])
def test_jacobi_chain_zero_link_at_the_window_edge(ladder, zero, failure, digest):
    """At depth 6 (top index 8) a zero c_n or a_n past the recursion's reach,
    or a zero pivot of u's Christoffel step, is a regularity verdict or a
    shorter report, never an error: c_8 = 0, a_8 = 0 or d_8 = 0 fails v, w~
    or u at n = 8, c_9 = 0 stops v's recurrence and d_9 = 0 u's one gamma
    short, and a_9 (where w~'s lift stops one gamma short of what u's step
    reads), c_10, a_10 change nothing v or u reports."""
    report = jacobi_chain(EDGE_PARAMS, *edge_links(ladder, zero), 6)
    assert (None if report.ok else (report.failure.condition, report.failure.n)) == failure
    payload = report.to_json()
    text = _json_text(payload)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if report.ok:
        plain = jacobi_chain(EDGE_PARAMS, 3, -5, 6).to_json()
        for name, short_by in (("v", "c"), ("u", "u")):
            short = (ladder, zero) == (short_by, 9)
            got, full = payload[f"{name}_recurrence"], plain[f"{name}_recurrence"]
            assert len(got.gamma) == len(full.gamma) - short == 9 - short
            assert len(got.beta) == len(full.beta) == 9


OK_EDGES = [case[:2] for case in WINDOW_EDGES if case[2] is None]


@pytest.mark.parametrize("ladder, zero", OK_EDGES, ids=[f"{l}_{z}" for l, z in OK_EDGES])
def test_jacobi_b_seq_is_the_norm_ratio_at_the_window_edge(ladder, zero):
    """With a zero c_n or a_n past the recursion's reach, or u's zero pivot one
    past the window, b_n is still the norm ratio, entry for entry."""
    report = jacobi_chain(EDGE_PARAMS, *edge_links(ladder, zero), 6)
    assert report.ok
    assert report.b_seq == b_by_norm_ratio(report, EDGE_PARAMS)


LIFT_SETS = [
    (JacobiParams(0, 0), 3, -3),
    (JacobiParams("1/2", "1/2"), 2, -2),
    (JacobiParams("1/3", "2/7"), 3, -5),
    (JacobiParams("-1/2", "3/4"), 3, -5),
]


@pytest.mark.parametrize("depth", [5, 6, 7, 13, 29, 44, 60])
@pytest.mark.parametrize("params, a1, c1", LIFT_SETS,
                         ids=[f"{p.alpha},{p.beta}" for p, _, _ in LIFT_SETS])
def test_lifted_recurrences_match_the_hankel_recovery(monkeypatch, params, a1, c1, depth):
    """The recurrences ``jacobi_chain`` builds by the Darboux kernel for v and
    w~ from w's (Geronimus readings), and for u = (1 + x) w~ from w~'s (rows
    1.. of the Christoffel reading), equal, entry for entry over the window
    the report carries (beta through depth + 2, gamma through depth + 3),
    those ``recurrence_from_moments`` recovers from the chain's own moments of
    v, w~ and u; v's and u's are the ones the report carries. The chain's
    functional identity holds on those moments."""
    lifts = []
    def spied(*args, real=casebook._darboux):
        out = real(*args)
        lifts.append(out[0])
        return out
    monkeypatch.setattr(casebook, "_darboux", spied)
    report = jacobi_chain(params, a1, c1, depth)
    assert report.ok
    w = jacobi_moments(params, 2 * depth + 6)
    v = w.divide_by_linear(-1, report.v_mass).normalized()
    mass_up = 1 - jacobi_recurrence(params, 1).beta[0] + report.a1
    w_tilde = w.scale(-1).divide_by_linear(1, 1 / mass_up)
    u = w_tilde.left_multiply(Polynomial([1, 1])).normalized()
    assert len(lifts) == 3
    step = lifts[2]
    assert step.rec.beta[0] == -1 and step.rec.gamma[0] == 0  # q_0 = 0
    lifts[2] = RecurrenceReport(RecurrencePair(step.rec.beta[1:], step.rec.gamma[1:]),
                                step.first_vanishing)
    for lifted, functional in zip(lifts, (v, w_tilde.normalized(), u)):
        hankel = recurrence_from_moments(functional)
        assert hankel.first_vanishing is lifted.first_vanishing is None
        assert lifted.rec.beta[: depth + 3] == hankel.rec.beta[: depth + 3]
        assert lifted.rec.gamma[: depth + 3] == hankel.rec.gamma[: depth + 3]
        assert len(lifted.rec.beta) >= depth + 3 and len(lifted.rec.gamma) >= depth + 3
    for carried, lifted in ((report.v_rec, lifts[0]), (report.u_rec, lifts[2])):
        assert carried == RecurrencePair(lifted.rec.beta[: depth + 3],
                                         lifted.rec.gamma[: depth + 3])
    # lambda (x - 1) u = (x + 1)^2 v on the moments, at the constants the chain pins
    recovered = v_moments_from_relation(u, report.constants,
                                         report.verdict_equations.induced.beta[0])
    assert recovered.moments == v.moments[: u.depth + 1]
    assert verify_functional_relation(u, v, report.constants, depth)[0]


@pytest.mark.parametrize(
    "build, firsts",
    [(lambda: chebyshev_case(6), [(-1, Fraction(1, 2)), (1, Fraction(-3, 2)), (0, None)]),
     (lambda: jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 6),
      [(-1, -5), (1, 3), (-1, None)])],
    ids=["chebyshev", "jacobi-chain"],
)
def test_worked_cases_run_the_v_w_tilde_and_u_steps(monkeypatch, build, firsts):
    """Both worked cases run the same three spectral steps, told apart by the
    point z and k_1: v at z1 from c_1, w~ at c from a_1, and u's Christoffel
    step at z2 over w~ (k_1 = beta~_0 - z, recorded as None). No second
    family stands in for v's step: the Chebyshev case lifts v (c_1 = 1/2)
    too, and certifies it against the fourth kind afterwards."""
    calls = []
    def spied(rec, z, first, count, real=casebook._darboux):
        calls.append((z, None if first == rec.beta[0] - z else first))
        return real(rec, z, first, count)
    monkeypatch.setattr(casebook, "_darboux", spied)
    build()
    assert calls == firsts


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_fractions, min_size=8, max_size=8),
    st.lists(small_fractions.filter(bool), min_size=7, max_size=7),
    st.integers(1, 6),
    st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6, 7]),
    small_fractions,
)
# Chebyshev-like data whose P_3(-1) is already 0, and a pivot bent in at m = 3
@example([Fraction(0)] * 8, [Fraction(1, 2)] * 7, 4, None, Fraction(-1))
@example([Fraction(1)] * 8, [Fraction(1)] * 7, 4, 3, Fraction(-1))
def test_christoffel_step_matches_the_hankel_recovery(beta, gamma, top, pivot, z):
    """On a random quasi-definite recurrence of f (beta_0..beta_{K+1},
    gamma_1..gamma_{K+1}, K = top) and a random point z, rows 1.. of the
    Darboux kernel on the pivots of J(f) - z I through index K + 1 (k_1 =
    beta_0 - z) give the report ``recurrence_from_moments`` gives on
    (x - z) f's moments mu_0..mu_{2K+2}: the same entries, the same first
    vanishing index and the same lengths. ``pivot`` = m bends beta_m so that
    f's monic P_{m+1}(z) = 0, the zero pivot d_m of (x - z) f's first zero
    Hankel determinant at m."""
    beta, gamma = beta[: top + 2], gamma[: top + 1]
    g = [0] + gamma  # g[n] is gamma_n
    at = [Fraction(0), Fraction(1)]  # at[n + 1] is P_n(z), n >= -1
    for n in range(top + 2):
        if n == pivot and at[n + 1]:
            beta[n] = z - g[n] * at[n] / at[n + 1]
        at.append((z - beta[n]) * at[n + 1] - g[n] * at[n])
    f = moments_from_recurrence(RecurrencePair(beta, gamma), 2 * top + 3)
    expected = recurrence_from_moments(f.left_multiply(Polynomial([-z, 1])))
    rec = RecurrencePair(beta, gamma)
    step, _, _ = casebook._darboux(rec, z, beta[0] - z, top + 2)
    n = step.first_vanishing
    got = RecurrenceReport(RecurrencePair(step.rec.beta[1 : top + 2], step.rec.gamma[1:]),
                           None if n is None else n - 1)
    assert got == expected
    assert got.first_vanishing == next((m for m in range(top + 2) if at[m + 2] == 0), None)


def test_jacobi_chain_recovers_no_recurrence_from_moments(monkeypatch):
    """u's recurrence is a Christoffel step on w~'s, v's and w~'s are lifted
    from w's, so the Hankel recovery never runs in a worked case; the chain's
    functional identity is pinned by its constants, so a chain builds no
    moment either. The Chebyshev case builds moments for its moment
    certificate alone."""
    calls = []
    real = functional.recurrence_from_moments
    real_moments = casebook.jacobi_moments
    real_init = MomentFunctional.__init__
    real_reduced = MomentFunctional._reduced.__func__

    def counted(f):
        calls.append("recurrence_from_moments")
        return real(f)

    def counted_moments(params, depth):
        calls.append("jacobi_moments")
        return real_moments(params, depth)

    def counted_init(self, moments):
        calls.append("MomentFunctional")
        real_init(self, moments)

    def counted_reduced(cls, nums, den):  # the kernels' constructor
        calls.append("MomentFunctional")
        return real_reduced(cls, nums, den)

    # casebook imports no recurrence_from_moments; the spy stands in for a
    # binding that came back
    for module in (casebook, functional):
        monkeypatch.setattr(module, "recurrence_from_moments", counted, raising=False)
    monkeypatch.setattr(casebook, "jacobi_moments", counted_moments)
    monkeypatch.setattr(MomentFunctional, "__init__", counted_init)
    monkeypatch.setattr(MomentFunctional, "_reduced", classmethod(counted_reduced))
    assert jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 12).ok
    assert calls == []
    chebyshev_case(6)  # the spies see the calls a worked case does make
    assert "recurrence_from_moments" not in calls
    assert {"jacobi_moments", "MomentFunctional"} <= set(calls)


@pytest.mark.parametrize("depth", [5, 12, 80])
def test_chebyshev_case_decides_the_shifted_functional_by_its_first_moment(monkeypatch, depth):
    """<u, x - 1> is the first moment of (x - 1) u. It vanishes in the
    Chebyshev case, so the report of the shifted functional (regular through
    -1, first vanishing 0) needs no Hankel sweep: the case recovers no
    recurrence. On the u whose moments the case's moment certificate reads,
    <u, x - 1> = 0 and the sweep over the shifted moments gives that report."""
    seen = []
    real = casebook.v_moments_from_relation

    def spied(u, constants, v1):
        seen.append(u)
        return real(u, constants, v1)

    monkeypatch.setattr(casebook, "v_moments_from_relation", spied)
    report = chebyshev_case(depth)
    assert [f.depth for f in seen] == [2 * depth + 6]  # u's moments mu_0..mu_{2 depth + 6}
    assert (report.shifted_hankel.regular_through, report.shifted_hankel.first_vanishing) == (-1, 0)

    u = seen[0]
    x_minus_1 = Polynomial([-1, 1])
    assert u.apply(x_minus_1) == 0
    swept = recurrence_from_moments(u.left_multiply(x_minus_1))
    assert (swept.regular_through, swept.first_vanishing) == (-1, 0)
    assert swept == report.shifted_hankel


# --- the spectral-chain builder on random w ------------------------------

# the first index of each sequence that a bend may set
BENDABLE = {"r": 1, "s": 1, "t": 2, "beta": 0, "gamma": 1}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(12, 40), st.sampled_from(sorted(BENDABLE)),
       st.data())
def test_spectral_chain_gives_positive_instances(seed, depth, field, data):
    """Over a random Jacobi, Laguerre or Hermite w, random rational points
    z1, c, z2 and first coefficients a1, c1, the builder's u and relation
    are a positive instance: both checkers say MOPS, the constants are exactly
    lambda = (beta_0 - c1 - z1)(beta_0 - a1 - z2) / (beta_0 - a1 - c), c,
    -(z1 + z2) and z1 z2, and the relation unfolds u's MOPS into v's. One
    entry of the relation or of u's recurrence, bent by 1/7 inside the
    checkers' window, fails a named condition in both checkers."""
    chain, (w_rec, z1, c, z2, a1, c1) = random_spectral_chain(random.Random(seed), depth)
    rec, rel = chain.u_rec, chain.rel
    assert check_by_equations(rec, rel, depth).is_mops
    assert check_by_constants(rec, rel, depth).is_mops
    beta0 = w_rec.beta[0]
    lam = (beta0 - c1 - z1) * (beta0 - a1 - z2) / (beta0 - a1 - c)
    assert relation_constants(rec, rel) == FunctionalRelation(lam, c, -(z1 + z2), z1 * z2)
    p, q = (mops_from_recurrence(r, 8) for r in (rec, chain.v_rec))
    assert generate_q(p, rel) == q

    seqs = {"r": list(rel.r), "s": list(rel.s), "t": list(rel.t),
            "beta": list(rec.beta), "gamma": [None] + list(rec.gamma)}
    n = data.draw(st.integers(BENDABLE[field], depth), label="n")
    seqs[field][n] += Fraction(1, 7)
    bent_rec = RecurrencePair(seqs["beta"], seqs["gamma"][1:])
    bent_rel = Relation23(seqs["r"], seqs["s"], seqs["t"])
    for checker in (check_by_equations, check_by_constants):
        verdict = checker(bent_rec, bent_rel, depth)
        assert not verdict.is_mops and verdict.failures
        assert all(isinstance(f.condition, str) and f.condition for f in verdict.failures)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.integers(12, 60))
def test_spectral_chain_up_links_are_ladders(seed, depth):
    """The up-links Q_n = W_n + c_n W_{n-1} and W~_n = W_n + a_n W_{n-1} hold
    by construction of the Geronimus readings, and the builder certifies
    neither (the equation checker is their certificate): on random builder
    positives both are 1-2 ladders over w through top = depth + 2, by the
    connection certificate at band width 1, v's as the chain carries it and
    w~'s as the kernel gives it from a_1. The chain's b_n are U's diagonal
    q_n of u's step over that w~."""
    chain, (w_rec, _, c, z2, a1, _) = random_spectral_chain(random.Random(seed), depth)
    top = depth + 2
    c_parts = ladder_parts(chain.c_seq)
    assert functional._connection_break(chain.v_rec, w_rec, (c_parts,), top) is None
    a_parts = ladder_parts(chain.a_seq)
    w_tilde = functional._darboux(w_rec, c, a1, top + 1)[0].rec
    assert functional._connection_break(w_tilde, w_rec, (a_parts,), top) is None
    _, _, q = functional._darboux(w_tilde, z2, w_tilde.beta[0] - z2, len(w_tilde.beta))
    assert tuple(part[: top + 1] for part in q) == ladder_parts(chain.b_seq)


@pytest.mark.parametrize("depth", [6, 40])
def test_chebyshev_up_link_is_the_fourth_kind_over_the_second(depth):
    """In the Chebyshev case v is of the fourth kind, and lambda_n are
    the builder's c_n: the fourth kind is the 1-2 ladder Q_n = W_n + lambda_n
    W_{n-1} over the second kind through depth + 2, by the connection
    certificate at band width 1, and a bent lambda_5 breaks it at 5."""
    report = chebyshev_case(depth)
    fourth, second = (families.chebyshev_kind(kind, depth + 4) for kind in (4, 2))
    lam = ladder_parts(report.lambda_seq)
    assert functional._connection_break(fourth, second, (lam,), depth + 2) is None
    bent = list(report.lambda_seq)
    bent[5] += Fraction(1, 7)
    assert functional._connection_break(fourth, second, (ladder_parts(bent),), depth + 2) == 5


def test_spectral_chain_refuses_c_equal_to_z2():
    """At c = z2, u = (x - z2) w / (x - c) is w itself, and the relation
    between u's and v's MOPS has a degenerate shape (Type12): the builder
    refuses the point by name before any work."""
    w_rec = jacobi_recurrence(JacobiParams("1/3", "2/7"), 10)
    with pytest.raises(DomainError, match="c and z2 must differ"):
        casebook._spectral_chain(w_rec, -1, 2, 2, 3, -5, 6)


@pytest.mark.parametrize("n", range(1, 10))
def test_spectral_chain_refuses_a_w_that_is_not_regular(n):
    """At depth 6 the builder reads w's gamma_1..gamma_9 (depth + 3): a zero
    gamma_n of w among them is refused up front, by a DomainError that names
    w and n, whatever step would first have met it. A zero gamma_10, which
    the chain does not read, changes nothing."""
    w_rec = jacobi_recurrence(EDGE_PARAMS, 11)
    plain = casebook._spectral_chain(w_rec, -1, 1, -1, 3, -5, 6)
    gamma = list(w_rec.gamma)
    gamma[n - 1] = 0
    with pytest.raises(DomainError, match=rf"^w is not regular: its gamma_{n} is zero"):
        casebook._spectral_chain(RecurrencePair(w_rec.beta, gamma), -1, 1, -1, 3, -5, 6)
    gamma = list(w_rec.gamma)
    gamma[9] = 0
    unread = casebook._spectral_chain(RecurrencePair(w_rec.beta, gamma), -1, 1, -1, 3, -5, 6)
    assert unread == plain


def canonical(model) -> bool:
    """Whether every (numerators, denominators) pair of the model holds
    coprime entries over positive denominators, as ``_SequenceModel.__eq__``,
    which compares parts, needs."""
    return all(len(nums) == len(dens) and all(d > 0 and math.gcd(m, d) == 1
                                              for m, d in zip(nums, dens))
               for nums, dens in model._integers())


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32), st.integers(12, 140))
def test_spectral_chain_models_are_canonical(seed, depth):
    """Every model the builder makes from integer parts is in lowest terms
    with positive denominators: u's and v's recurrences, the relation, and
    the reports of every Darboux step (v, w~ and u's Christoffel step), on
    random builder positives."""
    reports = []

    def spied(*args, real=casebook._darboux):
        out = real(*args)
        reports.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(casebook, "_darboux", spied)
        chain, _ = random_spectral_chain(random.Random(seed), depth)
    assert len(reports) >= 3
    for model in (chain.u_rec, chain.v_rec, chain.rel, *(report.rec for report in reports)):
        assert canonical(model)


def test_chebyshev_case_stays_on_the_moment_vector(monkeypatch):
    """Each functional of the Chebyshev case is built by the moment kernels
    as one integer vector, and each kernel reads the vector of its input:
    no common-denominator pass in ``functional`` or ``relation23``, and no
    Fraction view of the moments is built."""
    passes, views = [], []
    real_view = MomentFunctional.moments.fget

    def view(f):
        if f._moments is None:
            views.append(f.depth)
        return real_view(f)

    def counted(values, real=rational.common_denominator):
        passes.append(len(values))
        return real(values)

    # relation23 no longer imports it; the spy stands in for a binding
    # that came back
    for module in (functional, relation23):
        monkeypatch.setattr(module, "common_denominator", counted, raising=False)
    monkeypatch.setattr(MomentFunctional, "moments", property(view))
    assert chebyshev_case(80).to_json()["moment_identity_ok"] is True
    assert passes == [] and views == []
    # the spies see a public construction, and the view that a kernel's
    # result builds on first use, once
    scaled = MomentFunctional([1, "1/2", "1/3"]).scale(2)
    assert passes == [3] and views == []
    assert scaled.moments == (2, 1, Fraction(2, 3))
    assert scaled.moments is scaled.moments and views == [2]


# --- the certificates fire on bent data ---------------------------------


def bump_relation_s(k):
    """A wrapper for ``compose_ladders`` that adds 1 to s_k."""
    def wrap(compose):
        def bent(*ladders):
            rel = compose(*ladders)
            s = list(rel.s)
            s[k] += 1
            return Relation23(rel.r, s, rel.t)
        return bent
    return wrap


def bump_factor(call, factor, k):
    """A wrapper for ``_darboux`` that adds 1/7 to entry k of the factor it
    returns on its ``call``-th call, L's subdiagonal k ("k") or U's diagonal
    q ("q"), as reduced parts (in the spectral-chain builder: v's step, whose
    k is the c-ladder, then w~'s, whose k is the a-ladder, then u's, whose q
    is the down-link b)."""
    def wrap(darboux):
        calls = []
        def bent(*args):
            out = darboux(*args)
            calls.append(None)
            if len(calls) == call:
                nums, dens = out[1 if factor == "k" else 2]
                entry = Fraction(nums[k], dens[k]) + Fraction(1, 7)
                nums[k], dens[k] = entry.numerator, entry.denominator
            return out
        return bent
    return wrap


def bump_moment(call, k):
    """A wrapper for ``jacobi_moments`` that adds 1/1000 to mu_k of the
    functional it returns on its ``call``-th call."""
    def wrap(moments):
        calls = []
        def bent(params, depth):
            mom = moments(params, depth)
            calls.append(None)
            if len(calls) != call:
                return mom
            bent_moments = list(mom.moments)
            bent_moments[k] += Fraction(1, 1000)
            return MomentFunctional(bent_moments)
        return bent
    return wrap


def bump_recurrence(call, field, k):
    """A wrapper for ``_darboux`` that adds 1/7 to entry k of the beta or
    gamma list of the step's recurrence on its ``call``-th call (in
    ``jacobi_chain``: v's step, then w~'s, then u's, whose entry k is u's
    entry k - 1)."""
    def wrap(darboux):
        calls = []
        def bent(*args):
            report, *factors = darboux(*args)
            calls.append(None)
            if len(calls) != call:
                return (report, *factors)
            seqs = {"beta": list(report.rec.beta), "gamma": list(report.rec.gamma)}
            seqs[field][k] += Fraction(1, 7)
            rec = RecurrencePair(seqs["beta"], seqs["gamma"])
            return (dataclasses.replace(report, rec=rec), *factors)
        return bent
    return wrap


def shift_beta0(kind, by):
    """A wrapper for ``chebyshev_kind`` that adds ``by`` to beta_0 of the
    family of the given kind."""
    def wrap(family):
        def bent(k, count):
            rec = family(k, count)
            if k != kind:
                return rec
            return RecurrencePair((rec.beta[0] + by,) + rec.beta[1:], rec.gamma)
        return bent
    return wrap


def bump_constant(field):
    """A wrapper for ``relation_constants`` that adds 1/7 to lam, c, a or b."""
    def wrap(constants):
        def bent(*args):
            fr = constants(*args)
            return dataclasses.replace(fr, **{field: getattr(fr, field) + Fraction(1, 7)})
        return bent
    return wrap


def build_cheb():
    return chebyshev_case(6)


def build_chain():
    return jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 6)


@pytest.mark.parametrize(
    "build, seam, wrap, message",
    [
        (build_cheb, "compose_ladders", bump_relation_s(4),
         "2-3 relation fails as a polynomial identity at n=4"),
        (build_chain, "compose_ladders", bump_relation_s(5),
         "2-3 relation fails as a polynomial identity at n=5"),
        # wrong ladders of the Chebyshev case: lambda_3 (the builder's c_3, k_3 of v's
        # step), its a_3 (the builder's b_3, q_3 of u's step), its b_5 (the builder's
        # a_5, k_5 of w~'s step)
        (build_cheb, "_darboux", bump_factor(1, "k", 3),
         "equation checker rejects the generated family"),
        (build_cheb, "_darboux", bump_factor(3, "q", 3),
         "down-link identity fails at n=3"),
        (build_cheb, "_darboux", bump_factor(2, "k", 5),
         "equation checker rejects the generated family"),
        # a second kind with beta_0 = -1/2, where w~ (and v) take no free mass
        (build_cheb, "chebyshev_kind", shift_beta0(2, Fraction(-1, 2)),
         "the chain over the second kind fails w_tilde_mass at n=None"),
        # a fourth kind with beta_0 moved off v's
        (build_cheb, "chebyshev_kind", shift_beta0(4, Fraction(1, 7)),
         "v's recurrence differs from the fourth kind"),
        # wrong moments: of the third-kind part of u, of the fourth kind
        (build_cheb, "jacobi_moments", bump_moment(1, 6),
         "moments recovered from the functional identity differ from the second family's"),
        (build_cheb, "jacobi_moments", bump_moment(2, 6),
         "moments recovered from the functional identity differ from the second family's"),
        # wrong recurrences: of u (beta_2), of v (gamma_4, beta_0), of w~ (beta_2)
        (build_chain, "_darboux", bump_recurrence(3, "beta", 3),
         "down-link identity fails at n=3"),
        (build_chain, "_darboux", bump_recurrence(1, "gamma", 3),
         "induced recurrence does not match the second family"),
        (build_chain, "_darboux", bump_recurrence(1, "beta", 0),
         "induced recurrence does not match the second family"),
        (build_chain, "_darboux", bump_recurrence(2, "beta", 2),
         "equation checker rejects the generated family"),
        # wrong constants of lambda (x - c) u = (x^2 + a x + b) v
        (build_chain, "relation_constants", bump_constant("lam"),
         "functional relation constants differ from (-u_mass / v_mass, 1, 2, 1)"),
        (build_cheb, "relation_constants", bump_constant("lam"),
         "functional relation constants differ from (-u_mass / v_mass, 1, 1, 0)"),
        *[(build, "relation_constants", bump_constant(field),
           "constancy triple disagrees with the closed-form constants")
          for build in (build_chain, build_cheb) for field in ("c", "a", "b")],
    ],
)
def test_certificates_fire_on_bent_data(monkeypatch, build, seam, wrap, message):
    """Each bent input is caught by a certificate, with its message and
    index. Both worked cases are chains of one builder. A bent a- or c-ladder
    entry gives a lift that is no ladder over w, and the relation composed
    from it fails the equation checker; a bent q_n of u's step, the
    down-link's b_n, breaks the down-link at n. A bent lift of v meets the
    induced recurrence of u's relation, and a fourth kind bent off the
    Chebyshev case's v meets the fourth-kind certificate. u is the Christoffel step
    of w~, so the down-link, which any such pair with w~'s gammas obeys, lets
    a bent beta of w~ through to the equation checker. A bent moment of the
    Chebyshev case's u or v meets its moment certificate, and a second kind
    that leaves w~ without a free mass is refused by name. A bent c, a or b
    meets the constancy triple; a bent lambda meets the builder's closed-form
    constants."""
    monkeypatch.setattr(casebook, seam, wrap(getattr(casebook, seam)))
    with pytest.raises(ContractError) as info:
        build()
    assert str(info.value) == f"internal consistency: {message}"


def test_worked_cases_build_no_polynomial_family(monkeypatch):
    """The ladders, the 2-3 identity and the regularity criterion are
    decided on recurrences, and the Chebyshev case's point-mass ratio is the
    constant 3/2: neither worked case builds a polynomial family, multiplies
    polynomials or compares them."""
    from mopsrel import functional, poly

    counts, products, equalities = [], [], []
    real = functional.mops_from_recurrence
    real_mul = poly.Polynomial.__mul__
    real_eq = poly.Polynomial.__eq__

    def counted(rec, count):
        counts.append(count)
        return real(rec, count)

    def multiplied(self, other):
        products.append(None)
        return real_mul(self, other)

    def compared(self, other):
        equalities.append(None)
        return real_eq(self, other)

    # casebook imports no mops_from_recurrence; the spy stands in for a
    # binding that came back
    for module in (casebook, functional):
        monkeypatch.setattr(module, "mops_from_recurrence", counted, raising=False)
    monkeypatch.setattr(poly.Polynomial, "__mul__", multiplied)
    monkeypatch.setattr(poly.Polynomial, "__eq__", compared)
    assert chebyshev_case(20).point_mass_ratio == Fraction(3, 2)
    assert jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 20).ok
    assert counts == [] and products == [] and equalities == []


def test_jacobi_report_declares_its_head_and_inherits_the_chain_fields():
    """JacobiChainReport declares only the run's failure and head; the twelve
    fields of a certified chain are declared once, on ``_Chain``, and
    inherited. ``ok`` is not a field."""
    own = inspect.get_annotations(casebook.JacobiChainReport)
    assert list(own) == ["failure", "alpha", "beta", "a1", "c1", "depth"]
    chain_fields = [f.name for f in dataclasses.fields(casebook._Chain)]
    assert len(chain_fields) == 12
    assert issubclass(casebook.JacobiChainReport, casebook._Chain)
    report_fields = [f.name for f in dataclasses.fields(casebook.JacobiChainReport)]
    assert report_fields == chain_fields + list(own)
    assert "ok" not in report_fields


@pytest.mark.parametrize("depth", [5, 6, 13, 40])
def test_chebyshev_report_keeps_its_constants_on_the_class(depth):
    """The point-mass ratio 3/2 and the empty report of the shifted
    functional (x - 1) u are constants of the case, not fields; every
    report reads them."""
    names = {f.name for f in dataclasses.fields(casebook.ChebyshevCaseReport)}
    assert not names & {"point_mass_ratio", "shifted_hankel"}
    report = chebyshev_case(depth)
    assert report.point_mass_ratio == Fraction(3, 2)
    assert report.shifted_hankel == RecurrenceReport(RecurrencePair((), ()), 0)


def test_jacobi_report_reads_ok_off_its_failure():
    """``ok`` is ``failure is None`` on the window-edge chains, on an ok
    chain and on a chain refused before any ladder, and a failed report
    keeps every chain field at its empty default: () for the ladders, None
    for the rest."""
    assert isinstance(inspect.getattr_static(casebook.JacobiChainReport, "ok"), property)
    reports = [jacobi_chain(EDGE_PARAMS, *edge_links(ladder, zero), 6)
               for ladder, zero, _, _ in WINDOW_EDGES]
    reports += [jacobi_chain(EDGE_PARAMS, 3, -5, 6), jacobi_chain(EDGE_PARAMS, 0, -5, 6)]
    for report in reports:
        assert report.ok == (report.failure is None)
    failed = [report for report in reports if not report.ok]
    assert len(failed) == 4 and any(report.ok for report in reports)
    empty = {f.name: () if f.name.endswith("_seq") else None
             for f in dataclasses.fields(casebook._Chain)}
    for report in failed:
        assert {name: getattr(report, name) for name in empty} == empty
