"""Worked-case builders: frozen values, certified identities, failure paths."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from mopsrel import (
    ContractError,
    DepthError,
    DomainError,
    FunctionalRelation,
    JacobiParams,
    MomentFunctional,
    RecurrencePair,
    Relation23,
    chebyshev_case,
    compose_ladders,
    generate_q,
    half_case_closed_forms,
    jacobi_chain,
    jacobi_moments,
    jacobi_recurrence,
    mops_from_recurrence,
    norm_squared,
    recurrence_from_moments,
)
from mopsrel import casebook
from mopsrel.cli import _json_text
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
    assert cheb.moment_identity == (True, None)


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
    assert chain.moment_identity == (True, None)
    assert chain.regularity == (True, True)
    assert chain.norm_link is True


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
    assert payload["failure"]["condition"] == condition
    assert "relation" not in payload
    rows = rep.to_csv()
    assert rows[0] == ["failure", "n"]
    assert rows[1] == [condition, index]


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
    """The chain's norm link reads <v, Q_n^2> as the Favard product
    mu_0(v) gamma_1 ... gamma_n of the recovered recurrence; the Hankel
    form of Q_n on v's moments, summed in plain Fractions, gives the same
    value."""
    params, a1, c1 = CHAIN_SETS[name]
    report = jacobi_chain(params, a1, c1, depth)
    assert report.norm_link is True
    v_raw = jacobi_moments(params, 2 * depth + 2).divide_by_linear(-1, report.v_mass)
    q = mops_from_recurrence(report.v_rec, depth + 1)
    for n in range(1, depth + 1):
        assert hankel_form(v_raw.moments, q[n]) == v_raw.moments[0] * norm_squared(report.v_rec, n)


def _chain_outputs(report):
    return _json_text(report.to_json()), report.to_csv()


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [5, 6, 12])
@pytest.mark.parametrize("name", ["generic", "half"])
def test_jacobi_chain_reads_no_moment_past_its_window(monkeypatch, name, depth, extra):
    """More Jacobi moments than the chain asks for change no byte of its
    report: the chain reads every moment it uses from inside its window."""
    params, a1, c1 = CHAIN_SETS[name]
    expected = _chain_outputs(jacobi_chain(params, a1, c1, depth))
    moments = casebook.jacobi_moments
    monkeypatch.setattr(casebook, "jacobi_moments", lambda p, d: moments(p, d + extra))
    assert _chain_outputs(jacobi_chain(params, a1, c1, depth)) == expected


EDGE_PARAMS = JacobiParams(Fraction(1, 3), Fraction(2, 7))


def first_link_for_zero_at(shift, m):
    """The k_1 whose forward recursion k_{n+1} = beta_n + shift - gamma_n / k_n
    over the Jacobi(1/3, 2/7) recurrence reaches k_m = 0 (shift -1 for the
    chain's a_n, +1 for its c_n), by running the recursion backwards."""
    rec = jacobi_recurrence(EDGE_PARAMS, m)
    k = Fraction(0)
    for n in range(m - 1, 0, -1):
        k = rec.gamma[n - 1] / (rec.beta[n] + shift - k)
    return k


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
]


@pytest.mark.parametrize("ladder, zero, failure, digest", WINDOW_EDGES,
                         ids=[f"{case[0]}_{case[1]}" for case in WINDOW_EDGES])
def test_jacobi_chain_zero_link_at_the_window_edge(ladder, zero, failure, digest):
    """At depth 6 (top index 8) a zero c_n or a_n past the recursion's reach
    is a regularity verdict or a shorter report, never an error: c_8 = 0 or
    a_8 = 0 fails v or w~ at n = 8, c_9 = 0 stops v's recurrence one gamma
    short, and a_9, c_10, a_10 change nothing v reports."""
    k1 = first_link_for_zero_at(1 if ladder == "c" else -1, zero)
    a1, c1 = (3, k1) if ladder == "c" else (k1, -5)
    report = jacobi_chain(EDGE_PARAMS, a1, c1, 6)
    assert (None if report.ok else (report.failure.condition, report.failure.n)) == failure
    payload = report.to_json()
    text = _json_text(payload)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if report.ok:
        plain = jacobi_chain(EDGE_PARAMS, 3, -5, 6).to_json()["v_recurrence"]
        short = ladder == "c" and zero == 9
        assert len(payload["v_recurrence"]["gamma"]) == len(plain["gamma"]) - short == 9 - short
        assert len(payload["v_recurrence"]["beta"]) == len(plain["beta"]) == 9


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
    """The recurrences ``jacobi_chain`` lifts for v and w~ from w's equal,
    entry for entry over the window v reports (beta through depth + 2, gamma
    through depth + 3), those ``recurrence_from_moments`` recovers from the
    chain's own moments of v and w~; v's is the one the report carries."""
    lifts = []
    real = casebook._ladder_lift

    def spied(*args):
        lifts.append(real(*args))
        return lifts[-1]

    monkeypatch.setattr(casebook, "_ladder_lift", spied)
    report = jacobi_chain(params, a1, c1, depth)
    assert report.ok
    w = jacobi_moments(params, 2 * depth + 6)
    v = w.divide_by_linear(-1, report.v_mass).normalized()
    mass_up = 1 - jacobi_recurrence(params, 1).beta[0] + report.a1
    w_tilde = w.scale(-1).divide_by_linear(1, 1 / mass_up).normalized()
    for lifted, functional in zip(lifts, (v, w_tilde)):
        hankel = recurrence_from_moments(functional)
        assert hankel.first_vanishing is lifted.first_vanishing is None
        assert lifted.rec.beta[: depth + 3] == hankel.rec.beta[: depth + 3]
        assert lifted.rec.gamma[: depth + 3] == hankel.rec.gamma[: depth + 3]
        assert len(lifted.rec.beta) >= depth + 3 and len(lifted.rec.gamma) >= depth + 3
    assert report.v_rec == RecurrencePair(lifts[0].rec.beta[: depth + 3],
                                          lifts[0].rec.gamma[: depth + 3])


def test_jacobi_chain_recovers_one_recurrence_from_moments(monkeypatch):
    """u's recurrence is recovered from its moments; v's and w~'s are
    lifted from w's, so the Hankel recovery runs once per chain."""
    calls = []
    real = casebook.recurrence_from_moments

    def counted(f):
        calls.append(f.depth)
        return real(f)

    monkeypatch.setattr(casebook, "recurrence_from_moments", counted)
    assert jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 12).ok
    assert calls == [2 * 12 + 6]


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


def bump_ladder(which, k):
    """A wrapper for ``_chebyshev_ladder`` that adds 1/7 to entry k of the
    a, b or lambda ladder (which = 0, 1, 2)."""
    def wrap(ladder):
        def bent(count):
            seqs = ladder(count)
            seqs[which][k] += Fraction(1, 7)
            return seqs
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
    """A wrapper for a recovery or lift of a recurrence that adds 1/7 to
    entry k of the beta or gamma list of the recurrence it returns on its
    ``call``-th call (in ``jacobi_chain``: ``recurrence_from_moments`` is
    called once, for u; ``_ladder_lift`` for v, then for w~)."""
    def wrap(recover):
        calls = []
        def bent(*args):
            report = recover(*args)
            calls.append(None)
            if len(calls) != call:
                return report
            seqs = {"beta": list(report.rec.beta), "gamma": list(report.rec.gamma)}
            seqs[field][k] += Fraction(1, 7)
            return dataclasses.replace(report, rec=RecurrencePair(seqs["beta"], seqs["gamma"]))
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
        (build_cheb, "_chebyshev_ladder", bump_ladder(2, 3),
         "1-2 ladder between fourth and second kind fails at n=3"),
        (build_cheb, "_chebyshev_ladder", bump_ladder(0, 3),
         "2-2 ladder family does not match the MOPS of u"),
        (build_cheb, "_chebyshev_ladder", bump_ladder(1, 5),
         "2-2 ladder family does not match the MOPS of u"),
        # wrong moments: of the third-kind part of u, of the fourth kind, of w
        (build_cheb, "jacobi_moments", bump_moment(1, 6),
         "2-2 ladder family does not match the MOPS of u"),
        (build_cheb, "jacobi_moments", bump_moment(2, 6),
         "moments recovered from the functional identity differ from the second family's"),
        # w's moments reach u's, not the recurrences lifted from w's
        (build_chain, "jacobi_moments", bump_moment(1, 6), "down-link identity fails at n=4"),
        (build_chain, "jacobi_moments", bump_moment(1, 1), "down-link identity fails at n=1"),
        # wrong recurrences: of u (beta_2), of v (gamma_4, beta_0), of w~ (beta_2)
        (build_chain, "recurrence_from_moments", bump_recurrence(1, "beta", 2),
         "down-link identity fails at n=3"),
        (build_chain, "_ladder_lift", bump_recurrence(1, "gamma", 3),
         "induced recurrence does not match the second family"),
        (build_chain, "_ladder_lift", bump_recurrence(1, "beta", 0),
         "induced recurrence does not match the second family"),
        (build_chain, "_ladder_lift", bump_recurrence(2, "beta", 2),
         "down-link identity fails at n=3"),
    ],
)
def test_certificates_fire_on_bent_data(monkeypatch, build, seam, wrap, message):
    """Each bent input is caught by a certificate, with its message and
    index. The bends of ladders, relations, moments and u's recurrence give
    what the same bend gave when the identities were decided by Polynomial
    equality and the moments came from the lattice sweep, except that the
    bent w moment at mu_6 now meets the down-link (u) at the index where it
    met the up-link (w~ from moments). A bent lift of v meets the induced
    recurrence of u's relation, one of w~ the down-link."""
    monkeypatch.setattr(casebook, seam, wrap(getattr(casebook, seam)))
    with pytest.raises(ContractError) as info:
        build()
    assert str(info.value) == f"internal consistency: {message}"


def test_worked_cases_build_no_polynomial_family(monkeypatch):
    """The ladders, the 2-3 identity and the regularity criterion are
    decided on recurrences: the Chebyshev case builds only P_0..P_2 of the
    second kind, for the point-mass ratio, the Jacobi chain no family, and
    neither compares polynomials."""
    from mopsrel import functional, poly

    counts, equalities = [], []
    real = functional.mops_from_recurrence
    real_eq = poly.Polynomial.__eq__

    def counted(rec, count):
        counts.append(count)
        return real(rec, count)

    def compared(self, other):
        equalities.append(None)
        return real_eq(self, other)

    for module in (casebook, functional):
        monkeypatch.setattr(module, "mops_from_recurrence", counted)
    monkeypatch.setattr(poly.Polynomial, "__eq__", compared)
    chebyshev_case(20)
    assert len(counts) <= 1 and all(count <= 3 for count in counts)
    counts.clear()
    jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 20)
    assert counts == []
    assert equalities == []
