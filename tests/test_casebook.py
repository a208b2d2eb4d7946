"""Worked-case builders: frozen values, certified identities, failure paths."""

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
    Relation23,
    chebyshev_case,
    compose_ladders,
    generate_q,
    half_case_closed_forms,
    jacobi_chain,
    jacobi_recurrence,
    mops_from_recurrence,
)
from mopsrel import casebook
from mopsrel.cli import _json_text


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
        (build_chain, "jacobi_moments", bump_moment(1, 6), "up-link identity fails at n=4"),
        (build_chain, "jacobi_moments", bump_moment(1, 1), "down-link identity fails at n=1"),
    ],
)
def test_certificates_fire_on_bent_data(monkeypatch, build, seam, wrap, message):
    """Each bent input is caught by the certificate, with the message and
    the index that the same bend gave when the identities were decided by
    Polynomial equality and the moments came from the lattice sweep."""
    monkeypatch.setattr(casebook, seam, wrap(getattr(casebook, seam)))
    with pytest.raises(ContractError) as info:
        build()
    assert str(info.value) == f"internal consistency: {message}"
