import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mopsrel import (
    DepthError,
    DomainError,
    FormatError,
    FunctionalRelation,
    MomentFunctional,
    Polynomial,
    RecurrencePair,
    Relation23,
    RelationTag,
    auxiliary_sequences,
    check_both,
    check_by_constants,
    check_by_equations,
    chebyshev_case,
    classify,
    compose_ladders,
    constant_sequences,
    generate_q,
    half_case_closed_forms,
    induced_recurrence,
    jacobi_chain,
    JacobiParams,
    jacobi_recurrence,
    moments_from_recurrence,
    mops_from_recurrence,
    norm_squared,
    regularity_criterion,
    relation_constants,
    v_moments_from_relation,
    verify_functional_relation,
)
from conftest import rel_from7, random_fraction, random_gated_instance, random_spectral_chain
from oracles import values_at


def test_convention_enforced():
    with pytest.raises(FormatError, match="convention"):
        Relation23([1], [0], [0, 0])
    with pytest.raises(FormatError, match="convention"):
        Relation23([0], [0], [0, 1])
    # a bare prefix that cannot violate anything yet is fine
    Relation23([0], [], [0])


def test_classify_all_tags():
    assert classify(rel_from7(0, 0, 0, 0, 0, 0, 0)).tag is RelationTag.TRIVIAL11
    assert classify(rel_from7(0, 2, 0, 1, 0, 2, 0)).tag is RelationTag.TYPE12
    case13 = classify(rel_from7(0, 0, 0, 0, 3, 1, 0))
    assert case13.tag is RelationTag.TYPE13
    assert case13.reduced["b"][2] == 1
    assert classify(rel_from7(0, 1, 5, 1, 2, 2, 0)).tag is RelationTag.TYPE21
    assert classify(rel_from7(0, 0, 1, 1, 0, 1, 0)).tag is RelationTag.TYPE22
    assert classify(rel_from7(0, 0, 1, 0, 0, 1, 1)).tag is RelationTag.NONDEGENERATE23


def test_classify_reduced_coefficients():
    case12 = classify(rel_from7(1, 2, 0, 3, 2, 4, 0))
    # gate: t2 - r2 (s1 - r1) = 4 - 2*2 = 0 and s1 != r1
    assert case12.tag is RelationTag.TYPE12
    assert case12.reduced["a"][1] == 2
    case22 = classify(rel_from7(0, 0, 1, 1, 1, 2, 0))
    assert case22.tag is RelationTag.TYPE22
    assert case22.reduced["c"][2] == Fraction(-2)


# s_1 = r_1, t_2 != 0, r_3 != 0, t_3 = 0 and t_2 != s_2 (s_1 - r_1): the Type22
# shape that pins no reduced coefficient below index 3
TYPE22_FLAT = ([0, 1, 1, 2, 4], [0, 1, 5, 3, 6], [0, 0, 7, 0, 1])


def test_classify_type22_with_s1_equal_r1():
    """With s_1 = r_1 the Type22 relation fixes c_n = r_n and d_n = s_n only
    from n = 3 on; below that the reduced lists hold None."""
    case = classify(Relation23(*TYPE22_FLAT))
    assert case.tag is RelationTag.TYPE22
    assert case.reduced == {"c": [None, None, None, 2, 4], "d": [None, None, None, 3, 6]}


# gate t_2 - r_2 (s_1 - r_1) = 2, r_3 = t_3 = 1; over beta = 0 the induced
# gamma~_1 vanishes at gamma_1 = 3 and gamma~_2 at gamma_2 = -1
REFUSAL_REL = Relation23([0, 1, 1, 1], [0, 2, 1, 1], [0, 0, 3, 1])
REFUSAL_REC = RecurrencePair([0, 0, 0, 0, 0], [1, 1, 1, 1])
NORMALIZED = MomentFunctional([1, 0, 1])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: relation_constants(RecurrencePair([0, 0, 0], [0, 1]), REFUSAL_REL),
                 DomainError, "gamma_1 must be nonzero", id="relation_constants-gamma1"),
    pytest.param(lambda: relation_constants(RecurrencePair([0, 0, 0], [3, 1]), REFUSAL_REL),
                 DomainError, "gamma~_1 and gamma~_2 must be nonzero",
                 id="relation_constants-gamma~1"),
    pytest.param(lambda: relation_constants(RecurrencePair([0, 0, 0], [1, -1]), REFUSAL_REL),
                 DomainError, "gamma~_1 and gamma~_2 must be nonzero",
                 id="relation_constants-gamma~2"),
    pytest.param(lambda: v_moments_from_relation(MomentFunctional([2, 0, 1]),
                                                 FunctionalRelation(1, 1, 2, 1), 0),
                 DomainError, "u must be normalized (mu_0 = 1)", id="v_moments-unnormalized"),
    pytest.param(lambda: v_moments_from_relation(NORMALIZED, FunctionalRelation(0, 1, 2, 1), 0),
                 DomainError, "lambda must be nonzero", id="v_moments-lambda0"),
    pytest.param(lambda: verify_functional_relation(NORMALIZED, NORMALIZED,
                                                    FunctionalRelation(1, 1, 2, 1), 1),
                 DepthError, "need u depth >= 2 and v depth >= 3, have 2 and 2",
                 id="verify_functional_relation-short"),
    pytest.param(lambda: check_by_equations(REFUSAL_REC, REFUSAL_REL, 3),
                 DepthError, "inverse-problem checks need depth >= 4", id="check_by_equations-3"),
    pytest.param(lambda: check_by_constants(REFUSAL_REC, REFUSAL_REL, 3),
                 DepthError, "inverse-problem checks need depth >= 4", id="check_by_constants-3"),
    pytest.param(lambda: check_both(REFUSAL_REC, REFUSAL_REL, 3),
                 DepthError, "inverse-problem checks need depth >= 4", id="check_both-3"),
    pytest.param(lambda: constant_sequences(REFUSAL_REC, REFUSAL_REL, 3),
                 DepthError, "constant sequences need depth >= 4", id="constant_sequences-3"),
    pytest.param(lambda: generate_q([], REFUSAL_REL),
                 DepthError, "need P_0 and relation index 0", id="generate_q-no-P0"),
    pytest.param(lambda: MomentFunctional([]),
                 FormatError, "a moment functional needs at least mu_0", id="MomentFunctional-empty"),
    pytest.param(lambda: NORMALIZED.left_multiply(Polynomial([0])),
                 DomainError, "left_multiply by the zero polynomial is degenerate",
                 id="left_multiply-zero"),
    pytest.param(lambda: mops_from_recurrence(REFUSAL_REC, 0),
                 DepthError, "count must be >= 1", id="mops_from_recurrence-0"),
    pytest.param(lambda: jacobi_recurrence(JacobiParams("1/2", "1/2"), 0),
                 DepthError, "count must be >= 1", id="jacobi_recurrence-0"),
    pytest.param(lambda: half_case_closed_forms(2, 0),
                 DepthError, "count must be >= 1", id="half_case_closed_forms-0"),
    pytest.param(lambda: half_case_closed_forms(2, -3),
                 DepthError, "count must be >= 1", id="half_case_closed_forms-negative"),
    pytest.param(lambda: moments_from_recurrence(REFUSAL_REC, -1),
                 DepthError, "depth must be >= 0", id="moments_from_recurrence-negative"),
    pytest.param(lambda: norm_squared(REFUSAL_REC, -1),
                 DepthError, "n must be >= 0", id="norm_squared-negative"),
])
def test_library_refusals(call, error, message):
    """Each precondition of the library is refused by its own error type and
    message; a count of zero polynomials or recurrence entries is a
    DepthError wherever it is asked for."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _strings(values) -> list:
    """The entries as a document spells them, every p/q unreduced as 3p/3q."""
    return [str(v) if v.denominator == 1 else f"{3 * v.numerator}/{3 * v.denominator}"
            for v in values]


def _natives(values) -> list:
    """The entries as ints where they are integers, Fractions elsewhere."""
    return [int(v) if v.denominator == 1 else v for v in values]


def _refusal(call, *args):
    try:
        call(*args)
    except (DepthError, DomainError) as exc:
        return type(exc), str(exc)
    return None


SEQUENCE = st.lists(st.fractions(max_denominator=12), max_size=7)


@settings(max_examples=60, deadline=None)
@given(SEQUENCE, SEQUENCE, st.integers(-1, 8))
def test_recurrence_pair_sides_agree(beta, gamma, k):
    """A pair parsed from strings, one given ints and Fractions, and one a
    kernel builds (``_exact``) hold the same values and refuse alike."""
    gamma = [0] * (k % 3 == 0) + gamma  # now and then a zero gamma_1
    pairs = [RecurrencePair(_strings(beta), _strings(gamma)),
             RecurrencePair(_natives(beta), _natives(gamma)),
             RecurrencePair._exact(beta, gamma)]
    for pair in pairs:
        assert pair.beta == tuple(beta) and pair.gamma == tuple(gamma)
        assert pair == pairs[0] and pairs[0] == pair
        assert _refusal(pair.require, k, k) == _refusal(pairs[-1].require, k, k)
        assert _refusal(pair.require_regular, k) == _refusal(pairs[-1].require_regular, k)
    assert pairs[0] != RecurrencePair._exact(beta + [Fraction(1, 3)], gamma)


@settings(max_examples=60, deadline=None)
@given(SEQUENCE, SEQUENCE, SEQUENCE, st.integers(-1, 9))
def test_relation_sides_agree(r, s, t, k):
    """As for the recurrence pair: the three ways in build the same relation."""
    r, s, t = [Fraction(0)] + r, [Fraction(0)] + s, [Fraction(0)] * 2 + t
    rels = [Relation23(*map(_strings, (r, s, t))), Relation23(*map(_natives, (r, s, t))),
            Relation23._exact(r, s, t)]
    for rel in rels:
        assert (rel.r, rel.s, rel.t) == (tuple(r), tuple(s), tuple(t))
        assert rel == rels[0] and rel.max_index == rels[-1].max_index
        assert _refusal(rel.require, k) == _refusal(rels[-1].require, k)


def test_relation_json_round_trip():
    rel = rel_from7(1, 2, 3, "1/2", 5, "2/3", 7, pad=2)
    assert Relation23.from_json(rel.to_json()).r == rel.r
    with pytest.raises(FormatError):
        Relation23.from_json({"r": [], "s": []})


def test_generate_q_unfolds_relation():
    rel = rel_from7(0, 0, 1, 0, 0, 1, 1, pad=1)
    from mopsrel import chebyshev_kind

    p = mops_from_recurrence(chebyshev_kind(2, 5), 5)
    q = generate_q(p, rel)
    for n in range(1, 5):
        lhs = q[n] + rel.r[n] * q[n - 1]
        rhs = p[n] + rel.s[n] * p[n - 1]
        if n >= 2:
            rhs = rhs + rel.t[n] * p[n - 2]
        assert lhs == rhs


def test_checkers_reject_degenerate_relation():
    from mopsrel import RecurrencePair

    rec = RecurrencePair([0] * 8, ["1/4"] * 8)
    rel = rel_from7(0, 2, 0, 1, 0, 2, 0, pad=5)  # Type12
    with pytest.raises(DomainError, match="Type12"):
        check_by_equations(rec, rel, 5)
    with pytest.raises(DomainError, match="Type12"):
        check_by_constants(rec, rel, 5)


def test_checkers_reject_zero_hypothesis_entries():
    from mopsrel import RecurrencePair

    rec = RecurrencePair([0] * 8, ["1/4"] * 8)
    r = [0, 0, 0, 1, 1, 0, 1, 1]
    s = [0] * 8
    t = [0, 0, 1, 1, 1, 1, 1, 1]
    rel = Relation23(r, s, t)
    with pytest.raises(DomainError, match="r_5"):
        check_by_equations(rec, rel, 6)


def test_non_degeneracy_breaches_are_domain_errors_everywhere():
    """On the depth-8 Chebyshev document one breach of the non-degeneracy
    hypothesis is one exception type, whichever entry point reads it: a zero
    r_5 (depth 6) in the checkers and the constancy expressions, a zero r_3
    in ``check_both`` and the closed forms."""
    rep = chebyshev_case(8)

    def with_r_zero(n):
        r = list(rep.rel.r)
        r[n] = 0
        return Relation23(r, rep.rel.s, rep.rel.t)

    rel = with_r_zero(5)
    for entry in (check_by_equations, check_by_constants, check_both, constant_sequences):
        with pytest.raises(DomainError, match="r_5"):
            entry(rep.u_rec, rel, 6)
    rel = with_r_zero(3)
    with pytest.raises(DomainError):
        check_both(rep.u_rec, rel, 6)
    with pytest.raises(DomainError):
        relation_constants(rep.u_rec, rel)


def test_positive_instance_from_worked_case():
    rep = chebyshev_case(6)
    eq = check_by_equations(rep.u_rec, rep.rel, 6)
    ct = check_by_constants(rep.u_rec, rep.rel, 6)
    assert eq.is_mops and ct.is_mops
    assert eq.failures == () and ct.failures == ()
    assert ct.constants == (Fraction(1), Fraction(0), Fraction(1))
    fr = relation_constants(rep.u_rec, rep.rel)
    assert (fr.a, fr.b, fr.c) == ct.constants
    assert fr.lam == Fraction(3, 2)


def test_perturbation_is_caught_by_both_checkers():
    rep = chebyshev_case(6)
    t = list(rep.rel.t)
    t[4] += 1
    broken = Relation23(rep.rel.r, rep.rel.s, t)
    eq = check_by_equations(rep.u_rec, broken, 6)
    ct = check_by_constants(rep.u_rec, broken, 6)
    assert not eq.is_mops and not ct.is_mops
    assert any(f.condition == "eqn2" and f.n == 4 for f in eq.failures) or any(
        f.condition in ("ci2", "ci3") for f in eq.failures
    )
    assert any(
        f.condition == "startup" or f.condition.endswith("_constant")
        for f in ct.failures
    )


def test_random_instances_agree(rng):
    for _ in range(40):
        rec, rel = random_gated_instance(rng, 6)
        eq = check_by_equations(rec, rel, 6)
        ct = check_by_constants(rec, rel, 6)
        assert eq.is_mops == ct.is_mops
        assert eq.induced == ct.induced


def test_induced_recurrence_matches_generated_family():
    """When the verdict is positive the generated family satisfies the
    induced three-term recurrence as polynomial identities."""
    rep = jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, 6)
    assert rep.ok
    p = mops_from_recurrence(rep.u_rec, 7)
    q = generate_q(p, rep.rel)
    ind = induced_recurrence(rep.u_rec, rep.rel, 5)
    from mopsrel import Polynomial

    x = Polynomial.x()
    for n in range(1, 6):
        lhs = q[n + 1]
        rhs = (x - Polynomial.constant(ind.beta[n])) * q[n] - ind.gamma[n - 1] * q[n - 1]
        assert lhs == rhs


def test_relation_constants_preconditions():
    from mopsrel import RecurrencePair

    rec = RecurrencePair([0, 0, 0], ["1/4", "1/4"])
    with pytest.raises(DomainError, match="nonzero"):
        relation_constants(rec, rel_from7(0, 0, 0, 1, 0, 0, 0))  # gate zero
    with pytest.raises(DomainError, match="r3 and t3"):
        relation_constants(rec, rel_from7(0, 0, 0, 0, 0, 1, 0))


def test_v_moments_and_verification():
    rep = chebyshev_case(6)
    u = moments_from_recurrence(rep.u_rec, 10)
    v = v_moments_from_relation(u, rep.constants, rep.q_rec.beta[0])
    ok, bad = verify_functional_relation(u, v, rep.constants, 8)
    assert ok and bad is None
    # a wrong constant must be caught at the first usable index
    from mopsrel import FunctionalRelation

    wrong = FunctionalRelation(rep.constants.lam, rep.constants.c, rep.constants.a + 1, rep.constants.b)
    v2 = v_moments_from_relation(u, wrong, rep.q_rec.beta[0])
    assert v2.moments != v.moments


@pytest.mark.parametrize("depth", [-1, -5])
def test_functional_identity_refuses_a_negative_depth(depth):
    """A negative depth tests no index; it is refused, not passed empty."""
    rep = chebyshev_case(6)
    u = moments_from_recurrence(rep.u_rec, 10)
    v = v_moments_from_relation(u, rep.constants, rep.q_rec.beta[0])
    with pytest.raises(DepthError, match="depth must be >= 0"):
        verify_functional_relation(u, v, rep.constants, depth)
    assert verify_functional_relation(u, v, rep.constants, 0) == (True, None)


@pytest.mark.parametrize("depth", [-1, -3])
def test_regularity_criterion_refuses_a_negative_depth(depth):
    """A negative depth would slice the lists from their ends; it is refused."""
    rep = chebyshev_case(8)
    with pytest.raises(DepthError, match="depth must be >= 0"):
        regularity_criterion(rep.u_rec, 1, rep.rel, depth)
    assert regularity_criterion(rep.u_rec, 1, rep.rel, 0) == (True, True)


@pytest.mark.parametrize("upto", [-1, -3])
def test_auxiliary_sequences_refuse_a_negative_upto(upto):
    """As ``induced_recurrence`` does, not with four empty lists."""
    rep = chebyshev_case(8)
    for build in (auxiliary_sequences, induced_recurrence):
        with pytest.raises(DepthError, match="upto must be >= 0"):
            build(rep.u_rec, rep.rel, upto)
    assert auxiliary_sequences(rep.u_rec, rep.rel, 0).a == [None]


def test_regularity_criterion_needs_data():
    rep = chebyshev_case(6)
    no_root, no_index = regularity_criterion(rep.u_rec, 1, rep.rel, 6)
    assert no_root is False and no_index is False


def random_ladders(rng, top: int):
    """2-2 ladder (a_n, b_n) and 1-2 ladder l_n for 1 <= n <= top, with
    b_n != l_n throughout."""
    a, b, l = [None], [None], [None]
    for _ in range(top):
        a.append(random_fraction(rng))
        b.append(random_fraction(rng))
        l.append(random_fraction(rng))
        while l[-1] == b[-1]:
            l[-1] = random_fraction(rng)
    return a, b, l


def test_compose_ladders_regenerates_the_ladder_family(rng):
    for _ in range(25):
        top = rng.randint(2, 12)
        rec = RecurrencePair(
            [random_fraction(rng) for _ in range(top)],
            [random_fraction(rng, nonzero=True) for _ in range(top)],
        )
        big_r = mops_from_recurrence(rec, top + 1)
        a, b, l = random_ladders(rng, top)
        p, q = [Polynomial.one()], [Polynomial.one()]
        for n in range(1, top + 1):
            p.append(big_r[n] + b[n] * big_r[n - 1] - a[n] * p[n - 1])
            q.append(big_r[n] + l[n] * big_r[n - 1])
        rel = compose_ladders(a, b, l)
        assert rel.max_index == top
        assert generate_q(p, rel) == q


def test_compose_ladders_refuses_equal_link_coefficients():
    a = [None, 1, 2, 3, 4, 5]
    b = [None, 1, 1, 2, 3, 1]
    l = [None, 2, 3, 4, 3, 2]  # b_4 = l_4
    assert compose_ladders(a, b, l[:5]).max_index == 4
    with pytest.raises(DomainError, match="b_4 = l_4.*n=5"):
        compose_ladders(a, b, l)
    with pytest.raises(DepthError):
        compose_ladders(a[:2], b[:2], l[:2])


def test_first_index_split_is_immaterial(rng):
    """Only s_1 - r_1 reaches the induced recurrence, the closed forms and
    both checkers, which is why compose_ladders may fix r_1 = 0."""
    for _ in range(10):
        rec, rel = random_gated_instance(rng, 8)
        shift = random_fraction(rng, nonzero=True)
        moved = Relation23(
            (0, rel.r[1] + shift) + rel.r[2:], (0, rel.s[1] + shift) + rel.s[2:], rel.t
        )
        assert induced_recurrence(rec, moved, 8) == induced_recurrence(rec, rel, 8)
        assert check_by_equations(rec, moved, 8) == check_by_equations(rec, rel, 8)
        assert check_by_constants(rec, moved, 8) == check_by_constants(rec, rel, 8)


ENTRY_POINTS = [check_by_equations, check_by_constants, check_both, constant_sequences]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_checker_data_requirements_at_the_boundary(rng, entry):
    """Every entry point reads the relation through depth + 1: it refuses
    data through depth with the one message and accepts data through
    depth + 1."""
    rec, rel = random_gated_instance(rng, 10)
    depth = 8

    def through(k):
        return Relation23(rel.r[: k + 1], rel.s[: k + 1], rel.t[: k + 1])

    with pytest.raises(DepthError) as refused:
        entry(rec, through(depth), depth)
    assert str(refused.value) == (
        f"relation coefficients required through index {depth + 1}, have r:8, s:8, t:8"
    )
    entry(rec, through(depth + 1), depth)


def test_random_instances_agree_at_depth_120(rng):
    for _ in range(20):
        rec, rel = random_gated_instance(rng, 120)
        eq = check_by_equations(rec, rel, 120)
        ct = check_by_constants(rec, rel, 120)
        assert eq.is_mops == ct.is_mops
        assert eq.induced == ct.induced
        # the triple is reported exactly when A_n, B_n and C_n are constant
        assert (ct.constants is None) == any(
            f.condition.endswith("_constant") for f in ct.failures
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: chebyshev_case(100),
        lambda: jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 100),
    ],
    ids=["chebyshev", "jacobi-generic"],
)
def test_worked_cases_agree_at_depth_100(build):
    rep = build()
    eq = check_by_equations(rep.u_rec, rep.rel, 100)
    ct = check_by_constants(rep.u_rec, rep.rel, 100)
    assert eq.is_mops and ct.is_mops
    assert eq.induced == ct.induced
    fr = relation_constants(rep.u_rec, rep.rel)
    assert ct.constants == (fr.a, fr.b, fr.c)


def test_checkers_refuse_a_zero_gamma_in_the_working_range():
    """Both checkers refuse a zero gamma_n of P's recurrence for
    n <= depth, with the text the command line prints; a zero further out
    is outside the data they read."""
    rep = chebyshev_case(6)
    beta, gamma = rep.u_rec.beta, list(rep.u_rec.gamma)
    for zero, refused in ((3, True), (6, True), (7, False), (8, False)):
        bent = RecurrencePair(beta, gamma[: zero - 1] + [0] + gamma[zero:])
        for checker in (check_by_equations, check_by_constants):
            if refused:
                with pytest.raises(DomainError, match=f"gamma_{zero} is zero"):
                    checker(bent, rep.rel, 6)
            else:
                checker(bent, rep.rel, 6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(100, 140), st.sampled_from([False, False, True]))
def test_checkers_agree_on_random_instances_at_depth_100_and_beyond(seed, depth, positive):
    """On a random gated instance, and in about a third of the draws also on
    a positive instance of the spectral-chain builder, where both say MOPS:
    the builder runs both checkers (``check_both``) and raises
    ContractError if either rejects the chain. The chain's no-root side of
    ``regularity_criterion`` agrees with P_n(c) walked in Fractions."""
    rec, rel = random_gated_instance(random.Random(seed), depth)
    eq = check_by_equations(rec, rel, depth)
    ct = check_by_constants(rec, rel, depth)
    assert eq.is_mops == ct.is_mops
    assert eq.induced == ct.induced
    if positive:
        chain, (_, _, c, _, _, _) = random_spectral_chain(random.Random(seed), depth)
        eq, ct = chain.verdict_equations, chain.verdict_constants
        assert eq.is_mops and ct.is_mops
        assert eq.induced == ct.induced
        at = values_at(chain.u_rec.beta, chain.u_rec.gamma, c, depth)
        assert chain.regularity[0] == all(at[1:])


def assert_same_verdicts(rec, rel, depth):
    """check_both gives the case the checkers admit and, field by field,
    the verdicts of the two checkers run one after the other."""
    case, eq, ct = check_both(rec, rel, depth)
    eq_alone = check_by_equations(rec, rel, depth)
    ct_alone = check_by_constants(rec, rel, depth)
    assert case == classify(rel) and case.tag is RelationTag.NONDEGENERATE23
    for shared, alone in ((eq, eq_alone), (ct, ct_alone)):
        assert shared.is_mops == alone.is_mops
        assert shared.failures == alone.failures
        assert shared.induced == alone.induced
        assert shared.constants == alone.constants
        assert shared.constancy == alone.constancy
    return eq, ct


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(12, 200))
def test_check_both_equals_the_two_checkers(seed, depth):
    assert_same_verdicts(*random_gated_instance(random.Random(seed), depth), depth)


@pytest.mark.parametrize(
    "build",
    [
        lambda: chebyshev_case(40),
        lambda: jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 40),
    ],
    ids=["chebyshev", "jacobi-generic"],
)
def test_check_both_equals_the_two_checkers_on_worked_cases(build):
    rep = build()
    eq, ct = assert_same_verdicts(rep.u_rec, rep.rel, 40)
    assert eq.is_mops and ct.is_mops


def _refused_cases():
    rec, rel = random_gated_instance(random.Random(20260818), 10)
    rep = chebyshev_case(6)
    gamma = list(rep.u_rec.gamma)
    gamma[2] = 0
    return {
        # one index short of the window of both checkers
        "relation-through-depth": (
            DepthError, rec, Relation23(rel.r[:9], rel.s[:9], rel.t[:9]), 8),
        "zero-gamma": (DomainError, RecurrencePair(rep.u_rec.beta, gamma), rep.rel, 6),
        "type12": (
            DomainError, RecurrencePair([0] * 8, ["1/4"] * 8),
            rel_from7(0, 2, 0, 1, 0, 2, 0, pad=5), 5),
    }


@pytest.mark.parametrize("name", list(_refused_cases()))
def test_check_both_refuses_as_the_checkers_do(name):
    """On refused data check_both and each checker alone raise the same
    type with the same message."""
    kind, rec, rel, depth = _refused_cases()[name]
    raised = []
    for entry in (check_by_equations, check_by_constants, check_both):
        with pytest.raises(kind) as refused:
            entry(rec, rel, depth)
        raised.append((type(refused.value), str(refused.value)))
    assert raised[0] == raised[1] == raised[2]


@pytest.mark.parametrize(
    "beta_len, gamma_len, refused",
    [(6, 6, True), (7, 5, True), (6, 7, True), (7, 6, False), (8, 7, False)],
)
def test_check_both_refuses_short_recurrences_as_the_checkers_do(beta_len, gamma_len, refused):
    """Every entry point reads the recurrence through depth: it refuses
    beta or gamma through depth - 1 with the one message and accepts both
    through depth."""
    rep = chebyshev_case(6)
    rec = RecurrencePair(rep.u_rec.beta[:beta_len], rep.u_rec.gamma[:gamma_len])
    messages = set()
    for entry in ENTRY_POINTS:
        if refused:
            with pytest.raises(DepthError) as short:
                entry(rec, rep.rel, 6)
            messages.add(str(short.value))
        else:
            entry(rec, rep.rel, 6)
    assert len(messages) == (1 if refused else 0)


@pytest.mark.parametrize("run", ENTRY_POINTS + [induced_recurrence, auxiliary_sequences],
                         ids=lambda f: f.__name__)
def test_each_check_builds_the_sequences_once(monkeypatch, run):
    """One pass of the sequence builder per call, through depth, the one
    window of both checkers, and one build whatever the caller reads: a_n,
    b_n, d_n (2 <= n <= depth) and c_n (3 <= n <= depth) all present."""
    import mopsrel.relation23 as relation23

    rep = chebyshev_case(10)
    calls = []
    builds = []
    real = relation23._sequences

    def counted(rec, rel, n):
        calls.append(n)
        builds.append(real(rec, rel, n))
        return builds[-1]

    monkeypatch.setattr(relation23, "_sequences", counted)
    run(rep.u_rec, rep.rel, 8)
    assert calls == [8]
    a, b, c, d = builds[0][2]
    for first, seq in ((1, a), (2, b), (3, c), (2, d)):
        assert len(seq) == 9
        assert seq[:first] == [None] * first
        assert None not in seq[first:]
