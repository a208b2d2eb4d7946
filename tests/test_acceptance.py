"""Acceptance gate: eight timed end-to-end criteria.

Every equality below is exact rational equality; each criterion asserts
its own wall-clock bound and prints one PASS line with the elapsed time.
"""

import random
import time
from fractions import Fraction

from mopsrel import (
    JacobiParams,
    Polynomial,
    chebyshev_case,
    check_by_constants,
    check_by_equations,
    generate_q,
    half_case_closed_forms,
    jacobi_chain,
    moments_from_recurrence,
    mops_from_recurrence,
    norm_squared,
    recurrence_from_moments,
    regularity_criterion,
    relation_constants,
    v_moments_from_relation,
)
from conftest import random_gated_instance

_CACHE: dict = {}
_TRUE_RANDOM: list = []


def _cheb(depth):
    key = ("cheb", depth)
    if key not in _CACHE:
        _CACHE[key] = chebyshev_case(depth)
    return _CACHE[key]


def _jac(depth):
    key = ("jac", depth)
    if key not in _CACHE:
        _CACHE[key] = jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, depth)
    return _CACHE[key]


def _done(label: str, start: float, bound: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < bound, f"{label} took {elapsed:.2f}s, bound {bound}s"
    print(f"{label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_point_mass_relation_values():
    start = time.monotonic()
    rel = chebyshev_case(6).rel
    assert rel.s[1] - rel.r[1] == Fraction(3, 2)
    assert rel.t[2] == Fraction(-1, 6)
    assert rel.r[2] * (rel.s[1] - rel.r[1]) == Fraction(-3, 2)
    _done("criterion 1", start, 1.0)


def test_criterion_2_point_mass_case_to_depth_20():
    start = time.monotonic()
    rep = _cheb(20)
    rel = rep.rel
    p = mops_from_recurrence(rep.u_rec, 22)
    q = generate_q(p, rel)
    for n in range(2, 21):
        lhs = q[n] + rel.r[n] * q[n - 1]
        rhs = p[n] + rel.s[n] * p[n - 1] + rel.t[n] * p[n - 2]
        assert lhs == rhs
    for n in range(3, 21, 2):
        assert rel.t[n] == rel.r[n] * (rel.s[n - 1] - rel.r[n - 1])
    assert rep.odd_index_identity is True
    # the functional shifted by the relation root loses regularity at once
    u = moments_from_recurrence(rep.u_rec, 20)
    shifted = recurrence_from_moments(u.left_multiply(Polynomial([-1, 1])))
    assert shifted.first_vanishing == 0
    assert rep.shifted_hankel.first_vanishing == 0
    assert rep.shifted_hankel.regular_through == -1
    _done("criterion 2", start, 5.0)


def test_criterion_3_constants_from_two_code_paths():
    cheb, jac = _cheb(20), _jac(20)
    start = time.monotonic()
    for rep, expected in ((cheb, (1, 0, 1)), (jac, (2, 1, 1))):
        fr = relation_constants(rep.u_rec, rep.rel)
        verdict = check_by_constants(rep.u_rec, rep.rel, rep.depth)
        assert verdict.is_mops
        assert verdict.constants == expected
        assert (fr.a, fr.b, fr.c) == expected
    _done("criterion 3", start, 5.0)


def test_criterion_4_randomized_checker_agreement():
    start = time.monotonic()
    rng = random.Random(41205)
    checked = 0
    for _ in range(200):
        rec, rel = random_gated_instance(rng, 12)
        eq = check_by_equations(rec, rel, 12)
        ct = check_by_constants(rec, rel, 12)
        assert eq.is_mops == ct.is_mops
        assert eq.induced == ct.induced
        checked += 1
        if eq.is_mops:
            _TRUE_RANDOM.append((rec, rel, eq))
    for rep in (_cheb(12), _jac(12)):
        eq = check_by_equations(rep.u_rec, rep.rel, 12)
        ct = check_by_constants(rep.u_rec, rep.rel, 12)
        assert eq.is_mops and ct.is_mops
        assert eq.induced == ct.induced
        checked += 1
    assert checked >= 200
    _done("criterion 4", start, 60.0)


def test_criterion_5_recovered_functional_is_orthogonalizing():
    start = time.monotonic()
    instances = []
    for rep in (_cheb(12), _jac(12)):
        instances.append((rep.u_rec, rep.rel, rep.verdict_equations))
    instances.extend(_TRUE_RANDOM)
    for rec, rel, verdict in instances:
        u = moments_from_recurrence(rec, 24)
        fr = relation_constants(rec, rel)
        v = v_moments_from_relation(u, fr, verdict.induced.beta[0])
        p = mops_from_recurrence(rec, 13)
        q = generate_q(p, rel)
        gt = verdict.induced.gamma
        norm = Fraction(1)
        for n in range(0, 7):
            if n >= 1:
                norm *= gt[n - 1]
            assert v.apply(q[n] * q[n]) == norm
        for n in range(0, 13):
            for m in range(n + 1, 13 - n):
                assert v.apply(q[n] * q[m]) == 0
    _done("criterion 5", start, 60.0)


def test_criterion_6_chain_case_to_depth_30():
    start = time.monotonic()
    rep = jacobi_chain(JacobiParams("1/2", "1/2"), 2, -2, 30)
    assert rep.ok
    assert rep.verdict_equations.is_mops and rep.verdict_constants.is_mops
    assert rep.moment_identity == (True, None)
    assert rep.norm_link is True
    a, b = half_case_closed_forms(2, 32)
    assert a[1:] == list(rep.a_seq[1:])
    assert b[1:] == list(rep.b_seq[1:])
    _done("criterion 6", start, 10.0)


def test_criterion_7_regularity_criterion_both_sides():
    cheb, jac = _cheb(20), _jac(20)
    start = time.monotonic()
    for rep, expected in ((cheb, (False, False)), (jac, (True, True))):
        fresh = regularity_criterion(rep.u_rec, rep.constants.c, rep.rel, 20)
        assert fresh == expected
        assert rep.regularity == expected
    _done("criterion 7", start, 5.0)


def test_criterion_8_projection_and_moment_identities():
    cheb, jac = _cheb(20), _jac(20)
    start = time.monotonic()
    for rep in (cheb, jac):
        rel = rep.rel
        u = moments_from_recurrence(rep.u_rec, 40)
        p = mops_from_recurrence(rep.u_rec, 21)
        q = generate_q(p, rel)
        prev = u.apply(q[1])
        assert prev == rel.s[1] - rel.r[1]
        cur = u.apply(q[2])
        assert cur == rel.t[2] - rel.r[2] * (rel.s[1] - rel.r[1])
        for n in range(3, 21):
            nxt = u.apply(q[n])
            assert nxt == -rel.r[n] * cur
            cur = nxt
        for n in range(1, 21):
            assert u.apply(q[n] * p[n - 1]) == (
                rel.s[n] - rel.r[n]
            ) * norm_squared(rep.u_rec, n - 1)
        for n in range(2, 21):
            coeff = rel.t[n] - rel.r[n] * (rel.s[n - 1] - rel.r[n - 1])
            assert u.apply(q[n] * p[n - 2]) == coeff * norm_squared(
                rep.u_rec, n - 2
            )
    _done("criterion 8", start, 5.0)
