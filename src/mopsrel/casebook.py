"""Two fully worked constructions that exercise the whole pipeline.

``chebyshev_case`` builds a functional u as a point mass at 1 plus a
weighted left multiple of the third-kind Chebyshev functional, links its
MOPS (P_n) to the fourth-kind family (Q_n) through a 2-3 relation derived
from explicit 2-2 and 1-2 ladders over the second-kind family, and runs
every checker on the result. Its twist: (x - 1) u is not regular even
though the relation is non-degenerate and (Q_n) is orthogonal.

``jacobi_chain`` starts from a Jacobi functional w, performs one linear
division at 1 (free mass attached to a coefficient a_1), one left
multiplication by 1 + x, and an independent linear division at -1 (free
mass attached to c_1), producing the chain w~ , u, v; it derives the 2-3
relation linking the MOPS of u and v and certifies all linking identities,
the orthogonality verdicts, and the functional identity
lambda (x - c) u = (x^2 + a x + b) v with (a, b, c) = (2, 1, 1).

Every identity asserted here is certified by exact computation: each
polynomial identity sum c_i p_i = 0 is decided on the unreduced integer
numerators of the sum over one common denominator, without a gcd. An
internal mismatch raises ContractError naming the first violated identity.
The Jacobi and Chebyshev moments come from the Pearson equation
(``jacobi_moments``), in time linear in the depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional

from .errors import ContractError, DepthError, DomainError
from .families import (
    _CHEBYSHEV_PARAMS,
    JacobiParams,
    chebyshev_kind,
    jacobi_moments,
    jacobi_recurrence,
)
from .functional import (
    MomentFunctional,
    RecurrencePair,
    RecurrenceReport,
    mops_from_recurrence,
    recurrence_from_moments,
)
from .poly import Polynomial, _combination, _vanishes
from .rational import as_scalar
from .relation23 import (
    Failure,
    FunctionalRelation,
    InverseVerdict,
    Relation23,
    RelationTag,
    check_both,
    classify,
    compose_ladders,
    regularity_criterion,
    relation_constants,
    v_moments_from_relation,
    verify_functional_relation,
)

HALF = Fraction(1, 2)


def _certify(condition: bool, what: str) -> None:
    if not condition:
        raise ContractError(f"internal consistency: {what}")


def _certify_relation(
    rel: Relation23, p: list, q: list, u_rec: RecurrencePair, u: MomentFunctional,
    depth: int, q_rec: RecurrencePair, v_known: MomentFunctional, identity_depth: int,
):
    """Certify a composed relation between the MOPS (P_n) of u and the
    family (Q_n) whose recurrence ``q_rec`` and normalized moments
    ``v_known`` are known: the 2-3 identity, both checkers' verdicts, the
    induced recurrence, the constancy triple against the closed forms, the
    moments recovered from the functional identity, and the identity itself
    through ``identity_depth``."""
    r, s, t = rel.r, rel.s, rel.t
    for n in range(1, rel.max_index + 1):
        terms = [(1, q[n]), (r[n], q[n - 1]), (-1, p[n]), (-s[n], p[n - 1])]
        if n >= 2:
            terms.append((-t[n], p[n - 2]))
        _certify(_vanishes(terms), f"2-3 relation fails as a polynomial identity at n={n}")

    _, verdict_eq, verdict_ct = check_both(u_rec, rel, depth)
    _certify(verdict_eq.is_mops, "equation checker rejects the generated family")
    _certify(verdict_ct.is_mops, "constancy checker rejects the generated family")
    _certify(
        verdict_eq.induced.beta[: depth + 1] == q_rec.beta[: depth + 1]
        and verdict_eq.induced.gamma[:depth] == q_rec.gamma[:depth],
        "induced recurrence does not match the second family",
    )

    constants = relation_constants(u_rec, rel)
    _certify(
        verdict_ct.constants == (constants.a, constants.b, constants.c),
        "constancy triple disagrees with the closed-form constants",
    )
    v = v_moments_from_relation(u, constants, verdict_eq.induced.beta[0])
    _certify(
        v.moments[: u.depth + 1] == v_known.moments[: u.depth + 1],
        "moments recovered from the functional identity differ from the second family's",
    )
    moment_identity = verify_functional_relation(u, v_known, constants, identity_depth)
    _certify(moment_identity[0], "functional identity fails on the moments")
    return verdict_eq, verdict_ct, constants, moment_identity


def _report_csv(report, third_name: str, third: tuple) -> list:
    """The header row, then one row per index 0..depth of a positive
    report: n, the ladders, the relation, the induced recurrence and the
    constancy expressions that the constancy checker built (None where an
    entry is undefined)."""
    rows = [[
        "n", "a_n", "b_n", third_name, "r_n", "s_n", "t_n",
        "beta_tilde_n", "gamma_tilde_n", "A_n", "B_n", "C_n",
    ]]
    induced = report.verdict_equations.induced
    columns = (
        report.a_seq, report.b_seq, third, report.rel.r, report.rel.s, report.rel.t,
        induced.beta, (None,) + induced.gamma,
        *report.verdict_constants.constancy,
    )
    for n in range(report.depth + 1):
        rows.append([n] + [seq[n] if n < len(seq) else None for seq in columns])
    return rows


@dataclass(frozen=True)
class ChebyshevCaseReport:
    depth: int
    point_mass_ratio: Fraction
    a_seq: tuple
    b_seq: tuple
    lambda_seq: tuple
    rel: Relation23
    u_rec: RecurrencePair
    q_rec: RecurrencePair
    verdict_equations: InverseVerdict
    verdict_constants: InverseVerdict
    constants: FunctionalRelation
    regularity: tuple[bool, bool]
    shifted_hankel: RecurrenceReport
    odd_index_identity: bool
    moment_identity: tuple[bool, Optional[int]]

    def to_json(self) -> dict:
        return {
            "case": "chebyshev",
            "depth": self.depth,
            "point_mass_ratio": self.point_mass_ratio,
            "a": list(self.a_seq),
            "b": list(self.b_seq),
            "lambda": list(self.lambda_seq),
            "relation": self.rel.to_json(),
            "u_recurrence": self.u_rec.to_json(),
            "classification": RelationTag.NONDEGENERATE23.value,
            "verdict_equations": self.verdict_equations.to_json(),
            "verdict_constants": self.verdict_constants.to_json(),
            "functional_relation": self.constants.to_json(),
            "regularity_criterion": list(self.regularity),
            "shifted_functional_regular_through": self.shifted_hankel.regular_through,
            "shifted_functional_first_vanishing": self.shifted_hankel.first_vanishing,
            "odd_index_identity": self.odd_index_identity,
            "moment_identity_ok": self.moment_identity[0],
        }

    def to_csv(self) -> list:
        return _report_csv(self, "lambda_n", self.lambda_seq)


def _chebyshev_ladder(count: int) -> tuple[list, list, list]:
    """The explicit 2-2 and 1-2 ladder coefficients of the case, a_n and
    b_n alternating in closed form and a constant 1/2, for 1 <= n <= count."""
    a: list = [None] * (count + 1)
    b: list = [None] * (count + 1)
    lam: list = [None] * (count + 1)
    for n in range(1, count + 1):
        lam[n] = HALF
        if n % 2 == 0:
            k = n // 2
            a[n] = Fraction(-(4 * k + 1), 2 * (4 * k - 1))
            b[n] = a[n]
        else:
            k = (n - 1) // 2
            a[n] = Fraction(4 * k - 1, 2 * (4 * k + 1))
            b[n] = Fraction(-(4 * k + 3), 2 * (4 * k + 1))
    return a, b, lam


def chebyshev_case(depth: int) -> ChebyshevCaseReport:
    if depth < 5:
        raise DepthError("chebyshev_case needs depth >= 5")
    top = depth + 2
    a, b, lam = _chebyshev_ladder(top)

    second = mops_from_recurrence(chebyshev_kind(2, top + 1), top + 1)
    fourth_rec = chebyshev_kind(4, top + 2)
    fourth = mops_from_recurrence(fourth_rec, top + 1)
    for n in range(1, top + 1):
        _certify(
            _vanishes([(1, fourth[n]), (-1, second[n]), (-lam[n], second[n - 1])]),
            f"1-2 ladder between fourth and second kind fails at n={n}",
        )

    # P_n from the 2-2 ladder: P_n + a_n P_{n-1} = R_n + b_n R_{n-1}
    p = [Polynomial.one()]
    for n in range(1, top + 1):
        p.append(_combination([(1, second[n]), (b[n], second[n - 1]), (-a[n], p[n - 1])]))

    # the third-kind part carries a mass fixed by orthogonality of P_2
    u_depth = 2 * depth + 6
    w3 = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[3]), u_depth + 1)
    den = w3.apply(Polynomial.x() * p[2])
    _certify(p[2](1) != 0 and den != 0, "point-mass ratio solve is degenerate")
    ratio = 3 * p[2](1) / den
    u_raw = w3.left_multiply(Polynomial([0, -ratio / 3])).add_point_mass(1, 1)
    u = u_raw.normalized()

    u_report = recurrence_from_moments(u)
    _certify(
        u_report.first_vanishing is None or u_report.first_vanishing > depth + 2,
        "u fails regularity inside the working range",
    )
    u_rec = u_report.rec
    _certify(
        mops_from_recurrence(u_rec, top + 1) == p,
        "2-2 ladder family does not match the MOPS of u",
    )

    rel = compose_ladders(a, b, lam)
    fourth_moments = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[4]), u.depth)
    verdict_eq, verdict_ct, constants, moment_identity = _certify_relation(
        rel, p, fourth, u_rec, u, depth, fourth_rec, fourth_moments, u.depth - 2
    )

    regularity = regularity_criterion(p, 1, rel, depth)
    shifted = recurrence_from_moments(
        u.left_multiply(Polynomial([-1, 1]))
    )
    r, s, t = rel.r, rel.s, rel.t
    odd_ok = all(
        t[n] == r[n] * (s[n - 1] - r[n - 1]) for n in range(3, depth + 1, 2)
    )

    return ChebyshevCaseReport(
        depth=depth,
        point_mass_ratio=ratio,
        a_seq=tuple(a),
        b_seq=tuple(b),
        lambda_seq=tuple(lam),
        rel=rel,
        u_rec=RecurrencePair(u_rec.beta[: depth + 2], u_rec.gamma[: depth + 2]),
        q_rec=fourth_rec,
        verdict_equations=verdict_eq,
        verdict_constants=verdict_ct,
        constants=constants,
        regularity=regularity,
        shifted_hankel=shifted,
        odd_index_identity=odd_ok,
        moment_identity=moment_identity,
    )


@dataclass(frozen=True)
class JacobiChainReport:
    ok: bool
    failure: Optional[Failure]
    alpha: Fraction
    beta: Fraction
    a1: Fraction
    c1: Fraction
    depth: int
    a_seq: tuple = ()
    b_seq: tuple = ()
    c_seq: tuple = ()
    rel: Optional[Relation23] = None
    u_rec: Optional[RecurrencePair] = None
    v_rec: Optional[RecurrencePair] = None
    u_mass: Optional[Fraction] = None
    v_mass: Optional[Fraction] = None
    verdict_equations: Optional[InverseVerdict] = None
    verdict_constants: Optional[InverseVerdict] = None
    constants: Optional[FunctionalRelation] = None
    moment_identity: Optional[tuple] = None
    regularity: Optional[tuple] = None
    norm_link: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "case": "jacobi-chain",
            "ok": self.ok,
            "failure": None if self.failure is None else self.failure.to_json(),
            "alpha": self.alpha,
            "beta": self.beta,
            "a1": self.a1,
            "c1": self.c1,
            "depth": self.depth,
        }
        if not self.ok:
            return out
        out.update(
            {
                "a": list(self.a_seq),
                "b": list(self.b_seq),
                "c": list(self.c_seq),
                "relation": self.rel.to_json(),
                "u_recurrence": self.u_rec.to_json(),
                "v_recurrence": self.v_rec.to_json(),
                "u_mass": self.u_mass,
                "v_mass": self.v_mass,
                "classification": RelationTag.NONDEGENERATE23.value,
                "verdict_equations": self.verdict_equations.to_json(),
                "verdict_constants": self.verdict_constants.to_json(),
                "functional_relation": self.constants.to_json(),
                "moment_identity_ok": self.moment_identity[0],
                "regularity_criterion": list(self.regularity),
                "norm_link_ok": self.norm_link,
            }
        )
        return out

    def to_csv(self) -> list:
        if not self.ok:
            return [["failure", "n"], list(self.failure or ("unknown", None))]
        return _report_csv(self, "c_n", self.c_seq)


def jacobi_chain(params: JacobiParams, a1, c1, depth: int) -> JacobiChainReport:
    a1 = as_scalar(a1)
    c1 = as_scalar(c1)
    if depth < 5:
        raise DepthError("jacobi_chain needs depth >= 5")

    def fail(condition: str, n: Optional[int] = None) -> JacobiChainReport:
        return JacobiChainReport(
            ok=False,
            failure=Failure(condition, n),
            alpha=params.alpha,
            beta=params.beta,
            a1=a1,
            c1=c1,
            depth=depth,
        )

    top = depth + 2
    u_target = 2 * depth + 8
    # one Jacobi recurrence serves the ladders, the norms and the family
    # (W_n), which read it through index top - 1; the moments of w come
    # from the Pearson equation
    w_rec = jacobi_recurrence(params, top)
    beta0 = w_rec.beta[0]

    if a1 == 0:
        return fail("a1 must be nonzero")
    if c1 == 0:
        return fail("c1 must be nonzero")
    mass_up = 1 - beta0 + a1
    if mass_up == 0:
        return fail("w_tilde_mass")
    u_mass = (1 + beta0 - a1) / mass_up
    if u_mass == 0:
        return fail("u_mass")
    v_denom = 1 + beta0 - c1
    if v_denom == 0:
        return fail("v_mass")
    v_mass = 1 / v_denom

    # coefficient ladders by forward recursion; breakdown means the chain
    # functional is not regular at that index
    a_seq: list = [None] * (top + 1)
    c_seq: list = [None] * (top + 1)
    a_seq[1] = a1
    c_seq[1] = c1
    for n in range(1, top):
        if a_seq[n] == 0:
            return fail("a_recursion_breakdown", n)
        a_seq[n + 1] = w_rec.beta[n] - 1 - w_rec.gamma[n - 1] / a_seq[n]
        if c_seq[n] == 0:
            return fail("c_recursion_breakdown", n)
        c_seq[n + 1] = w_rec.beta[n] + 1 - w_rec.gamma[n - 1] / c_seq[n]
    for n in range(1, top + 1):
        if a_seq[n] == c_seq[n]:
            return fail("link_coefficients_equal", n)

    w = jacobi_moments(params, u_target + 1)
    w_tilde = w.scale(-1).divide_by_linear(1, 1 / mass_up)
    u_raw = w_tilde.left_multiply(Polynomial([1, 1]))
    _certify(u_raw.moments[0] == u_mass, "u mass disagrees with the closed form")
    u = u_raw.normalized()
    v_raw = w.divide_by_linear(-1, v_mass)
    v = v_raw.normalized()

    u_report = recurrence_from_moments(u)
    if u_report.first_vanishing is not None and u_report.first_vanishing <= depth + 2:
        return fail("u_not_regular", u_report.first_vanishing)
    u_rec = u_report.rec
    v_report = recurrence_from_moments(v)
    if v_report.first_vanishing is not None and v_report.first_vanishing <= depth + 2:
        return fail("v_not_regular", v_report.first_vanishing)
    v_rec = v_report.rec
    wt_report = recurrence_from_moments(w_tilde.normalized())
    if wt_report.first_vanishing is not None and wt_report.first_vanishing <= depth + 2:
        return fail("w_tilde_not_regular", wt_report.first_vanishing)

    big_w = mops_from_recurrence(w_rec, top + 1)
    big_wt = mops_from_recurrence(wt_report.rec, top + 1)
    p = mops_from_recurrence(u_rec, top + 1)
    q = mops_from_recurrence(v_rec, top + 1)

    # <w, W_n^2> and <u, P_n^2> / u_mass for n < top, as prefix products
    w_norms = list(accumulate(w_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    u_norms = list(accumulate(u_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    b_seq: list = [None] * (top + 1)
    for n in range(1, top + 1):
        b_seq[n] = -a_seq[n] * w_norms[n - 1] / (u_mass * u_norms[n - 1])

    for n in range(1, top + 1):
        up = [(1, big_w[n]), (a_seq[n], big_w[n - 1])]
        down = [(1, p[n]), (b_seq[n], p[n - 1])]
        wt = (-1, big_wt[n])
        _certify(_vanishes([wt, *up]), f"up-link identity fails at n={n}")
        _certify(_vanishes([wt, *down]), f"down-link identity fails at n={n}")
        _certify(
            _vanishes([*up, (-1, p[n]), (-b_seq[n], p[n - 1])]),
            f"2-2 link identity fails at n={n}",
        )
        _certify(
            _vanishes([(1, q[n]), (-1, big_w[n]), (-c_seq[n], big_w[n - 1])]),
            f"second-family link identity fails at n={n}",
        )

    rel = compose_ladders(b_seq, a_seq, c_seq)
    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        return fail(f"relation_degenerate_{case.tag.value}")
    verdict_eq, verdict_ct, constants, moment_identity = _certify_relation(
        rel, p, q, u_rec, u, depth, v_rec, v, depth
    )
    _certify(constants.lam == -u_mass / v_mass, "lambda disagrees with the mass ratio")

    norm_link = True
    for n in range(1, depth + 1):
        qn_sq = v_raw.apply_square(q[n])
        lhs_w = c_seq[n] * w_norms[n - 1]
        lhs_u = -(c_seq[n] / a_seq[n]) * b_seq[n] * u_mass * u_norms[n - 1]
        if qn_sq != lhs_w or qn_sq != lhs_u:
            norm_link = False
            break

    regularity = regularity_criterion(p, 1, rel, depth)

    return JacobiChainReport(
        ok=True,
        failure=None,
        alpha=params.alpha,
        beta=params.beta,
        a1=a1,
        c1=c1,
        depth=depth,
        a_seq=tuple(a_seq),
        b_seq=tuple(b_seq),
        c_seq=tuple(c_seq),
        rel=rel,
        u_rec=RecurrencePair(u_rec.beta[: depth + 3], u_rec.gamma[: depth + 3]),
        v_rec=RecurrencePair(v_rec.beta[: depth + 3], v_rec.gamma[: depth + 3]),
        u_mass=u_mass,
        v_mass=v_mass,
        verdict_equations=verdict_eq,
        verdict_constants=verdict_ct,
        constants=constants,
        moment_identity=moment_identity,
        regularity=regularity,
        norm_link=norm_link,
    )


def half_case_closed_forms(a1, count: int) -> tuple[list, list]:
    """Closed forms for the chain ladders at alpha = beta = 1/2 with
    c_1 = -a_1: lists a[1..count], b[1..count] (index 0 is None).

    The admissible parameter set excludes a1 in (-1/2, 0] and a1 = +-1;
    vanishing denominators inside the range raise with their index.
    """
    a1 = as_scalar(a1)
    if a1 == 1 or a1 == -1:
        raise DomainError("a1 must not be +-1")
    if Fraction(-1, 2) < a1 <= 0:
        raise DomainError("a1 must lie outside (-1/2, 0]")
    w = 1 + 2 * a1
    a: list = [None] * (count + 1)
    b: list = [None] * (count + 1)
    for n in range(1, count + 1):
        den_a = 1 - w * (n - 1)
        if den_a == 0:
            raise DomainError(f"ladder denominator vanishes at n={n}")
        a[n] = -HALF * (1 - w * n) / den_a
        den_b = (2 * n + 1) * (1 + a1) - w * n * (n + 1)
        if den_b == 0:
            raise DomainError(f"norm-ratio denominator vanishes at n={n}")
        b[n] = -a[n] * ((2 * n - 1) * (1 + a1) - w * (n - 1) * n) / den_b
    return a, b
