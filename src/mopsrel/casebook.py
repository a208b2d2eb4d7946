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
lambda (x - c) u = (x^2 + a x + b) v with (a, b, c) = (2, 1, 1). Its norm
link <v, Q_n^2> = c_n <w, W_{n-1}^2> takes norms as Favard products mu_0
gamma_1 ... gamma_n, and it reads w's moments through 2 depth + 6 only.

Every identity asserted here is certified by exact computation: each
polynomial identity sum c_i p_i = 0 is decided on the unreduced integer
numerators of the sum over one common denominator, without a gcd, and each
ladder U_n = L_n + k_n L_{n-1} between two families on their recurrence
coefficients (``_ladder_break``), without building either family. An
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
from .rational import _lcm_sum, _parts, _reduce_pairs, as_scalar
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


def _ladder_break(lower: RecurrencePair, upper: RecurrencePair, k, top: int) -> Optional[int]:
    """The first n <= top at which U_n = L_n + k_n L_{n-1} fails, or None:
    (L_n) and (U_n) are the monic families of ``lower`` (beta_n, gamma_n)
    and ``upper`` (beta'_n, gamma'_n), read through index top - 1, and
    k = [unused, k_1, ..., k_top]. No polynomial is built.

    U_1 = L_1 + k_1 L_0 exactly when beta'_0 = beta_0 - k_1. If the ladder
    holds through n >= 1, expanding x L_n and x L_{n-1} by the lower
    recurrence in U_{n+1} = x U_n - beta'_n U_n - gamma'_n U_{n-1} gives
        U_{n+1} = L_{n+1} + (beta_n + k_n - beta'_n) L_n
                  + (gamma_n + k_n (beta_{n-1} - beta'_n) - gamma'_n) L_{n-1}
                  + (k_n gamma_{n-1} - gamma'_n k_{n-1}) L_{n-2}   (k_0 = 0).
    The L_j have distinct degrees, so the ladder holds at n + 1 exactly when
    the three brackets are k_{n+1}, 0 and 0; the first step that fails names
    the first n at which the polynomial identity fails."""
    lower.require(top - 1, top - 1)
    upper.require(top - 1, top - 1)
    # gamma_0 = k_0 = 0 pads the lists, so g[n] is gamma_n and k_0 gamma'_1 = 0
    (b, bd), (bp, bpd) = _parts(lower.beta[:top]), _parts(upper.beta[:top])
    (g, gd), (gp, gpd) = (_parts((0,) + rec.gamma[: top - 1]) for rec in (lower, upper))
    kn, kd = _parts([0, *k[1 : top + 1]])
    if _lcm_sum((bp[0], -b[0], kn[1]), (bpd[0], bd[0], kd[1]))[0]:
        return 1
    for n in range(1, top):
        if (_lcm_sum((b[n], kn[n], -bp[n], -kn[n + 1]), (bd[n], kd[n], bpd[n], kd[n + 1]))[0]
                or _lcm_sum((g[n], kn[n] * b[n - 1], -kn[n] * bp[n], -gp[n]),
                            (gd[n], kd[n] * bd[n - 1], kd[n] * bpd[n], gpd[n]))[0]
                or kn[n] * g[n - 1] * gpd[n] * kd[n - 1] != gp[n] * kn[n - 1] * kd[n] * gd[n - 1]):
            return n + 1
    return None


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
        *map(_reduce_pairs, report.verdict_constants.constancy),
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
    for n in range(1, count + 1):
        k = n // 2
        if n % 2 == 0:
            a[n] = b[n] = Fraction(-(4 * k + 1), 2 * (4 * k - 1))
        else:
            a[n] = Fraction(4 * k - 1, 2 * (4 * k + 1))
            b[n] = Fraction(-(4 * k + 3), 2 * (4 * k + 1))
    return a, b, [None] + [HALF] * count


def chebyshev_case(depth: int) -> ChebyshevCaseReport:
    if depth < 5:
        raise DepthError("chebyshev_case needs depth >= 5")
    top = depth + 2
    a, b, lam = _chebyshev_ladder(top)

    second_rec = chebyshev_kind(2, top + 1)
    second = mops_from_recurrence(second_rec, top + 1)
    fourth_rec = chebyshev_kind(4, top + 2)
    fourth = mops_from_recurrence(fourth_rec, top + 1)
    n = _ladder_break(second_rec, fourth_rec, lam, top)
    _certify(n is None, f"1-2 ladder between fourth and second kind fails at n={n}")

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
    shifted = recurrence_from_moments(u.left_multiply(Polynomial([-1, 1])))
    r, s, t = rel.r, rel.s, rel.t
    odd_ok = all(t[n] == r[n] * (s[n - 1] - r[n - 1]) for n in range(3, depth + 1, 2))

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
        out.update({
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
        })
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
        return JacobiChainReport(False, Failure(condition, n), params.alpha, params.beta,
                                 a1, c1, depth)

    top = depth + 2
    # one Jacobi recurrence, read through top - 1, serves the ladders, the norms
    # and the certificates. The moment window: mu_0..mu_N give beta through
    # (N - 1)//2, gamma and regularity through N//2; the report keeps u's and
    # v's beta through top and gamma through top + 1 (N >= 2 top + 2), and the
    # certificates read w~ through top - 1 and its regularity through top
    # (N >= 2 top). u has N = u_target + 1, v and w~ one more: u's reads decide
    u_target = 2 * depth + 5
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
    v = w.divide_by_linear(-1, v_mass).normalized()

    recs = []
    for name, f in (("u", u), ("v", v), ("w_tilde", w_tilde.normalized())):
        report = recurrence_from_moments(f)
        if report.first_vanishing is not None and report.first_vanishing <= depth + 2:
            return fail(f"{name}_not_regular", report.first_vanishing)
        recs.append(report.rec)
    u_rec, v_rec, wt_rec = recs

    p = mops_from_recurrence(u_rec, top + 1)
    q = mops_from_recurrence(v_rec, top + 1)

    # <w, W_n^2> and <u, P_n^2> / u_mass for n < top, as prefix products
    w_norms = list(accumulate(w_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    u_norms = list(accumulate(u_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    b_seq = [None] + [-a_seq[n] * w_norms[n - 1] / (u_mass * u_norms[n - 1])
                      for n in range(1, top + 1)]

    # the ladders up W~_n = W_n + a_n W_{n-1}, down W~_n = P_n + b_n P_{n-1}
    # (the two imply W_n + a_n W_{n-1} = P_n + b_n P_{n-1}) and second-family
    # Q_n = W_n + c_n W_{n-1}; the first failure by (n, ladder) is reported
    ladders = (("up-link", w_rec, wt_rec, a_seq), ("down-link", u_rec, wt_rec, b_seq),
               ("second-family link", w_rec, v_rec, c_seq))
    n, i = min((_ladder_break(low, up, k, top) or top + 1, i)
               for i, (_, low, up, k) in enumerate(ladders))
    _certify(n > top, f"{ladders[i][0]} identity fails at n={n}")

    rel = compose_ladders(b_seq, a_seq, c_seq)
    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        return fail(f"relation_degenerate_{case.tag.value}")
    verdict_eq, verdict_ct, constants, moment_identity = _certify_relation(
        rel, p, q, u_rec, u, depth, v_rec, v, depth
    )
    _certify(constants.lam == -u_mass / v_mass, "lambda disagrees with the mass ratio")

    # the norm link <v, Q_n^2> = c_n <w, W_{n-1}^2>: v is regular through top and
    # (Q_n) is the MOPS of v_rec, so <v, Q_n^2> (the Hankel form apply_square) is
    # the Favard product v_mass gamma_1 ... gamma_n. -(c_n / a_n) b_n <u, P_{n-1}^2>
    # equals c_n <w, W_{n-1}^2> by b_n's definition, so it is not compared
    v_norms = list(accumulate(v_rec.gamma[:depth], mul, initial=v_mass))
    norm_link = all(v_norms[n] == c_seq[n] * w_norms[n - 1] for n in range(1, depth + 1))

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
