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
mass attached to c_1), producing the chain w~ , u, v; v and w~ are 1-2
ladders over w, whose recurrences are lifted from w's (``_ladder_lift``).
It derives the 2-3 relation linking the MOPS of u and v and certifies the
identities the lifts do not give, the orthogonality verdicts, and the
functional identity lambda (x - c) u = (x^2 + a x + b) v with (a, b, c) =
(2, 1, 1). Its norm link <v, Q_n^2> = c_n <w, W_{n-1}^2> takes norms as
Favard products mu_0 gamma_1 ... gamma_n.

Every identity asserted here is certified by exact computation, in time
linear in the depth and without building a polynomial family: each 2-2
ladder P_n + a_n P_{n-1} = R_n + b_n R_{n-1}, 1-2 ladders included, on the
recurrences (``_ladder_break``), the 2-3 identity on the ladders of its
composition (``_relation_break``), both on unreduced integer parts. An
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
from .poly import Polynomial, _combination
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


def _coincide(a, b, top: int) -> list:
    """[P_m = R_m for 0 <= m <= top] given the 2-2 ladder of
    ``_ladder_break`` through m: P_m - R_m = b_m R_{m-1} - a_m P_{m-1}."""
    same = [True]
    for m in range(1, top + 1):
        same.append(a[m] == b[m] and (not a[m] or same[-1]))
    return same


def _ladder_break(p_rec: RecurrencePair, r_rec: RecurrencePair, a, b, top: int) -> Optional[int]:
    """The first n <= top at which P_n + a_n P_{n-1} = R_n + b_n R_{n-1}
    fails, or None, for the monic families of ``p_rec`` (beta_n, gamma_n)
    and ``r_rec`` (beta^R_n, gamma^R_n), read through index top - 1, and
    a, b = [unused, x_1, ..., x_top]; a 1-2 ladder U_n = L_n + k_n L_{n-1}
    is P = U, a = 0, R = L, b = k. No polynomial is built.

    With a_0 = b_0 = gamma_0 = 0 the ladder holds at n = 1 exactly when
    a_1 - beta_0 = b_1 - beta^R_0. If it holds through n, then with
    u = beta_n + a_n - a_{n+1}, Z = gamma_n + a_n beta_{n-1} - u a_n and
    W = a_n gamma_{n-1} - Z a_{n-1}, P's recurrence gives
    P_{n+1} + a_{n+1} P_n = (x - u) S_n - Z S_{n-1} - W P_{n-2} (S_k either
    side at k), and R's the same. So it holds at n + 1 exactly when the
    triples (u, Z, W) of P and R agree and W = 0 or P_{n-2} = R_{n-2}
    (``_coincide``): the first failing step is the first failing n."""
    p_rec.require(top - 1, top - 1)
    r_rec.require(top - 1, top - 1)
    # gamma_0 = a_0 = b_0 = 0 pad the lists, so g[n] is gamma_n
    (bp, bpd), (br, brd) = (_parts(rec.beta[:top]) for rec in (p_rec, r_rec))
    (gp, gpd), (gr, grd) = (_parts((0,) + rec.gamma[: top - 1]) for rec in (p_rec, r_rec))
    (an, ad), (bn, bd) = (_parts([0, *seq[1 : top + 1]]) for seq in (a, b))
    if _lcm_sum((an[1], -bp[0], -bn[1], br[0]), (ad[1], bpd[0], bd[1], brd[0]))[0]:
        return 1
    same = _coincide(a, b, top)
    for n in range(1, top):
        # u, Z, W of P as unreduced pairs (a zero a_n drops its terms), matched to R's
        u, ud = _lcm_sum((bp[n], an[n], -an[n + 1]), (bpd[n], ad[n], ad[n + 1]))
        z, zd = (_lcm_sum((gp[n], an[n] * bp[n - 1], -u * an[n]),
                          (gpd[n], ad[n] * bpd[n - 1], ud * ad[n])) if an[n] else (gp[n], gpd[n]))
        w, wd = (_lcm_sum((an[n] * gp[n - 1], -z * an[n - 1]), (ad[n] * gpd[n - 1], zd * ad[n - 1]))
                 if an[n] or an[n - 1] else (0, 1))
        if (_lcm_sum((br[n], bn[n], -bn[n + 1], -u), (brd[n], bd[n], bd[n + 1], ud))[0]
                or _lcm_sum((gr[n], bn[n] * br[n - 1], -u * bn[n], -z),
                            (grd[n], bd[n] * brd[n - 1], ud * bd[n], zd))[0]
                or _lcm_sum((bn[n] * gr[n - 1], -z * bn[n - 1], -w),
                            (bd[n] * grd[n - 1], zd * bd[n - 1], wd))[0]
                or (w and not same[n - 2])):  # W = 0 at n = 1
            return n + 1
    return None


def _ladder_lift(low: RecurrencePair, k, top: int) -> RecurrenceReport:
    """The recurrence of the MOPS U_n = L_n + k_n L_{n-1} from L's, read through
    top - 1 >= 1, and k = [unused, k_1 != 0, ..., k_top] with W = 0 (the triples of
    ``_ladder_break``, a = 0), as ``recurrence_from_moments`` reports U's mu_0..mu_{2 top}:
    a zero k_m is the first zero gamma^U_m = k_m gamma_{m-1} / k_{m-1}, where it stops."""
    beta, g = low.beta, (0,) + low.gamma  # g[n] is gamma_n
    m = next((n for n in range(2, top + 1) if k[n] == 0), None)
    n_beta, n_gamma = (top, top) if m is None else (m, m - 1)
    ub = [beta[0] - k[1]] + [beta[n] + k[n] - k[n + 1] for n in range(1, n_beta)]
    ug = [g[1] + k[1] * (beta[0] - ub[1])]
    ug += [k[n] * g[n - 1] / k[n - 1] for n in range(2, n_gamma + 1)]
    return RecurrenceReport(RecurrencePair(ub, ug), m, top if m is None else m)


def _relation_break(rel: Relation23, a, b, l) -> Optional[int]:
    """The first n <= rel.max_index at which Q_n + r_n Q_{n-1} = P_n
    + s_n P_{n-1} + t_n P_{n-2} fails, or None, given the ladders P_n + a_n
    P_{n-1} = R_n + b_n R_{n-1} and Q_n = R_n + l_n R_{n-1}. With a_0 = b_0
    = l_0 = 0, e_n = s_n - a_n, g_n = r_n l_{n-1} - e_n b_{n-1} and f_n =
    t_n - e_n a_{n-1}, Q's side less P's is (l_n + r_n - b_n - e_n) R_{n-1}
    + g_n R_{n-2} - f_n P_{n-2}: zero exactly when l_n + r_n = b_n + e_n,
    g_n = f_n, and f_n = 0 or P_{n-2} = R_{n-2}. It reads r, s, t as given,
    so it checks ``compose_ladders`` instead of restating it."""
    top = rel.max_index
    (r, rd), (s, sd) = _parts(rel.r[: top + 1]), _parts(rel.s[: top + 1])
    t, td = _parts((0, 0) + rel.t[2 : top + 1])  # t_1 multiplies no P_{-1}
    (an, ad), (bn, bd), (ln, ld) = (_parts([0, *seq[1 : top + 1]]) for seq in (a, b, l))
    same = _coincide(a, b, top)
    for n in range(1, top + 1):
        e, ed = _lcm_sum((s[n], -an[n]), (sd[n], ad[n]))
        f, fd = _lcm_sum((t[n], -e * an[n - 1]), (td[n], ed * ad[n - 1]))
        if (_lcm_sum((ln[n], r[n], -bn[n], -e), (ld[n], rd[n], bd[n], ed))[0]
                or _lcm_sum((r[n] * ln[n - 1], -e * bn[n - 1], -f),
                            (rd[n] * ld[n - 1], ed * bd[n - 1], fd))[0]
                or (f and not same[n - 2])):  # f_1 = 0
            return n
    return None


def _certify_relation(
    rel: Relation23, ladders: tuple, u_rec: RecurrencePair, u: MomentFunctional,
    depth: int, q_rec: RecurrencePair, v_known: MomentFunctional, identity_depth: int,
):
    """Certify a relation composed from the certified ``ladders`` (a, b, l)
    between the MOPS (P_n) of u and the family (Q_n) whose recurrence
    ``q_rec`` and normalized moments ``v_known`` are known: the 2-3
    identity, both checkers' verdicts, the induced recurrence, the
    constancy triple against the closed forms, the moments recovered from
    the functional identity, and the identity through ``identity_depth``."""
    n = _relation_break(rel, *ladders)
    _certify(n is None, f"2-3 relation fails as a polynomial identity at n={n}")

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
    fourth_rec = chebyshev_kind(4, top + 2)
    n = _ladder_break(fourth_rec, second_rec, [0] * (top + 1), lam, top)
    _certify(n is None, f"1-2 ladder between fourth and second kind fails at n={n}")

    # P_0..P_2 from the 2-2 ladder P_n + a_n P_{n-1} = R_n + b_n R_{n-1}
    second = mops_from_recurrence(second_rec, 3)
    p = [Polynomial.one()]
    for n in (1, 2):
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
        _ladder_break(u_rec, second_rec, a, b, top) is None,
        "2-2 ladder family does not match the MOPS of u",
    )

    rel = compose_ladders(a, b, lam)
    fourth_moments = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[4]), u.depth)
    verdict_eq, verdict_ct, constants, moment_identity = _certify_relation(
        rel, (a, b, lam), u_rec, u, depth, fourth_rec, fourth_moments, u.depth - 2
    )

    regularity = regularity_criterion(u_rec, 1, rel, depth)
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
    # one Jacobi recurrence, read through top, serves the ladders, the lifts and
    # the norms. The report keeps u's and v's beta through top and gamma through
    # top + 1: the lifts take a_n, c_n through top + 1, and u's moments run to
    # N = 2 top + 2 (mu_0..mu_N give beta through (N - 1)//2, gamma N//2)
    w_rec = jacobi_recurrence(params, top + 1)
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

    # coefficient ladders by forward recursion: a zero below top is a breakdown
    # (the chain functional is not regular there), one at top the lifts' verdict
    a_seq: list = [None] * (top + 2)
    c_seq: list = [None] * (top + 2)
    a_seq[1] = a1
    c_seq[1] = c1
    for n in range(1, top + 1):
        for name, seq, shift in (("a", a_seq, -1), ("c", c_seq, 1)):
            if seq[n]:
                seq[n + 1] = w_rec.beta[n] + shift - w_rec.gamma[n - 1] / seq[n]
            elif n < top:
                return fail(f"{name}_recursion_breakdown", n)
    for n in range(1, top + 1):
        if a_seq[n] == c_seq[n]:
            return fail("link_coefficients_equal", n)

    w = jacobi_moments(params, 2 * top + 2)
    w_tilde = w.scale(-1).divide_by_linear(1, 1 / mass_up)
    u_raw = w_tilde.left_multiply(Polynomial([1, 1]))
    _certify(u_raw.moments[0] == u_mass, "u mass disagrees with the closed form")
    u = u_raw.normalized()
    v = w.divide_by_linear(-1, v_mass).normalized()

    # v and w~ are the ladders Q_n = W_n + c_n W_{n-1} and W~_n = W_n + a_n W_{n-1}
    reports = (("u", recurrence_from_moments(u)), ("v", _ladder_lift(w_rec, c_seq, top + 1)),
               ("w_tilde", _ladder_lift(w_rec, a_seq, top + 1)))
    for name, report in reports:
        if report.first_vanishing is not None and report.first_vanishing <= depth + 2:
            return fail(f"{name}_not_regular", report.first_vanishing)
    u_rec, v_rec, wt_rec = (report.rec for _, report in reports)
    a_seq, c_seq = a_seq[: top + 1], c_seq[: top + 1]

    # <w, W_n^2> and <u, P_n^2> / u_mass for n < top, as prefix products
    w_norms = list(accumulate(w_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    u_norms = list(accumulate(u_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    b_seq = [None] + [-a_seq[n] * w_norms[n - 1] / (u_mass * u_norms[n - 1])
                      for n in range(1, top + 1)]

    # the lifts give the up-link and the second-family link; the down-link
    # W~_n = P_n + b_n P_{n-1} ties w~ to u (and W_n + a_n W_{n-1} to P_n + b_n P_{n-1})
    n = _ladder_break(wt_rec, u_rec, [0] * (top + 1), b_seq, top)
    _certify(n is None, f"down-link identity fails at n={n}")

    rel = compose_ladders(b_seq, a_seq, c_seq)
    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        return fail(f"relation_degenerate_{case.tag.value}")
    verdict_eq, verdict_ct, constants, moment_identity = _certify_relation(
        rel, (b_seq, a_seq, c_seq), u_rec, u, depth, v_rec, v, depth
    )
    _certify(constants.lam == -u_mass / v_mass, "lambda disagrees with the mass ratio")

    # the norm link <v, Q_n^2> = c_n <w, W_{n-1}^2>: v is regular through top and
    # (Q_n) is the MOPS of v_rec, so <v, Q_n^2> is the Favard product
    # v_mass gamma_1 ... gamma_n, with no Hankel form over v's moments.
    # -(c_n / a_n) b_n <u, P_{n-1}^2> equals c_n <w, W_{n-1}^2> by b_n's
    # definition, so it is not compared
    v_norms = list(accumulate(v_rec.gamma[:depth], mul, initial=v_mass))
    norm_link = all(v_norms[n] == c_seq[n] * w_norms[n - 1] for n in range(1, depth + 1))

    regularity = regularity_criterion(u_rec, 1, rel, depth)

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
