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
ladders over w, whose recurrences are lifted from w's (``_ladder_lift``),
and u = (1 + x) w~ is a Christoffel transform of w~, whose recurrence
follows from w~'s by one LU step (``_christoffel_step``). It builds no
moment: it derives the 2-3 relation linking the MOPS of u and v, certifies
on recurrences the identities the lifts do not give and the orthogonality
verdicts, and pins lambda (x - c) u = (x^2 + a x + b) v, which holds for
every w by construction, by its constants (lambda, c, a, b) = (-u_mass /
v_mass, 1, 2, 1). It computes no norm: the a- and c-ladders and u's step
are the pivots of one LU recursion (``_pivots``), and b_n is the L factor
gamma~_n / d_{n-1} of J(w~) + I = L U.

Every identity asserted here is certified by exact computation, in time
linear in the depth and without building a polynomial family: each 2-2
ladder P_n + a_n P_{n-1} = R_n + b_n R_{n-1}, 1-2 ladders included, on the
recurrences (``_ladder_break``), the 2-3 identity on the ladders of its
composition (``_relation_break``), both on unreduced integer parts. An
internal mismatch raises ContractError naming the first violated identity.
The Chebyshev case also certifies the functional identity on moments; they
come from the Pearson equation (``jacobi_moments``), in time linear in the
depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ContractError, DepthError, DomainError
from .families import (
    _CHEBYSHEV_PARAMS,
    JacobiParams,
    chebyshev_kind,
    jacobi_moments,
    jacobi_recurrence,
)
from .functional import RecurrencePair, RecurrenceReport, recurrence_from_moments
from .poly import Polynomial
from .rational import _lcm_sum, _parts, _reduce_pairs, as_scalar
from .relation23 import (
    Failure,
    FunctionalRelation,
    InverseVerdict,
    Relation23,
    RelationTag,
    check_both,
    compose_ladders,
    regularity_criterion,
    relation_constants,
    v_moments_from_relation,
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
    lcm = math.lcm
    for n in range(1, top):
        # u, Z, W of P as unreduced pairs (a zero a_n drops its terms), each over
        # the lcm of its terms' denominators, as in rational._lcm_sum
        ud = lcm(bpd[n], ad[n], ad[n + 1])
        u = bp[n] * (ud // bpd[n]) + an[n] * (ud // ad[n]) - an[n + 1] * (ud // ad[n + 1])
        z, zd = gp[n], gpd[n]
        if an[n]:
            d1, d2 = ad[n] * bpd[n - 1], ud * ad[n]
            zd = lcm(gpd[n], d1, d2)
            z = gp[n] * (zd // gpd[n]) + an[n] * (bp[n - 1] * (zd // d1) - u * (zd // d2))
        w, wd = 0, 1
        if an[n] or an[n - 1]:
            d1, d2 = ad[n] * gpd[n - 1], zd * ad[n - 1]
            wd = lcm(d1, d2)
            w = an[n] * gp[n - 1] * (wd // d1) - z * an[n - 1] * (wd // d2)
        # matched to R's: beta^R_n + b_n - b_{n+1} = u, gamma^R_n + b_n beta^R_{n-1}
        # - u b_n = Z and b_n gamma^R_{n-1} - Z b_{n-1} = W
        L = lcm(brd[n], bd[n], bd[n + 1], ud)
        if (br[n] * (L // brd[n]) + bn[n] * (L // bd[n]) - bn[n + 1] * (L // bd[n + 1])
                != u * (L // ud)):
            return n + 1
        d1, d2 = bd[n] * brd[n - 1], ud * bd[n]
        L = lcm(grd[n], d1, d2, zd)
        if (gr[n] * (L // grd[n]) + bn[n] * (br[n - 1] * (L // d1) - u * (L // d2))
                != z * (L // zd)):
            return n + 1
        d1, d2 = bd[n] * grd[n - 1], zd * bd[n - 1]
        L = lcm(d1, d2, wd)
        if bn[n] * gr[n - 1] * (L // d1) - z * bn[n - 1] * (L // d2) != w * (L // wd):
            return n + 1
        if w and not same[n - 2]:  # W = 0 at n = 1
            return n + 1
    return None


def _ladder_lift(low: RecurrencePair, k, top: int) -> RecurrenceReport:
    """The recurrence of the MOPS U_n = L_n + k_n L_{n-1} from L's, read through
    top - 1 >= 1, and k = [unused, k_1 != 0, ..., k_top] with W = 0 (the triples of
    ``_ladder_break``, a = 0), as ``recurrence_from_moments`` reports U's mu_0..mu_{2 top}:
    a zero k_m is the first zero gamma^U_m = k_m gamma_{m-1} / k_{m-1}, where it stops
    (beta^U and gamma^U through m - 1)."""
    beta, g = low.beta, (0,) + low.gamma  # g[n] is gamma_n
    m = next((n for n in range(2, top + 1) if k[n] == 0), None)
    n_beta, n_gamma = (top, top) if m is None else (m, m - 1)
    ub = [beta[0] - k[1]] + [beta[n] + k[n] - k[n + 1] for n in range(1, n_beta)]
    ug = [g[1] + k[1] * (beta[0] - ub[1])]
    ug += [k[n] * g[n - 1] / k[n - 1] for n in range(2, n_gamma + 1)]
    return RecurrenceReport(RecurrencePair._exact(ub, ug), m, top if m is None else m)


def _pivots(rec: RecurrencePair, z, first, count: int) -> list:
    """[None, k_1, ..., k_count] with k_1 = first and k_{n+1} = beta_n - z - gamma_n / k_n,
    read through beta_{count-1} and gamma_{count-1}: the pivots of J(rec) - z I = L U when
    first = beta_0 - z. The list stops after its first zero."""
    beta, gamma = rec.beta, rec.gamma
    k = [None, first]
    for n in range(1, count):
        if not k[n]:
            break
        k.append(beta[n] - z - gamma[n - 1] / k[n])
    return k


def _christoffel_step(rec: RecurrencePair, d: list, tail) -> RecurrenceReport:
    """The recurrence of u = (1 + x) f from f's beta_0..beta_top, gamma_1..gamma_{top+1} (a
    missing gamma_{top+1} reads as 0), the pivots d = [d_0, ..., d_top] of J(f) + I = L U
    (``_pivots`` at z = -1, from d_0 = beta_0 + 1, up to and including a first zero) and
    tail = gamma_{top+1} (beta_{top+1} + 1), as ``recurrence_from_moments`` reports u's
    mu_0..mu_{2 top + 2}: J(u) + I = U L, so beta^u_n = d_n + gamma_{n+1} / d_n - 1 and
    gamma^u_n = gamma_n d_n / d_{n-1} (Bueno and Marcellan, Linear Algebra Appl. 384 (2004)).
    A zero d_n is u's first zero Hankel determinant, where it stops; d_{top+1} enters only as
    gamma_{top+1} d_{top+1}, from tail."""
    top = len(rec.beta) - 1
    g = (0,) + rec.gamma + (0,) * (top + 1 - len(rec.gamma))  # g[n] is gamma_n
    ub, ug = [], []
    for n in range(top + 1):
        if d[n] == 0:
            return RecurrenceReport(RecurrencePair._exact(ub, ug), n, n)
        if n:
            ug.append(g[n] * d[n] / d[n - 1])
        ub.append(d[n] + g[n + 1] / d[n] - 1)
    last = tail - g[top + 1] * g[top + 1] / d[top]  # gamma_{top+1} d_{top+1}
    if last == 0:
        return RecurrenceReport(RecurrencePair._exact(ub, ug), top + 1, top + 1)
    ug.append(last / d[top])
    return RecurrenceReport(RecurrencePair._exact(ub, ug), None, top + 1)


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
    lcm = math.lcm
    for n in range(1, top + 1):
        # e_n and f_n as unreduced pairs over the lcm of their terms' denominators
        ed = lcm(sd[n], ad[n])
        e = s[n] * (ed // sd[n]) - an[n] * (ed // ad[n])
        d1 = ed * ad[n - 1]
        fd = lcm(td[n], d1)
        f = t[n] * (fd // td[n]) - e * an[n - 1] * (fd // d1)
        L = lcm(ld[n], rd[n], bd[n], ed)
        if ln[n] * (L // ld[n]) + r[n] * (L // rd[n]) - bn[n] * (L // bd[n]) != e * (L // ed):
            return n
        d1, d2 = rd[n] * ld[n - 1], ed * bd[n - 1]
        L = lcm(d1, d2, fd)
        if r[n] * ln[n - 1] * (L // d1) - e * bn[n - 1] * (L // d2) != f * (L // fd):
            return n
        if f and not same[n - 2]:  # f_1 = 0
            return n
    return None


def _certify_relation(rel: Relation23, ladders: tuple, u_rec: RecurrencePair, depth: int,
                      q_rec: RecurrencePair):
    """Certify, on recurrences only, a relation composed from the certified
    ``ladders`` (a, b, l) between the MOPS (P_n) of ``u_rec`` and the family
    (Q_n) of ``q_rec``: the 2-3 identity, both checkers' verdicts, the
    induced recurrence against ``q_rec`` and the constancy triple against the
    closed-form constants, which it returns with the two verdicts."""
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
    return verdict_eq, verdict_ct, constants


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
            # true by construction; kept since GOLDEN, WINDOW_EDGES and perfbench pin the bytes
            "moment_identity_ok": True,
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

    # u = delta_1 - (ratio / 3) x w3 with w3 of the third kind: orthogonality of P_2
    # fixes ratio = 3/2 at every depth, and the 2-2 ladder certificate below fails
    # for any other ratio
    w3 = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[3]), 2 * depth + 7)
    u = w3.left_multiply(Polynomial([0, -HALF])).add_point_mass(1, 1).normalized()

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
    verdict_eq, verdict_ct, constants = _certify_relation(rel, (a, b, lam), u_rec, depth,
                                                          fourth_rec)
    # u (point mass plus third kind) and v (fourth kind) come from independent
    # Pearson sweeps, so the functional identity on their moments is a check:
    # v_moments_from_relation builds v_{n+2} from it for every n <= u.depth - 2
    v = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[4]), u.depth)
    recovered = v_moments_from_relation(u, constants, verdict_eq.induced.beta[0])
    _certify(
        recovered == v,
        "moments recovered from the functional identity differ from the second family's",
    )

    regularity = regularity_criterion(u_rec, 1, rel, depth)
    r, s, t = rel.r, rel.s, rel.t
    odd_ok = all(t[n] == r[n] * (s[n - 1] - r[n - 1]) for n in range(3, depth + 1, 2))

    return ChebyshevCaseReport(
        depth=depth,
        point_mass_ratio=Fraction(3, 2),
        a_seq=tuple(a),
        b_seq=tuple(b),
        lambda_seq=tuple(lam),
        rel=rel,
        u_rec=RecurrencePair._exact(u_rec.beta[: depth + 2], u_rec.gamma[: depth + 2]),
        q_rec=fourth_rec,
        verdict_equations=verdict_eq,
        verdict_constants=verdict_ct,
        constants=constants,
        regularity=regularity,
        # <u, x - 1> = -(mu_2 - mu_1) / 2 of w3 = 0, the first moment of (x - 1) u: its
        # first Hankel determinant vanishes
        shifted_hankel=RecurrenceReport(RecurrencePair((), ()), 0, 0),
        odd_index_identity=odd_ok,
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
    regularity: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {
            "case": "jacobi-chain",
            "ok": self.ok,
            "failure": self.failure,
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
            # true by construction; kept since GOLDEN, WINDOW_EDGES and perfbench pin the bytes
            "moment_identity_ok": True,
            "regularity_criterion": list(self.regularity),
            "norm_link_ok": True,
        })
        return out

    def to_csv(self) -> list:
        if not self.ok:
            return [["failure", "n"], list(self.failure)]
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
    # one Jacobi recurrence, read through top (gamma through top + 1), serves the
    # ladders and the lifts. The report keeps u's and v's beta through top and gamma
    # through top + 1, as the Hankel sweep over u's moments mu_0..mu_{2 top + 2}
    # would: the lifts take a_n, c_n through top + 1
    w_rec = jacobi_recurrence(params, top + 2)
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

    # the coefficient ladders run the pivot recursions of J(w) - I and J(w) + I from the
    # free a_1, c_1: a zero below top is a breakdown (the chain functional is not regular
    # there), a's before c's at one n, and one at top the lifts' verdict
    a_seq, c_seq = _pivots(w_rec, 1, a1, top + 1), _pivots(w_rec, -1, c1, top + 1)
    n, name = min((len(a_seq) - 1, "a"), (len(c_seq) - 1, "c"))
    if n < top:
        return fail(f"{name}_recursion_breakdown", n)
    for n in range(1, top + 1):
        if a_seq[n] == c_seq[n]:
            return fail("link_coefficients_equal", n)

    # v and w~ are the ladders Q_n = W_n + c_n W_{n-1} and W~_n = W_n + a_n W_{n-1},
    # and u = (1 + x) w~. w~'s lift ends at beta~_k (k = top, or top - 1 at a zero a_top);
    # by a_{k+1} a_{k+2} = a_{k+1} (beta_{k+1} - 1) - gamma_{k+1}, gamma~_{k+1} (beta~_{k+1}
    # + 1) needs no a_{k+2}, so a zero a_{k+1} divides by nothing
    v_report, wt_report = (_ladder_lift(w_rec, seq, top + 1) for seq in (c_seq, a_seq))
    wt_rec = wt_report.rec
    k = len(wt_rec.beta) - 1
    tail = w_rec.gamma[k - 1] / a_seq[k] * (a_seq[k + 1] * (a_seq[k + 1] + 2) + w_rec.gamma[k])
    d = _pivots(wt_rec, -1, wt_rec.beta[0] + 1, k + 1)[1:]
    reports = (("u", _christoffel_step(wt_rec, d, tail)), ("v", v_report),
               ("w_tilde", wt_report))
    for name, report in reports:
        if report.first_vanishing is not None and report.first_vanishing <= depth + 2:
            return fail(f"{name}_not_regular", report.first_vanishing)
    u_rec, v_rec = (report.rec for _, report in reports[:2])
    a_seq, c_seq = a_seq[: top + 1], c_seq[: top + 1]

    # W~_n = P_n + b_n P_{n-1} is the L factor of J(w~) + I = L U: b_n = gamma~_n / d_{n-1},
    # d_0..d_top all nonzero here
    b_seq = [None] + [g / p for g, p in zip(wt_rec.gamma[:top], d)]

    # the lifts give the up-link and the second-family link; the down-link
    # W~_n = P_n + b_n P_{n-1} ties w~ to u (and W_n + a_n W_{n-1} to P_n + b_n P_{n-1})
    n = _ladder_break(wt_rec, u_rec, [0] * (top + 1), b_seq, top)
    _certify(n is None, f"down-link identity fails at n={n}")

    rel = compose_ladders(b_seq, a_seq, c_seq)
    verdict_eq, verdict_ct, constants = _certify_relation(rel, (b_seq, a_seq, c_seq), u_rec,
                                                          depth, v_rec)
    # u_mass (x - 1) u = -(1 + x) w and v_mass (x + 1)^2 v = (1 + x) w for every w, so
    # lambda (x - 1) u = (x + 1)^2 v holds exactly at these constants
    _certify(constants == FunctionalRelation(-u_mass / v_mass, 1, 2, 1),
             "functional relation constants differ from (-u_mass / v_mass, 1, 2, 1)")

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
        u_rec=RecurrencePair._exact(u_rec.beta[: depth + 3], u_rec.gamma[: depth + 3]),
        v_rec=RecurrencePair._exact(v_rec.beta[: depth + 3], v_rec.gamma[: depth + 3]),
        u_mass=u_mass,
        v_mass=v_mass,
        verdict_equations=verdict_eq,
        verdict_constants=verdict_ct,
        constants=constants,
        regularity=regularity,
    )


def half_case_closed_forms(a1, count: int) -> tuple[list, list]:
    """Closed forms for the chain ladders at alpha = beta = 1/2 with
    c_1 = -a_1: lists a[1..count], b[1..count] (index 0 is None).

    The admissible parameter set excludes a1 in (-1/2, 0] and a1 = +-1,
    which holds every zero of a denominator: 1 - w (n - 1) vanishes only at
    a1 = (2 - n) / (2 (n - 1)) and (2 n + 1)(1 + a1) - w n (n + 1) only at
    a1 = (1 + n - n^2) / (2 n^2 - 1), that is at a1 = 1 or inside (-1/2, 0].
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
        a[n] = -HALF * (1 - w * n) / (1 - w * (n - 1))
        b[n] = (-a[n] * ((2 * n - 1) * (1 + a1) - w * (n - 1) * n)
                / ((2 * n + 1) * (1 + a1) - w * n * (n + 1)))
    return a, b
