"""Two fully worked constructions that exercise the whole pipeline, both
calls of one builder.

``_spectral_chain`` starts from a regular functional w, given by its
recurrence, and three points z1, c, z2 (c != z2). It performs two linear
divisions, v = w / (x - z1) with a free mass attached to a coefficient c_1
and w~ = w / (x - c) with one attached to a_1, and one left multiplication,
u = (x - z2) w~; then lambda (x - c) u = (x - z1)(x - z2) v for every w. v
and w~ are 1-2 ladders over w, whose recurrences are lifted from w's
(``_ladder_lift``), and u is a Christoffel transform of w~, whose recurrence
follows from w~'s by one LU step (``_christoffel_step``). It builds no
moment and computes no norm: the a- and c-ladders and u's step are the
pivots of one LU recursion (``functional._pivots``) of J(w) - c I, J(w) - z1 I
and J(w~) - z2 I, whose zeros decide the regularity of v, w~ and u, and the
down-link coefficient b_n is the L factor gamma~_n / d_{n-1} of the last. v's
recurrence is lifted only when no second family stands in for it. It
derives the 2-3 relation linking the MOPS of u and v, certifies on
recurrences the identities the lifts do not give and the orthogonality
verdicts, and pins the functional relation by its constants
(lambda, c, a, b) = (-u_mass / v_mass, c, -(z1 + z2), z1 z2).

``jacobi_chain`` is the builder over a Jacobi functional w at
(z1, c, z2) = (-1, 1, -1). ``chebyshev_case`` is the builder over the
second-kind Chebyshev functional at (z1, c, z2) = (-1, 1, 0) with
a_1 = -3/2 and c_1 = 1/2: u is then a point mass at 1 plus a weighted left
multiple of the third-kind functional, and v is of the fourth kind. Its
twist: (x - 1) u is not regular even though the relation is non-degenerate
and (Q_n) is orthogonal.

Every identity asserted here is certified by exact computation, in time
linear in the depth and without building a polynomial family: the 1-2
ladder W~_n = P_n + b_n P_{n-1} of the down-link on the recurrences
(``_ladder_break``), the 2-3 identity on the ladders of its composition
(``_relation_break``), both on unreduced integer parts. An internal
mismatch raises ContractError naming the first violated identity.
The Chebyshev case also certifies the functional identity on moments; they
come from the Pearson equation (``jacobi_moments``), in time linear in the
depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ContractError, DepthError, DomainError
from .families import (
    _CHEBYSHEV_PARAMS,
    JacobiParams,
    chebyshev_kind,
    jacobi_moments,
    jacobi_recurrence,
)
from .functional import RecurrencePair, RecurrenceReport, _pivots
from .poly import Polynomial
from .rational import _parts, _reduce_pairs, as_scalar
from .relation23 import (
    Failure,
    FunctionalRelation,
    InverseVerdict,
    Relation23,
    RelationTag,
    _index_condition,
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


def _ladder_break(p_rec: RecurrencePair, r_rec: RecurrencePair, k, top: int) -> Optional[int]:
    """The first n <= top at which the 1-2 ladder P_n = R_n + k_n R_{n-1} fails, or
    None, for the monic families of ``p_rec`` (beta_n, gamma_n) and ``r_rec``
    (beta^R_n, gamma^R_n), read through index top - 1, and k = [unused, k_1, ...,
    k_top]. No polynomial is built.

    With k_0 = gamma_0 = 0 the ladder holds at n = 1 exactly when
    beta_0 + k_1 = beta^R_0. If it holds through n, P's recurrence and R's give
    P_{n+1} = R_{n+1} + (beta^R_n + k_n - beta_n) R_n + (gamma^R_n + k_n beta^R_{n-1}
    - k_n beta_n - gamma_n) R_{n-1} + (k_n gamma^R_{n-1} - gamma_n k_{n-1}) R_{n-2}.
    So it holds at n + 1 exactly when beta^R_n + k_n - k_{n+1} = beta_n,
    gamma^R_n + k_n (beta^R_{n-1} - beta_n) = gamma_n and k_n gamma^R_{n-1} =
    gamma_n k_{n-1}: the first failing step is the first failing n."""
    p_rec.require(top - 1, top - 1)
    r_rec.require(top - 1, top - 1)
    # gamma_0 = k_0 = 0 pad the lists, so g[n] is gamma_n
    (bp, bpd), (br, brd) = (_parts(rec.beta[:top]) for rec in (p_rec, r_rec))
    (gp, gpd), (gr, grd) = (_parts((0,) + rec.gamma[: top - 1]) for rec in (p_rec, r_rec))
    kn, kd = _parts([0, *k[1 : top + 1]])
    # beta_0 + k_1 = beta^R_0 by cross-multiplication
    if (bp[0] * kd[1] + kn[1] * bpd[0]) * brd[0] != br[0] * bpd[0] * kd[1]:
        return 1
    lcm = math.lcm
    for n in range(1, top):
        # each condition over the lcm of its terms' denominators
        L = lcm(brd[n], kd[n], kd[n + 1], bpd[n])
        if (br[n] * (L // brd[n]) + kn[n] * (L // kd[n]) - kn[n + 1] * (L // kd[n + 1])
                != bp[n] * (L // bpd[n])):
            return n + 1
        d1, d2 = kd[n] * brd[n - 1], bpd[n] * kd[n]
        L = lcm(grd[n], d1, d2, gpd[n])
        if (gr[n] * (L // grd[n]) + kn[n] * (br[n - 1] * (L // d1) - bp[n] * (L // d2))
                != gp[n] * (L // gpd[n])):
            return n + 1
        # k_n gamma^R_{n-1} = gamma_n k_{n-1} by cross-multiplication
        if kn[n] * gr[n - 1] * gpd[n] * kd[n - 1] != gp[n] * kn[n - 1] * kd[n] * grd[n - 1]:
            return n + 1
    return None


def _ladder_lift(low: RecurrencePair, k, top: int) -> RecurrenceReport:
    """The recurrence of the MOPS U_n = L_n + k_n L_{n-1} from L's, read through
    top - 1 >= 1, and k = [unused, k_1 != 0, ..., k_top] (the conditions of
    ``_ladder_break`` solved for U), as ``recurrence_from_moments`` reports U's mu_0..mu_{2 top}:
    a zero k_m is the first zero gamma^U_m = k_m gamma_{m-1} / k_{m-1}, where it stops
    (beta^U and gamma^U through m - 1)."""
    beta, g = low.beta, (0,) + low.gamma  # g[n] is gamma_n
    m = next((n for n in range(2, top + 1) if k[n] == 0), None)
    n_beta, n_gamma = (top, top) if m is None else (m, m - 1)
    ub = [beta[0] - k[1]] + [beta[n] + k[n] - k[n + 1] for n in range(1, n_beta)]
    ug = [g[1] + k[1] * (beta[0] - ub[1])]
    ug += [k[n] * g[n - 1] / k[n - 1] for n in range(2, n_gamma + 1)]
    return RecurrenceReport(RecurrencePair._exact(ub, ug), m)


def _christoffel_step(rec: RecurrencePair, d: list, tail, z) -> RecurrenceReport:
    """The recurrence of u = (x - z) f from f's beta_0..beta_top, gamma_1..gamma_{top+1} (a
    missing gamma_{top+1} reads as 0), the pivots d = [d_0, ..., d_top] of J(f) - z I = L U
    (``_pivots`` at z, from d_0 = beta_0 - z, up to and including a first zero) and
    tail = gamma_{top+1} (beta_{top+1} - z), as ``recurrence_from_moments`` reports u's
    mu_0..mu_{2 top + 2}: J(u) - z I = U L, so beta^u_n = d_n + gamma_{n+1} / d_n + z and
    gamma^u_n = gamma_n d_n / d_{n-1} (Bueno and Marcellan, Linear Algebra Appl. 384 (2004)).
    A zero d_n is u's first zero Hankel determinant, where it stops; d_{top+1} enters only as
    gamma_{top+1} d_{top+1}, from tail."""
    top = len(rec.beta) - 1
    g = (0,) + rec.gamma + (0,) * (top + 1 - len(rec.gamma))  # g[n] is gamma_n
    ub, ug = [], []
    for n in range(top + 1):
        if d[n] == 0:
            return RecurrenceReport(RecurrencePair._exact(ub, ug), n)
        if n:
            ug.append(g[n] * d[n] / d[n - 1])
        ub.append(d[n] + g[n + 1] / d[n] + z)
    last = tail - g[top + 1] * g[top + 1] / d[top]  # gamma_{top+1} d_{top+1}
    if last == 0:
        return RecurrenceReport(RecurrencePair._exact(ub, ug), top + 1)
    ug.append(last / d[top])
    return RecurrenceReport(RecurrencePair._exact(ub, ug), None)


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
    (r, rd), (s, sd), (t, td) = rel._integers()  # t_1 = 0 multiplies no P_{-1}
    (an, ad), (bn, bd), (ln, ld) = (_parts([0, *seq[1 : top + 1]]) for seq in (a, b, l))
    # same[m] is P_m = R_m, by the 2-2 ladder through m: P_m - R_m = b_m R_{m-1} - a_m P_{m-1}
    same = [True]
    for m in range(1, top + 1):
        same.append(a[m] == b[m] and (not a[m] or same[-1]))
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


class _Chain(NamedTuple):
    """A certified chain: the ladders W~_n = W_n + a_n W_{n-1} = P_n + b_n P_{n-1} and
    Q_n = W_n + c_n W_{n-1} through top = depth + 2 (index 0 is None) and what they give,
    under the names and in the order of ``JacobiChainReport``'s fields."""

    a_seq: tuple
    b_seq: tuple
    c_seq: tuple
    rel: Relation23
    u_rec: RecurrencePair
    v_rec: RecurrencePair
    u_mass: Fraction
    v_mass: Fraction
    verdict_equations: InverseVerdict
    verdict_constants: InverseVerdict
    constants: FunctionalRelation
    regularity: tuple


def _spectral_chain(w_rec: RecurrencePair, z1, c, z2, a1, c1, depth: int,
                    q_rec: Optional[RecurrencePair]):
    """The chain v = w / (x - z1), w~ = w / (x - c), u = (x - z2) w~ over the w of
    ``w_rec`` (read through beta_{depth+2} and gamma_{depth+3}), with first ladder
    coefficients a_1 and c_1, certified through ``depth`` (the induced recurrence against
    ``q_rec``, v's recurrence if given, which then stands in for v's lift, or against the
    lift when it is None): a ``_Chain``, or the ``Failure`` of the first condition that
    does not hold. c = z2 is refused: u is then w."""
    if c == z2:
        raise DomainError(f"c and z2 must differ: u = (x - {z2}) w / (x - {c}) is w")
    top = depth + 2
    beta0 = w_rec.beta[0]
    if a1 == 0:
        return Failure("a1 must be nonzero", None)
    if c1 == 0:
        return Failure("c1 must be nonzero", None)
    mass_up = c - beta0 + a1
    if mass_up == 0:
        return Failure("w_tilde_mass", None)
    u_mass = (beta0 - a1 - z2) / mass_up
    if u_mass == 0:
        return Failure("u_mass", None)
    v_denom = beta0 - c1 - z1
    if v_denom == 0:
        return Failure("v_mass", None)
    v_mass = 1 / v_denom

    # the coefficient ladders run the pivot recursions of J(w) - c I and J(w) - z1 I from
    # the free a_1, c_1: a zero below top is a breakdown (the chain functional is not
    # regular there), a's before c's at one n, and one at top the lifts' verdict
    a_seq, c_seq = _pivots(w_rec, c, a1, top + 1), _pivots(w_rec, z1, c1, top + 1)
    n, name = min((len(a_seq) - 1, "a"), (len(c_seq) - 1, "c"))
    if n < top:
        return Failure(f"{name}_recursion_breakdown", n)
    for n in range(1, top + 1):
        if a_seq[n] == c_seq[n]:
            return Failure("link_coefficients_equal", n)

    # v and w~ are the ladders Q_n = W_n + c_n W_{n-1} and W~_n = W_n + a_n W_{n-1}: with
    # every earlier pivot nonzero, a zero c_top or a_top is their first zero gamma, at top.
    # v's recurrence is lifted only when no q_rec stands in for it. The report keeps u's and
    # v's beta through top and gamma through top + 1, as the Hankel sweep over u's moments
    # mu_0..mu_{2 top + 2} would: the lifts take a_n, c_n through top + 1. w~'s lift ends at
    # beta~_k (k = top, or top - 1 at a zero a_top); by a_{k+1} a_{k+2} = a_{k+1}
    # (beta_{k+1} - c) - gamma_{k+1}, the tail gamma~_{k+1} (beta~_{k+1} - z2) needs no
    # a_{k+2}, so a zero a_{k+1} divides by nothing
    v_rec = q_rec
    if q_rec is None:
        v_rec = _ladder_lift(w_rec, c_seq, top + 1).rec
    wt_rec = _ladder_lift(w_rec, a_seq, top + 1).rec
    k = len(wt_rec.beta) - 1
    tail = w_rec.gamma[k - 1] / a_seq[k] * (a_seq[k + 1] * (a_seq[k + 1] + c - z2)
                                            + w_rec.gamma[k])
    d = _pivots(wt_rec, z2, wt_rec.beta[0] - z2, k + 1)[1:]
    u_report = _christoffel_step(wt_rec, d, tail, z2)
    n = u_report.first_vanishing
    if n is not None and n <= top:
        return Failure("u_not_regular", n)
    for name, seq in (("v", c_seq), ("w_tilde", a_seq)):
        if seq[top] == 0:
            return Failure(f"{name}_not_regular", top)
    u_rec = u_report.rec
    a_seq, c_seq = tuple(a_seq[: top + 1]), tuple(c_seq[: top + 1])

    # W~_n = P_n + b_n P_{n-1} is the L factor of J(w~) - z2 I = L U: b_n = gamma~_n / d_{n-1},
    # d_0..d_top all nonzero here
    b_seq = (None, *[g / p for g, p in zip(wt_rec.gamma[:top], d)])

    # the lifts give the up-link and the second-family link; the down-link, the 1-2
    # ladder W~_n = P_n + b_n P_{n-1}, ties w~ to u (and W_n + a_n W_{n-1} to P_n + b_n P_{n-1})
    n = _ladder_break(wt_rec, u_rec, b_seq, top)
    _certify(n is None, f"down-link identity fails at n={n}")

    # the relation composed from the certified ladders, certified on recurrences only: the
    # 2-3 identity, both checkers' verdicts, the induced recurrence against the second
    # family and the constancy triple against the closed-form constants
    rel = compose_ladders(b_seq, a_seq, c_seq)
    n = _relation_break(rel, b_seq, a_seq, c_seq)
    _certify(n is None, f"2-3 relation fails as a polynomial identity at n={n}")
    _, verdict_eq, verdict_ct = check_both(u_rec, rel, depth)
    _certify(verdict_eq.is_mops, "equation checker rejects the generated family")
    _certify(verdict_ct.is_mops, "constancy checker rejects the generated family")
    _certify(
        verdict_eq.induced.beta[: depth + 1] == v_rec.beta[: depth + 1]
        and verdict_eq.induced.gamma[:depth] == v_rec.gamma[:depth],
        "induced recurrence does not match the second family",
    )
    constants = relation_constants(u_rec, rel)
    _certify(
        verdict_ct.constants == (constants.a, constants.b, constants.c),
        "constancy triple disagrees with the closed-form constants",
    )
    # u_mass (x - c) u = -(x - z2) w and v_mass (x - z1) v = w for every w, as (x - c) and
    # (x - z1) annihilate the free masses, so lambda (x - c) u = (x - z1)(x - z2) v holds
    # exactly at these constants
    a, b = -(z1 + z2), z1 * z2
    _certify(constants == FunctionalRelation(-u_mass / v_mass, c, a, b),
             f"functional relation constants differ from (-u_mass / v_mass, {c}, {a}, {b})")

    return _Chain(a_seq, b_seq, c_seq, rel, u_rec, v_rec, u_mass, v_mass, verdict_eq,
                  verdict_ct, constants, regularity_criterion(u_rec, c, rel, depth))


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


def chebyshev_case(depth: int) -> ChebyshevCaseReport:
    if depth < 5:
        raise DepthError("chebyshev_case needs depth >= 5")
    # (1 + x) times the fourth-kind weight is the second kind's, so v is of the fourth kind;
    # x w~ = x (w / (x - 1) + M delta_1) is delta_1 - (1/2) x w3 up to normalization
    fourth_rec = chebyshev_kind(4, depth + 4)
    chain = _spectral_chain(chebyshev_kind(2, depth + 4), -1, 1, 0, Fraction(-3, 2), HALF,
                            depth, fourth_rec)
    if isinstance(chain, Failure):
        _certify(False, f"the chain over the second kind fails {chain.condition} at n={chain.n}")

    # u = delta_1 - (ratio / 3) x w3 with w3 of the third kind: orthogonality of P_2
    # fixes ratio = 3/2 at every depth. u (point mass plus third kind) and v (fourth kind)
    # come from independent Pearson sweeps, so the functional identity on their moments is
    # a check: v_moments_from_relation builds v_{n+2} from it for every n <= u.depth - 2.
    # It fixes (x - 1) u, and so u, which has mu_0 = 1: the chain's u, whose relation the
    # checkers certified with Q of the fourth kind, obeys the same identity at the same
    # constants
    w3 = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[3]), 2 * depth + 7)
    u = w3.left_multiply(Polynomial([0, -HALF])).add_point_mass(1, 1).normalized()
    v = jacobi_moments(JacobiParams(*_CHEBYSHEV_PARAMS[4]), u.depth)
    recovered = v_moments_from_relation(u, chain.constants,
                                        chain.verdict_equations.induced.beta[0])
    _certify(
        recovered == v,
        "moments recovered from the functional identity differ from the second family's",
    )

    rel = chain.rel
    parts = rel._integers()
    odd_ok = all(_index_condition(parts, n) for n in range(3, depth + 1, 2))

    return ChebyshevCaseReport(
        depth=depth,
        point_mass_ratio=Fraction(3, 2),
        a_seq=chain.b_seq,
        b_seq=chain.a_seq,
        lambda_seq=chain.c_seq,
        rel=rel,
        u_rec=RecurrencePair._exact(chain.u_rec.beta[: depth + 2],
                                    chain.u_rec.gamma[: depth + 2]),
        q_rec=fourth_rec,
        verdict_equations=chain.verdict_equations,
        verdict_constants=chain.verdict_constants,
        constants=chain.constants,
        regularity=chain.regularity,
        # <u, x - 1> = -(mu_2 - mu_1) / 2 of w3 = 0, the first moment of (x - 1) u: its
        # first Hankel determinant vanishes
        shifted_hankel=RecurrenceReport(RecurrencePair((), ()), 0),
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
    head = (params.alpha, params.beta, a1, c1, depth)
    chain = _spectral_chain(jacobi_recurrence(params, depth + 4), -1, 1, -1, a1, c1, depth,
                            None)
    if isinstance(chain, Failure):
        return JacobiChainReport(False, chain, *head)
    return JacobiChainReport(True, None, *head, **chain._asdict())


def half_case_closed_forms(a1, count: int) -> tuple[list, list]:
    """Closed forms for the chain ladders at alpha = beta = 1/2 with
    c_1 = -a_1: lists a[1..count], b[1..count] (index 0 is None).

    The admissible parameter set excludes a1 in (-1/2, 0] and a1 = +-1,
    which holds every zero of a denominator: 1 - w (n - 1) vanishes only at
    a1 = (2 - n) / (2 (n - 1)) and (2 n + 1)(1 + a1) - w n (n + 1) only at
    a1 = (1 + n - n^2) / (2 n^2 - 1), that is at a1 = 1 or inside (-1/2, 0].
    """
    if count < 1:
        raise DepthError("count must be >= 1")
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
