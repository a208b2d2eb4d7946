"""Two fully worked constructions that exercise the whole pipeline, both
calls of one builder.

``_spectral_chain`` starts from a regular functional w, given by its
recurrence, and three points z1, c, z2 (c != z2). It performs two linear
divisions, v = w / (x - z1) with a free mass attached to a coefficient c_1
and w~ = w / (x - c) with one attached to a_1, and one left multiplication,
u = (x - z2) w~; then lambda (x - c) u = (x - z1)(x - z2) v for every w. All
three are one Darboux step (``functional._darboux``): J - z I = U L read as
L U + z I. v and w~ are its Geronimus reading over w, with the free first
pivots c_1 and a_1, and u its Christoffel reading over w~. It builds no
moment and computes no norm: the c- and a-ladders and u's pivots are the
LU pivots (``functional._pivots``) of J(w) - z1 I, J(w) - c I and
J(w~) - z2 I, whose zeros decide the regularity of v, w~ and u, and the
down-link coefficient b_n is the L factor gamma~_n / d_{n-1} of the last.
v's recurrence is built only when no second family stands in for it. It
derives the 2-3 relation linking the MOPS of u and v, certifies on
recurrences the identities the steps do not give and the orthogonality
verdicts, and pins the functional relation by its constants
(lambda, c, a, b) = (-u_mass / v_mass, c, -(z1 + z2), z1 z2).

``jacobi_chain`` is the builder over a Jacobi functional w at
(z1, c, z2) = (-1, 1, -1). ``chebyshev_case`` is the builder over the
second-kind Chebyshev functional at (z1, c, z2) = (-1, 1, 0) with
a_1 = -3/2 and c_1 = 1/2: u is then a point mass at 1 plus a weighted left
multiple of the third-kind functional, and v is of the fourth kind. Its
twist: (x - 1) u is not regular even though the relation is non-degenerate
and (Q_n) is orthogonal.

Each report field is declared once. ``JacobiChainReport`` extends the
builder's ``_Chain`` by the run's parameters and its failure, and ``ok`` is
read off the failure; a failed report keeps the chain's empty defaults. The
Chebyshev report keeps the case's constants, the point-mass ratio and the
empty report of (x - 1) u, on the class.

The chain runs on integer parts. The pivots, the ladders a_n, b_n, c_n and
every recurrence and relation it builds are reduced (numerators,
denominators) pairs, each entry reduced as ``fractions`` reduces a sum or a
product (``rational._sum``, ``_product``, ``_quotient``), and a Fraction is
built only for a value the report carries, once: the ladders here, the
models' entries when their Fraction views are read (the ``to_csv()``
table does; ``to_json()`` puts the models themselves in the tree).

Every identity asserted here is certified by exact computation, in time
linear in the depth and without building a polynomial family: the 1-2
ladder W~_n = P_n + b_n P_{n-1} of the down-link on the recurrences
(``_ladder_break``), the 2-3 identity on the ladders of its composition
(``_relation_break``), both on those parts, and the induced recurrence
against v's on parts. An internal mismatch raises ContractError naming the
first violated identity.
The Chebyshev case also certifies the functional identity on moments; they
come from the Pearson equation (``jacobi_moments``), in time linear in the
depth.
"""

from __future__ import annotations

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
from .functional import RecurrencePair, RecurrenceReport, _darboux, _pivots
from .poly import Polynomial
from .rational import _columns, _product, _quotient, _reduce_pairs, _sum, as_scalar
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


def _ladder_break(p_rec: RecurrencePair, r_rec: RecurrencePair, k: tuple,
                  top: int) -> Optional[int]:
    """The first n <= top at which the 1-2 ladder P_n = R_n + k_n R_{n-1} fails, or
    None, for the monic families of ``p_rec`` (beta_n, gamma_n) and ``r_rec``
    (beta^R_n, gamma^R_n), read through index top - 1, and k = (nums, dens) the reduced
    parts of k_0 = 0, k_1, ..., k_top. No polynomial is built.

    With k_0 = gamma_0 = 0 the ladder holds at n = 1 exactly when
    beta_0 + k_1 = beta^R_0. If it holds through n, P's recurrence and R's give
    P_{n+1} = R_{n+1} + (beta^R_n + k_n - beta_n) R_n + (gamma^R_n + k_n beta^R_{n-1}
    - k_n beta_n - gamma_n) R_{n-1} + (k_n gamma^R_{n-1} - gamma_n k_{n-1}) R_{n-2}.
    So it holds at n + 1 exactly when beta^R_n + k_n - k_{n+1} = beta_n,
    gamma^R_n + k_n (beta^R_{n-1} - beta_n) = gamma_n and k_n gamma^R_{n-1} =
    gamma_n k_{n-1}: the first failing step is the first failing n."""
    p_rec.require(top - 1, top - 1)
    r_rec.require(top - 1, top - 1)
    ((bp, bpd), (gp, gpd)), ((br, brd), (gr, grd)) = p_rec._integers(), r_rec._integers()
    kn, kd = k
    # each condition as one reduced side against the other; gamma_0 = k_0 = 0
    if _sum(bp[0], bpd[0], kn[1], kd[1]) != (br[0], brd[0]):
        return 1
    for n in range(1, top):
        if _sum(*_sum(br[n], brd[n], kn[n], kd[n]), -kn[n + 1], kd[n + 1]) != (bp[n], bpd[n]):
            return n + 1
        x = _product(kn[n], kd[n], *_sum(br[n - 1], brd[n - 1], -bp[n], bpd[n]))
        if _sum(gr[n - 1], grd[n - 1], *x) != (gp[n - 1], gpd[n - 1]):
            return n + 1
        # k_n gamma^R_{n-1} = gamma_n k_{n-1} by cross-multiplication
        if n > 1 and (kn[n] * gr[n - 2] * gpd[n - 1] * kd[n - 1]
                      != gp[n - 1] * kn[n - 1] * kd[n] * grd[n - 2]):
            return n + 1
    return None


def _relation_break(rel: Relation23, a: tuple, b: tuple, l: tuple) -> Optional[int]:
    """The first n <= rel.max_index at which Q_n + r_n Q_{n-1} = P_n
    + s_n P_{n-1} + t_n P_{n-2} fails, or None, given the ladders P_n + a_n
    P_{n-1} = R_n + b_n R_{n-1} and Q_n = R_n + l_n R_{n-1}, each as the reduced parts
    (nums, dens) of a_0 = 0, a_1, ... With e_n = s_n - a_n, g_n = r_n l_{n-1} - e_n b_{n-1}
    and f_n = t_n - e_n a_{n-1}, Q's side less P's is (l_n + r_n - b_n - e_n) R_{n-1}
    + g_n R_{n-2} - f_n P_{n-2}: zero exactly when l_n + r_n = b_n + e_n,
    g_n = f_n, and f_n = 0 or P_{n-2} = R_{n-2}. It reads r, s, t as given,
    so it checks ``compose_ladders`` instead of restating it."""
    top = rel.max_index
    (r, rd), (s, sd), (t, td) = rel._integers()  # t_1 = 0 multiplies no P_{-1}
    (an, ad), (bn, bd), (ln, ld) = a, b, l
    # same[m] is P_m = R_m, by the 2-2 ladder through m: P_m - R_m = b_m R_{m-1} - a_m P_{m-1}
    same = [True]
    for m in range(1, top + 1):
        same.append(an[m] == bn[m] and ad[m] == bd[m] and (not an[m] or same[-1]))
    for n in range(1, top + 1):
        e = _sum(s[n], sd[n], -an[n], ad[n])
        en, ed = _product(*e, an[n - 1], ad[n - 1])
        f = _sum(t[n], td[n], -en, ed)
        if _sum(*_sum(ln[n], ld[n], r[n], rd[n]), -bn[n], bd[n]) != e:
            return n
        x, xd = _product(*e, bn[n - 1], bd[n - 1])
        if _sum(*_product(r[n], rd[n], ln[n - 1], ld[n - 1]), -x, xd) != f:
            return n
        if f[0] and not same[n - 2]:  # f_1 = 0
            return n
    return None


@dataclass(frozen=True)
class _Chain:
    """A certified chain: the ladders W~_n = W_n + a_n W_{n-1} = P_n + b_n P_{n-1} and
    Q_n = W_n + c_n W_{n-1} through top = depth + 2 (index 0 is None) and what they give.
    It is the base of ``JacobiChainReport``; a failed report keeps these defaults."""

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


def _spectral_chain(w_rec: RecurrencePair, z1, c, z2, a1, c1, depth: int,
                    q_rec: Optional[RecurrencePair]):
    """The chain v = w / (x - z1), w~ = w / (x - c), u = (x - z2) w~ over the regular w of
    ``w_rec`` (read through beta_{depth+2} and gamma_{depth+3}), with first ladder
    coefficients a_1 and c_1, certified through ``depth`` (the induced recurrence against
    ``q_rec``, v's recurrence if given, which then stands in for v's step, or against the
    step when it is None): a ``_Chain``, or the ``Failure`` of the first condition that
    does not hold. c = z2 is refused: u is then w. So is a zero gamma_n of w, n <= depth + 3,
    by a DomainError that names w and n: w must be regular where the chain reads it.

    The up-links Q_n = W_n + c_n W_{n-1} and W~_n = W_n + a_n W_{n-1} hold by construction of
    the Geronimus steps; the equation checker is their run-time certificate."""
    if c == z2:
        raise DomainError(f"c and z2 must differ: u = (x - {z2}) w / (x - {c}) is w")
    top = depth + 2
    (wbn, wbd), (wgn, wgd) = w_rec._integers()
    if 0 in wgn[: top + 1]:
        raise DomainError(f"w is not regular: its gamma_{wgn.index(0) + 1} is zero, and the "
                          f"chain reads gamma_1..gamma_{top + 1}")
    beta0 = Fraction(wbn[0], wbd[0])
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
    # regular there), a's before c's at one n, and one at top the steps' verdict. Every
    # ladder is a pair of reduced parts (nums, dens) with the pad 0 at index 0
    a_parts, c_parts = _pivots(w_rec, c, a1, top + 1), _pivots(w_rec, z1, c1, top + 1)
    (an, ad), (cn, cd) = a_parts, c_parts
    n, name = min((len(an) - 1, "a"), (len(cn) - 1, "c"))
    if n < top:
        return Failure(f"{name}_recursion_breakdown", n)
    for n in range(1, top + 1):
        if an[n] == cn[n] and ad[n] == cd[n]:
            return Failure("link_coefficients_equal", n)

    # v and w~ are the Geronimus steps of w at z1 and c, with the MOPS Q_n = W_n + c_n W_{n-1}
    # and W~_n = W_n + a_n W_{n-1}: with every earlier pivot nonzero, a zero c_top or a_top is
    # their first zero gamma, at top. v's step runs only when no q_rec stands in for it. The
    # report keeps u's and v's beta through top and gamma through top + 1, as the Hankel
    # sweep over u's moments mu_0..mu_{2 top + 2} would
    v_rec = q_rec
    if q_rec is None:
        (vbn, vbd), v_gamma = _darboux(w_rec, z1, c_parts).rec._integers()
        v_rec = RecurrencePair._from_parts((vbn[: top + 1], vbd[: top + 1]), v_gamma)
    wt = _darboux(w_rec, c, a_parts)
    wt_rec = wt.rec
    (tbn, tbd), (tgn, tgd) = wt_rec._integers()

    # u = (x - z2) w~ is the Christoffel step, rows 1.. of the kernel on the pivots d_0 =
    # beta~_0 - z2, d_1, ... of J(w~) - z2 I (d[n + 1] is d_n); a zero d_n is u's first zero
    # Hankel determinant, at n
    d = _pivots(wt_rec, z2, Fraction(tbn[0], tbd[0]) - z2, len(tbn))
    dn, dd = d
    step = _darboux(wt_rec, z2, d)
    n = step.first_vanishing
    if n is not None and n <= top + 1:
        return Failure("u_not_regular", n - 1)
    for name, nums in (("v", cn), ("w_tilde", an)):
        if nums[top] == 0:
            return Failure(f"{name}_not_regular", top)
    (ubn, ubd), (ugn, ugd) = step.rec._integers()
    ugn, ugd = ugn[1:], ugd[1:]
    if wt.first_vanishing is not None:
        # a zero a_{k+1} ends w~ at k = top: gamma~_{k+1} = 0 and beta~_{k+1} is a pole, but u's
        # gamma_{k+1} d_k = gamma~_{k+1} (beta~_{k+1} - z2) - gamma~_{k+1}^2 / d_k is
        # (gamma_k / a_k)(a_{k+1} (a_{k+1} + c - z2) + gamma_{k+1}) = gamma_k gamma_{k+1} / a_k
        x = _product(wgn[top - 1], wgd[top - 1], wgn[top], wgd[top])
        x, xd = _quotient(*_quotient(*x, an[top], ad[top]), dn[top + 1], dd[top + 1])
        ugn, ugd = ugn + [x], ugd + [xd]
    u_rec = RecurrencePair._from_parts((ubn[1 : top + 2], ubd[1 : top + 2]), (ugn, ugd))

    # W~_n = P_n + b_n P_{n-1} is the L factor of J(w~) - z2 I = L U: b_n = gamma~_n / d_{n-1},
    # d_0..d_top all nonzero here
    b_parts = _columns([(0, 1)] + [_quotient(tgn[n - 1], tgd[n - 1], dn[n], dd[n])
                                   for n in range(1, top + 1)])
    # the report carries each ladder through top as Fractions, None at index 0
    a_seq, b_seq, c_seq = ((None, *map(Fraction, nums[1 : top + 1], dens[1 : top + 1]))
                           for nums, dens in (a_parts, b_parts, c_parts))

    # the Geronimus readings give the up-link and the second-family link; the down-link,
    # the 1-2 ladder W~_n = P_n + b_n P_{n-1}, ties w~ to u (and W_n + a_n W_{n-1} to
    # P_n + b_n P_{n-1})
    n = _ladder_break(wt_rec, u_rec, b_parts, top)
    _certify(n is None, f"down-link identity fails at n={n}")

    # the relation composed from the certified ladders, certified on recurrences only: the
    # 2-3 identity, both checkers' verdicts, the induced recurrence against the second
    # family and the constancy triple against the closed-form constants
    rel = compose_ladders(b_seq, a_seq, c_seq)
    n = _relation_break(rel, b_parts, a_parts, c_parts)
    _certify(n is None, f"2-3 relation fails as a polynomial identity at n={n}")
    _, verdict_eq, verdict_ct = check_both(u_rec, rel, depth)
    _certify(verdict_eq.is_mops, "equation checker rejects the generated family")
    _certify(verdict_ct.is_mops, "constancy checker rejects the generated family")
    (ibn, ibd), (ign, igd) = verdict_eq.induced._integers()
    (vbn, vbd), (vgn, vgd) = v_rec._integers()
    _certify(
        (ibn[: depth + 1], ibd[: depth + 1]) == (vbn[: depth + 1], vbd[: depth + 1])
        and (ign[:depth], igd[:depth]) == (vgn[:depth], vgd[:depth]),
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
    # constants of the case, not fields: the ratio of u = delta_1 - (ratio / 3) x w3
    # (``chebyshev_case``), and <u, x - 1> = -(mu_2 - mu_1) / 2 of w3 = 0, the first
    # moment of (x - 1) u, so its first Hankel determinant vanishes
    point_mass_ratio = Fraction(3, 2)
    shifted_hankel = RecurrenceReport(RecurrencePair((), ()), 0)

    depth: int
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
    odd_index_identity: bool

    def to_json(self) -> dict:
        return {
            "case": "chebyshev",
            "depth": self.depth,
            "point_mass_ratio": self.point_mass_ratio,
            "a": list(self.a_seq),
            "b": list(self.b_seq),
            "lambda": list(self.lambda_seq),
            "relation": self.rel,
            "u_recurrence": self.u_rec,
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
        a_seq=chain.b_seq,
        b_seq=chain.a_seq,
        lambda_seq=chain.c_seq,
        rel=rel,
        u_rec=RecurrencePair._from_parts(
            *((nums[: depth + 2], dens[: depth + 2]) for nums, dens in chain.u_rec._integers())),
        q_rec=fourth_rec,
        verdict_equations=chain.verdict_equations,
        verdict_constants=chain.verdict_constants,
        constants=chain.constants,
        regularity=chain.regularity,
        odd_index_identity=odd_ok,
    )


@dataclass(frozen=True, kw_only=True)
class JacobiChainReport(_Chain):
    failure: Optional[Failure]
    alpha: Fraction
    beta: Fraction
    a1: Fraction
    c1: Fraction
    depth: int

    @property
    def ok(self) -> bool:
        return self.failure is None

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
            "relation": self.rel,
            "u_recurrence": self.u_rec,
            "v_recurrence": self.v_rec,
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
    head = dict(alpha=params.alpha, beta=params.beta, a1=a1, c1=c1, depth=depth)
    chain = _spectral_chain(jacobi_recurrence(params, depth + 4), -1, 1, -1, a1, c1, depth,
                            None)
    if isinstance(chain, Failure):
        return JacobiChainReport(failure=chain, **head)
    return JacobiChainReport(failure=None, **head, **vars(chain))


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
