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

Every identity asserted here is certified by exact computation; an internal
mismatch raises ContractError naming the first violated identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional

from .errors import ContractError, DepthError, DomainError
from .families import JacobiParams, jacobi_recurrence, chebyshev_kind
from .functional import (
    MomentFunctional,
    RecurrencePair,
    RecurrenceReport,
    mops_from_recurrence,
    moments_from_recurrence,
    recurrence_from_moments,
)
from .poly import Polynomial
from .rational import as_scalar, format_rational
from .relation23 import (
    Failure,
    FunctionalRelation,
    InverseVerdict,
    Relation23,
    RelationTag,
    check_by_constants,
    check_by_equations,
    classify,
    constant_sequences,
    induced_recurrence,
    regularity_criterion,
    relation_constants,
    v_moments_from_relation,
    verify_functional_relation,
)

HALF = Fraction(1, 2)


def _certify(condition: bool, what: str) -> None:
    if not condition:
        raise ContractError(f"internal consistency: {what}")


def _solve_first_gauge(
    beta0, beta1, gamma1, r2, s2, t2, diff1, target
) -> Fraction:
    """The defining relation pins only s_1 - r_1; the split enters the
    induced gamma~_1 linearly. Solve for the r_1 that matches the known
    second family; a degenerate equation admits any split, so take 0."""
    bt0 = beta0 - diff1
    bt1 = beta1 + diff1 - s2 + r2
    k1 = s2 - diff1 - beta1 + beta0
    k2 = r2 - bt1 + bt0
    coef = k1 - k2 - diff1
    const = gamma1 - t2 + diff1 * k1
    if coef == 0:
        _certify(const == target, "first-index gauge equation is inconsistent")
        return Fraction(0)
    return (target - const) / coef


def _report_csv(depth: int, third_name: str, columns: dict) -> str:
    header = [
        "n", "a_n", "b_n", third_name, "r_n", "s_n", "t_n",
        "beta_tilde_n", "gamma_tilde_n", "A_n", "B_n", "C_n",
    ]
    lines = [",".join(header)]
    for n in range(depth + 1):
        row = [str(n)]
        for key in ("a", "b", "third", "r", "s", "t", "bt", "gt", "A", "B", "C"):
            seq = columns[key]
            v = seq[n] if n < len(seq) else None
            row.append("" if v is None else format_rational(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
            "point_mass_ratio": format_rational(self.point_mass_ratio),
            "a": [None if v is None else format_rational(v) for v in self.a_seq],
            "b": [None if v is None else format_rational(v) for v in self.b_seq],
            "lambda": [None if v is None else format_rational(v) for v in self.lambda_seq],
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

    def to_csv(self) -> str:
        A, B, C = constant_sequences(self.u_rec, self.rel, self.depth)
        return _report_csv(
            self.depth,
            "lambda_n",
            {
                "a": self.a_seq,
                "b": self.b_seq,
                "third": self.lambda_seq,
                "r": self.rel.r,
                "s": self.rel.s,
                "t": self.rel.t,
                "bt": self.verdict_equations.induced.beta,
                "gt": (None,) + self.verdict_equations.induced.gamma,
                "A": A,
                "B": B,
                "C": C,
            },
        )


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
            fourth[n] == second[n] + lam[n] * second[n - 1],
            f"1-2 ladder between fourth and second kind fails at n={n}",
        )

    # P_n from the 2-2 ladder: P_n + a_n P_{n-1} = R_n + b_n R_{n-1}
    p = [Polynomial.one()]
    for n in range(1, top + 1):
        cur = second[n] + b[n] * second[n - 1] - a[n] * p[n - 1]
        p.append(cur)

    # the third-kind part carries a mass fixed by orthogonality of P_2
    u_depth = 2 * depth + 6
    w3 = moments_from_recurrence(chebyshev_kind(3, u_depth // 2 + 3), u_depth + 1)
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

    rho = [None, None] + [
        (b[n] - lam[n]) / (b[n - 1] - lam[n - 1]) for n in range(2, top + 1)
    ]
    r: list = [Fraction(0)] * (top + 1)
    s: list = [Fraction(0)] * (top + 1)
    t: list = [Fraction(0)] * (top + 1)
    for n in range(2, top + 1):
        r[n] = b[n - 1] * rho[n]
        s[n] = a[n] + lam[n - 1] * rho[n]
        t[n] = a[n - 1] * lam[n - 1] * rho[n]
    diff1 = a[1] - b[1] + lam[1]
    r[1] = _solve_first_gauge(
        u_rec.beta[0], u_rec.beta[1], u_rec.gamma[0],
        r[2], s[2], t[2], diff1, fourth_rec.gamma[0],
    )
    s[1] = r[1] + diff1
    rel = Relation23(r, s, t)

    for n in range(1, top + 1):
        lhs = fourth[n] + r[n] * fourth[n - 1]
        rhs = p[n] + s[n] * p[n - 1]
        if n >= 2:
            rhs = rhs + t[n] * p[n - 2]
        _certify(lhs == rhs, f"2-3 relation fails as a polynomial identity at n={n}")

    _certify(
        classify(rel).tag is RelationTag.NONDEGENERATE23,
        "relation does not classify as non-degenerate",
    )
    verdict_eq = check_by_equations(u_rec, rel, depth)
    verdict_ct = check_by_constants(u_rec, rel, depth)
    _certify(verdict_eq.is_mops, "equation checker rejects the generated family")
    _certify(verdict_ct.is_mops, "constancy checker rejects the generated family")
    _certify(
        verdict_eq.induced.beta[: depth + 1] == fourth_rec.beta[: depth + 1]
        and verdict_eq.induced.gamma[:depth] == fourth_rec.gamma[:depth],
        "induced recurrence does not match the fourth-kind family",
    )

    constants = relation_constants(u_rec, rel)
    _certify(
        verdict_ct.constants == (constants.a, constants.b, constants.c),
        "constancy triple disagrees with the closed-form constants",
    )
    v = v_moments_from_relation(u, constants, verdict_eq.induced.beta[0])
    fourth_moments = moments_from_recurrence(chebyshev_kind(4, u.depth // 2 + 2), u.depth)
    _certify(
        v.moments[: u.depth + 1] == fourth_moments.moments[: u.depth + 1],
        "moments recovered from the functional identity differ from the fourth kind",
    )
    moment_identity = verify_functional_relation(u, v, constants, u.depth - 2)
    _certify(moment_identity[0], "functional identity fails on the moments")

    regularity = regularity_criterion(p, 1, rel, depth)
    shifted = recurrence_from_moments(
        u.left_multiply(Polynomial([-1, 1]))
    )
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
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "a1": format_rational(self.a1),
            "c1": format_rational(self.c1),
            "depth": self.depth,
        }
        if not self.ok:
            return out
        out.update(
            {
                "a": [None if v is None else format_rational(v) for v in self.a_seq],
                "b": [None if v is None else format_rational(v) for v in self.b_seq],
                "c": [None if v is None else format_rational(v) for v in self.c_seq],
                "relation": self.rel.to_json(),
                "u_recurrence": self.u_rec.to_json(),
                "v_recurrence": self.v_rec.to_json(),
                "u_mass": format_rational(self.u_mass),
                "v_mass": format_rational(self.v_mass),
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

    def to_csv(self) -> str:
        if not self.ok:
            cond = self.failure.condition if self.failure else "unknown"
            return f"failure,n\n{cond},{'' if self.failure is None or self.failure.n is None else self.failure.n}\n"
        A, B, C = constant_sequences(self.u_rec, self.rel, self.depth)
        return _report_csv(
            self.depth,
            "c_n",
            {
                "a": self.a_seq,
                "b": self.b_seq,
                "third": self.c_seq,
                "r": self.rel.r,
                "s": self.rel.s,
                "t": self.rel.t,
                "bt": self.verdict_equations.induced.beta,
                "gt": (None,) + self.verdict_equations.induced.gamma,
                "A": A,
                "B": B,
                "C": C,
            },
        )


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
    w_rec = jacobi_recurrence(params, depth + 6)
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

    u_target = 2 * depth + 8
    w = moments_from_recurrence(
        jacobi_recurrence(params, u_target // 2 + 3), u_target + 1
    )
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

    big_w = mops_from_recurrence(jacobi_recurrence(params, top + 2), top + 2)
    big_wt = mops_from_recurrence(wt_report.rec, top + 2)
    p = mops_from_recurrence(u_rec, top + 2)
    q = mops_from_recurrence(v_rec, top + 2)

    # <w, W_n^2> and <u, P_n^2> / u_mass for n < top, as prefix products
    w_norms = list(accumulate(w_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    u_norms = list(accumulate(u_rec.gamma[: top - 1], mul, initial=Fraction(1)))
    b_seq: list = [None] * (top + 1)
    for n in range(1, top + 1):
        b_seq[n] = -a_seq[n] * w_norms[n - 1] / (u_mass * u_norms[n - 1])

    for n in range(1, top + 1):
        up = big_w[n] + a_seq[n] * big_w[n - 1]
        down = p[n] + b_seq[n] * p[n - 1]
        _certify(big_wt[n] == up, f"up-link identity fails at n={n}")
        _certify(big_wt[n] == down, f"down-link identity fails at n={n}")
        _certify(up == down, f"2-2 link identity fails at n={n}")
        _certify(
            q[n] == big_w[n] + c_seq[n] * big_w[n - 1],
            f"second-family link identity fails at n={n}",
        )

    r: list = [Fraction(0)] * (top + 1)
    s: list = [Fraction(0)] * (top + 1)
    t: list = [Fraction(0)] * (top + 1)
    for n in range(2, top + 1):
        rho = (a_seq[n] - c_seq[n]) / (a_seq[n - 1] - c_seq[n - 1])
        r[n] = a_seq[n - 1] * rho
        s[n] = b_seq[n] + c_seq[n - 1] * rho
        t[n] = b_seq[n - 1] * c_seq[n - 1] * rho
    diff1 = b_seq[1] + c_seq[1] - a_seq[1]
    r[1] = _solve_first_gauge(
        u_rec.beta[0], u_rec.beta[1], u_rec.gamma[0],
        r[2], s[2], t[2], diff1, v_rec.gamma[0],
    )
    s[1] = r[1] + diff1
    rel = Relation23(r, s, t)

    for n in range(1, top + 1):
        lhs = q[n] + r[n] * q[n - 1]
        rhs = p[n] + s[n] * p[n - 1]
        if n >= 2:
            rhs = rhs + t[n] * p[n - 2]
        _certify(lhs == rhs, f"2-3 relation fails as a polynomial identity at n={n}")

    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        return fail(f"relation_degenerate_{case.tag.value}")

    verdict_eq = check_by_equations(u_rec, rel, depth)
    verdict_ct = check_by_constants(u_rec, rel, depth)
    _certify(verdict_eq.is_mops, "equation checker rejects the chain family")
    _certify(verdict_ct.is_mops, "constancy checker rejects the chain family")
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
    _certify(constants.lam == -u_mass / v_mass, "lambda disagrees with the mass ratio")
    v_from_rel = v_moments_from_relation(u, constants, verdict_eq.induced.beta[0])
    _certify(
        v_from_rel.moments[: u.depth + 1] == v.moments[: u.depth + 1],
        "moments recovered from the functional identity differ from v",
    )
    moment_identity = verify_functional_relation(u, v, constants, depth)
    _certify(moment_identity[0], "functional identity fails on the moments")

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
