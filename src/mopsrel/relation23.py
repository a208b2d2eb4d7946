"""Linear structure relations of 2-3 type between two monic polynomial
families, and the inverse orthogonality problem they raise.

The relation links a candidate family (Q_n) to a MOPS (P_n) through

    Q_n + r_n Q_{n-1} = P_n + s_n P_{n-1} + t_n P_{n-2},    n >= 0,

with the index conventions r_0 = s_0 = t_0 = t_1 = 0. Such a relation is
"degenerate" when it can be rewritten with fewer terms; ``classify`` sorts a
coefficient triple into the six possible shapes using only
(r_1, r_2, r_3, s_1, s_2, t_2, t_3). The non-degenerate shape is the one
where the inverse problem is interesting: does a regular functional exist
that makes (Q_n) orthogonal?

Two logically independent answers are implemented and should always agree:

* ``check_by_equations`` tests the initial conditions plus the three
  families of coefficient equations b_n = a_n s_{n-1}, c_n = a_n t_{n-1},
  d_n = a_n r_{n-1} for 4 <= n <= depth;
* ``check_by_constants`` tests the startup condition
  t_4 gamma_2 = a_4 t_3 together with the constancy in n of three rational
  expressions A_n, B_n, C_n built from the data.

Both share a prelude (admission, the induced recurrence, the auxiliary
sequences, gamma~_n != 0 and ci1-ci3) and differ in the conditions that
decide; ``check_both`` runs the prelude once for the two.

When either verdict is positive, the functional v of the generated family
satisfies lambda (x - c) u = (x^2 + a x + b) v for constants that
``relation_constants`` computes in closed form; the constancy checker
returns (A, B, C) which must equal (a, b, c).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ContractError, DepthError, DomainError, FormatError
from .functional import MomentFunctional, RecurrencePair
from .poly import Polynomial, _combination
from .rational import (
    _json_list,
    _lcm_sum,
    _parts,
    as_scalar,
    common_denominator,
)


class Relation23:
    """Coefficient triple (r_n), (s_n), (t_n), each indexed from 0."""

    __slots__ = ("r", "s", "t")

    def __init__(self, r, s, t):
        self.r = tuple(as_scalar(v) for v in r)
        self.s = tuple(as_scalar(v) for v in s)
        self.t = tuple(as_scalar(v) for v in t)
        for name, seq, fixed in (("r", self.r, 1), ("s", self.s, 1), ("t", self.t, 2)):
            for i in range(min(fixed, len(seq))):
                if seq[i] != 0:
                    raise FormatError("convention r0=s0=t0=t1=0 violated")

    def require(self, through: int) -> None:
        if min(len(self.r), len(self.s), len(self.t)) <= through:
            raise DepthError(
                f"relation coefficients required through index {through}, have "
                f"r:{len(self.r) - 1}, s:{len(self.s) - 1}, t:{len(self.t) - 1}"
            )

    @property
    def max_index(self) -> int:
        return min(len(self.r), len(self.s), len(self.t)) - 1

    def to_json(self) -> dict:
        return {
            "r": list(self.r),
            "s": list(self.s),
            "t": list(self.t),
        }

    @classmethod
    def from_json(cls, data) -> "Relation23":
        if not isinstance(data, dict) or not {"r", "s", "t"} <= set(data):
            raise FormatError('relation JSON must be {"r": [...], "s": [...], "t": [...]}')
        return cls(*(_json_list(data, key) for key in "rst"))

    def __repr__(self) -> str:
        return f"Relation23(through {self.max_index})"


class RelationTag(str, Enum):
    TRIVIAL11 = "Trivial11"
    TYPE12 = "Type12"
    TYPE13 = "Type13"
    TYPE21 = "Type21"
    TYPE22 = "Type22"
    NONDEGENERATE23 = "NonDegenerate23"


@dataclass(frozen=True)
class RelationCase:
    tag: RelationTag
    reduced: dict

    def to_json(self) -> dict:
        reduced = {key: list(seq) for key, seq in self.reduced.items()}
        return {"tag": self.tag.value, "reduced": reduced}


def classify(rel: Relation23) -> RelationCase:
    """Decide the shape of the relation from its first seven free
    coefficients; the reduced two-term coefficients are reported where the
    degenerate shape defines them."""
    rel.require(3)
    r, s, t = rel.r, rel.s, rel.t
    diff1 = s[1] - r[1]
    gate = t[2] - r[2] * diff1
    m = rel.max_index
    if gate == 0:
        if diff1 == 0:
            return RelationCase(RelationTag.TRIVIAL11, {})
        return RelationCase(
            RelationTag.TYPE12, {"a": [s[n] - r[n] for n in range(m + 1)]}
        )
    if r[3] == 0:
        return RelationCase(
            RelationTag.TYPE13,
            {
                "a": [s[n] - r[n] for n in range(m + 1)],
                "b": [None, None]
                + [t[n] - r[n] * (s[n - 1] - r[n - 1]) for n in range(2, m + 1)],
            },
        )
    if t[3] == 0:
        if t[2] == s[2] * diff1:
            return RelationCase(
                RelationTag.TYPE21, {"c": [r[n] - s[n] for n in range(m + 1)]}
            )
        if diff1 != 0:
            # only c1 - d1 = r1 - s1 is pinned at n = 1; report r1, s1
            c = [Fraction(0), r[1], r[2] - t[2] / diff1] + list(r[3 : m + 1])
            d = [Fraction(0), s[1], s[2] - t[2] / diff1] + list(s[3 : m + 1])
            return RelationCase(RelationTag.TYPE22, {"c": c, "d": d})
        return RelationCase(
            RelationTag.TYPE22,
            {
                "c": [None, None, None] + list(r[3 : m + 1]),
                "d": [None, None, None] + list(s[3 : m + 1]),
            },
        )
    return RelationCase(RelationTag.NONDEGENERATE23, {})


def generate_q(p: list[Polynomial], rel: Relation23) -> list[Polynomial]:
    """Unfold the relation into the family it defines:
    Q_n = P_n + s_n P_{n-1} + t_n P_{n-2} - r_n Q_{n-1}, Q_0 = 1."""
    count = min(len(p), len(rel.r), len(rel.s), len(rel.t))
    if count == 0:
        raise DepthError("need P_0 and relation index 0")
    r, s, t = rel.r, rel.s, rel.t
    q = [Polynomial.one()]
    for n in range(1, count):
        terms = [(1, p[n]), (s[n], p[n - 1]), (-r[n], q[n - 1])]
        if n >= 2:
            terms.append((t[n], p[n - 2]))
        q.append(_combination(terms))
    return q


def compose_ladders(a, b, l) -> Relation23:
    """The 2-3 relation between (P_n) and (Q_n) when both are ladders over
    one family (R_n): the 2-2 ladder P_n + a_n P_{n-1} = R_n + b_n R_{n-1}
    and the 1-2 ladder Q_n = R_n + l_n R_{n-1}. The ladders are sequences
    indexed 1..top (index 0 unused); the relation runs through top, with

        rho_n = (b_n - l_n) / (b_{n-1} - l_{n-1}),
        r_n = b_{n-1} rho_n,  s_n = a_n + l_{n-1} rho_n,
        t_n = a_{n-1} l_{n-1} rho_n                        (n >= 2).

    At n = 1 the identity pins only s_1 - r_1 = a_1 - b_1 + l_1. Nothing
    else depends on the split either (the induced beta~_0 and gamma~_1 see
    only the difference), so r_1 = 0.
    """
    a, b, l = ([None] + [as_scalar(v) for v in seq[1:]] for seq in (a, b, l))
    top = min(len(a), len(b), len(l)) - 1
    if top < 2:
        raise DepthError("ladder coefficients required through index 2")
    r = [Fraction(0)] * (top + 1)
    s = [Fraction(0)] * (top + 1)
    t = [Fraction(0)] * (top + 1)
    s[1] = a[1] - b[1] + l[1]
    # rho_n = gap_n / gap_{n-1} with gap_n = b_n - l_n; each r_n, s_n, t_n
    # is one Fraction built from the integer parts
    gap = b[1] - l[1]
    for n in range(2, top + 1):
        if gap == 0:
            raise DomainError(f"b_{n - 1} = l_{n - 1}: the ladders do not compose at n={n}")
        prev, gap = gap, b[n] - l[n]
        rn = gap.numerator * prev.denominator
        rd = gap.denominator * prev.numerator
        bn, ln, an = b[n - 1], l[n - 1], a[n - 1]
        r[n] = Fraction(bn.numerator * rn, bn.denominator * rd)
        lrn, lrd = ln.numerator * rn, ln.denominator * rd
        s[n] = Fraction(*_lcm_sum((a[n].numerator, lrn), (a[n].denominator, lrd)))
        t[n] = Fraction(an.numerator * lrn, an.denominator * lrd)
    return Relation23(r, s, t)


class AuxiliarySequences(NamedTuple):
    """The working sequences of the inverse problem, indexed so seq[n] is
    the value at n; entries below each sequence's first index are None."""

    a: list
    b: list
    c: list
    d: list


def _sequences(rec: RecurrencePair, rel: Relation23, upto: int, aux_upto: int):
    """The derived sequences of the inverse problem, from one pass over the
    integer parts of r, s, t, beta and gamma: the induced recurrence
    bt_n = beta~_n (0 <= n <= upto) and gt_n = gamma~_n (1 <= n <= upto),
    as two lists, and the auxiliary sequences, with a_n through ``upto`` and
    b_n, c_n, d_n through ``aux_upto`` (None past it). Consumes relation
    indices through upto + 1 and recurrence coefficients through upto.

    Indices follow ``RecurrencePair``: gamma_n is ``rec.gamma[n-1]`` and
    gt_n is ``gt[n-1]``. With z_n = s_{n+1} - s_n - beta_n,

        bt_n = r_{n+1} - r_n - z_n                               (n >= 0)
        a_n  = gamma_n + t_n - t_{n+1} + s_n (z_n + beta_{n-1})  (n >= 1)
        gt_n = a_n - r_n (z_n + bt_{n-1})                        (n >= 1)
        b_n  = s_n gamma_{n-1} + t_n (z_n + beta_{n-2})          (n >= 2)
        c_n  = t_n gamma_{n-2}                                   (n >= 3)
        d_n  = r_n gt_{n-1}                                      (n >= 2)

    each entry one Fraction of integers. The integer parts of r, s, t,
    beta and gamma come back too, as (numerators, denominators) pairs in
    that order, so that ``_constancy`` need not take them again."""
    rel.require(upto + 1)
    rec.require(upto, upto)
    parts = (
        _parts(rel.r[: upto + 2]), _parts(rel.s[: upto + 2]), _parts(rel.t[: upto + 2]),
        _parts(rec.beta[: upto + 1]), _parts(rec.gamma[:upto]),
    )
    (r, rd), (s, sd), (t, td), (p, pd), (g, gd) = parts
    bt: list = []
    gt: list = []
    a, b, c, d = ([None] * (upto + 1) for _ in range(4))
    for n in range(upto + 1):
        zn, zd = _lcm_sum((s[n + 1], -s[n], -p[n]), (sd[n + 1], sd[n], pd[n]))
        bt.append(Fraction(*_lcm_sum((r[n + 1], -r[n], -zn), (rd[n + 1], rd[n], zd))))
        if n == 0:
            continue
        an = a[n] = Fraction(*_lcm_sum(
            (g[n - 1], t[n], -t[n + 1], s[n] * zn, s[n] * p[n - 1]),
            (gd[n - 1], td[n], td[n + 1], sd[n] * zd, sd[n] * pd[n - 1]),
        ))
        prev = bt[n - 1]
        gt.append(Fraction(*_lcm_sum(
            (an.numerator, -r[n] * zn, -r[n] * prev.numerator),
            (an.denominator, rd[n] * zd, rd[n] * prev.denominator),
        )))
        if 2 <= n <= aux_upto:
            b[n] = Fraction(*_lcm_sum(
                (s[n] * g[n - 2], t[n] * zn, t[n] * p[n - 2]),
                (sd[n] * gd[n - 2], td[n] * zd, td[n] * pd[n - 2]),
            ))
            gt_prev = gt[n - 2]
            d[n] = Fraction(r[n] * gt_prev.numerator, rd[n] * gt_prev.denominator)
            if n >= 3:
                c[n] = Fraction(t[n] * g[n - 3], td[n] * gd[n - 3])
    return bt, gt, AuxiliarySequences(a, b, c, d), parts


def induced_recurrence(rec: RecurrencePair, rel: Relation23, upto: int) -> RecurrencePair:
    """The recurrence pair the generated family must satisfy if it is a
    MOPS: beta~_0..beta~_upto and gamma~_1..gamma~_upto. The gamma~ entries
    may be zero here; whether they qualify is the checkers' business."""
    if upto < 0:
        raise DepthError("upto must be >= 0")
    bt, gt, _, _ = _sequences(rec, rel, upto, 0)
    return RecurrencePair(bt, gt)


def auxiliary_sequences(rec: RecurrencePair, rel: Relation23, upto: int) -> AuxiliarySequences:
    """a_n (n>=1), b_n (n>=2), c_n (n>=3), d_n (n>=2) through ``upto``."""
    return _sequences(rec, rel, upto, upto)[2]


class Failure(NamedTuple):
    condition: str
    n: Optional[int]

    def to_json(self) -> dict:
        return {"condition": self.condition, "n": self.n}


@dataclass(frozen=True)
class InverseVerdict:
    """A checker's answer. ``constancy`` holds the lists A, B, C (defined
    for 3 <= n <= depth) that ``check_by_constants`` tested, None from
    ``check_by_equations``; it is not part of the JSON form."""

    is_mops: bool
    induced: RecurrencePair
    failures: tuple[Failure, ...]
    constants: Optional[tuple[Fraction, Fraction, Fraction]] = None
    constancy: Optional[tuple[list, list, list]] = None

    def to_json(self) -> dict:
        out = {
            "is_mops": self.is_mops,
            "failures": [f.to_json() for f in self.failures],
            "induced": self.induced.to_json(),
        }
        if self.constants is not None:
            a_, b_, c_ = self.constants
            out["constants"] = {"A": a_, "B": b_, "C": c_}
        else:
            out["constants"] = None
        return out


def _prelude(rec: RecurrencePair, rel: Relation23, depth: int, upto: int, aux_upto: int):
    """What the two checkers share: admission of the data (and the
    admitted case), one ``_sequences`` build through ``upto`` (depth + 1
    when the constancy checker runs) with b_n, c_n, d_n through
    ``aux_upto``, and the conditions gamma~_n != 0 (n <= depth) and
    ci1-ci3. The equation checker's refusals come first. Returns the case,
    the induced recurrence through depth, the build and the failures,
    which each checker's tail copies before it appends its own."""
    if depth < 4:
        raise DepthError("inverse-problem checks need depth >= 4")
    rec.require_regular(depth + 1)
    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        raise ContractError(
            f"relation classifies as {case.tag.value}; the inverse checkers "
            "accept only NonDegenerate23 data"
        )
    rel.require(depth + 1)
    for n in range(3, depth + 2):
        if rel.r[n] == 0:
            raise ContractError(f"r_{n} = 0: data violates the non-degeneracy hypothesis")
        if rel.t[n] == 0:
            raise ContractError(f"t_{n} = 0: data violates the non-degeneracy hypothesis")
    # what the equation checker needs, before a build through depth + 1
    # refuses what only the constancy checker needs
    rec.require(depth, depth)
    built = _sequences(rec, rel, upto, aux_upto)
    bt, gt, (a, b, c, d), _ = built
    induced = RecurrencePair(bt[: depth + 1], gt[:depth])
    r, s, t = rel.r, rel.s, rel.t
    failures: list[Failure] = []
    for n in range(1, depth + 1):
        if gt[n - 1] == 0:
            failures.append(Failure("gamma_tilde", n))
    # each condition "lhs = rhs" is decided by the numerator of lhs - rhs
    (a2, a3, b2, b3, c3, d2, d3), (a2d, a3d, b2d, b3d, c3d, d2d, d3d) = _parts(
        (a[2], a[3], b[2], b[3], c[3], d[2], d[3])
    )
    (r1, r2, s1, s2, t2), (r1d, r2d, s1d, s2d, t2d) = _parts((r[1], r[2], s[1], s[2], t[2]))
    e, ed = _lcm_sum((s1, -r1), (s1d, r1d))  # s_1 - r_1
    f, fd = _lcm_sum((s2, -r2), (s2d, r2d))  # s_2 - r_2
    h, hd = _lcm_sum((t2, -s2 * e), (t2d, s2d * ed))  # t_2 - s_2 (s_1 - r_1)
    if _lcm_sum((b2, -d2, -a2 * e), (b2d, d2d, a2d * ed))[0]:
        failures.append(Failure("ci1", 2))
    if _lcm_sum((b3, -d3, -a3 * f), (b3d, d3d, a3d * fd))[0]:
        failures.append(Failure("ci2", 3))
    if _lcm_sum((c3, -b3 * e, -a3 * h), (c3d, b3d * ed, a3d * hd))[0]:
        failures.append(Failure("ci3", 3))
    return case, induced, built, failures


def _equations_tail(rel: Relation23, depth: int, induced, built, failures) -> InverseVerdict:
    """The verdict of the coefficient equations eqn1-eqn3, 4 <= n <= depth,
    on top of the prelude's failures."""
    failures = list(failures)
    r, s, t = rel.r, rel.s, rel.t
    a, b, c, d = built[2]
    for n in range(4, depth + 1):
        # lhs = a_n k by cross-multiplication
        an, ad = a[n].numerator, a[n].denominator
        for name, lhs, k in (("eqn1", b[n], s[n - 1]), ("eqn2", c[n], t[n - 1]), ("eqn3", d[n], r[n - 1])):
            if lhs.numerator * ad * k.denominator != an * k.numerator * lhs.denominator:
                failures.append(Failure(name, n))
    return InverseVerdict(not failures, induced, tuple(failures))


def check_by_equations(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the
    coefficient equations. Consumes relation indices through depth + 1."""
    _, induced, built, failures = _prelude(rec, rel, depth, depth, depth)
    return _equations_tail(rel, depth, induced, built, failures)


def _constancy(depth: int, built):
    """A_n, B_n, C_n for 3 <= n <= depth from a ``_sequences`` build
    through depth + 1, of which they read a_n through depth + 1 and the
    integer parts of the data."""
    bt, gt, (a, _, _, _), ((rn, rd), (sn, sd), (tn, td), (bn, bd), (gn, gd)) = built
    A: list = [None] * (depth + 1)
    B: list = [None] * (depth + 1)
    C: list = [None] * (depth + 1)
    for n in range(3, depth + 1):
        if not tn[n + 1]:
            raise DomainError(f"t_{n + 1} = 0: constancy expressions undefined")
        if not rn[n]:
            raise DomainError(f"r_{n} = 0: constancy expressions undefined")
        # ratio = a_{n+1} / t_{n+1} = p / q
        p = a[n + 1].numerator * td[n + 1]
        q = a[n + 1].denominator * tn[n + 1]
        # A_n = s_n ratio - beta_{n-1} - beta_n + s_{n+1}
        A[n] = Fraction(*_lcm_sum(
            (sn[n] * p, -bn[n - 1], -bn[n], sn[n + 1]), (sd[n] * q, bd[n - 1], bd[n], sd[n + 1])
        ))
        # B_n = a_n ratio + e (s_n ratio - beta_n - s_n + s_{n+1}) + t_n - a_n
        # - gamma_{n-1} with e = s_n - beta_{n-1}; the middle factor is A_n - e
        e, ed = _lcm_sum((sn[n], -bn[n - 1]), (sd[n], bd[n - 1]))
        w, wd = _lcm_sum((A[n].numerator, -e), (A[n].denominator, ed))
        B[n] = Fraction(*_lcm_sum(
            (a[n].numerator * (p - q), e * w, tn[n], -gn[n - 2]),
            (a[n].denominator * q, ed * wd, td[n], gd[n - 2]),
        ))
        # C_n = bt_n - r_{n+1} - gt_n / r_n
        btn, gtn = bt[n], gt[n - 1]
        C[n] = Fraction(*_lcm_sum(
            (btn.numerator, -rn[n + 1], -gtn.numerator * rd[n]),
            (btn.denominator, rd[n + 1], gtn.denominator * rn[n]),
        ))
    return A, B, C


def constant_sequences(
    rec: RecurrencePair, rel: Relation23, depth: int
) -> tuple[list, list, list]:
    """The three expressions whose constancy characterizes orthogonality,
    as lists with seq[n] defined for 3 <= n <= depth (None below).

    Consumes relation indices through depth + 2 and recurrence coefficients
    through depth + 1; every r_n, t_n divided by must be nonzero.
    """
    if depth < 3:
        raise DepthError("constant sequences start at n = 3")
    return _constancy(depth, _sequences(rec, rel, depth + 1, 0))


def _constants_tail(
    rec: RecurrencePair, rel: Relation23, depth: int, induced, built, failures
) -> InverseVerdict:
    """The verdict of the startup condition and the constancy of A_n, B_n,
    C_n, 3 <= n <= depth, on top of the prelude's failures, from its build
    through depth + 1."""
    failures = list(failures)
    # t_4 gamma_2 = a_4 t_3 by cross-multiplication
    t3, t4, g2, a4 = rel.t[3], rel.t[4], rec.gamma[1], built[2].a[4]
    if (t4.numerator * g2.numerator * a4.denominator * t3.denominator
            != a4.numerator * t3.numerator * t4.denominator * g2.denominator):
        failures.append(Failure("startup", 4))
    A, B, C = _constancy(depth, built)
    before = len(failures)
    for name, seq in (("A_constant", A), ("B_constant", B), ("C_constant", C)):
        for n in range(4, depth + 1):
            if seq[n] != seq[3]:
                failures.append(Failure(name, n))
    constants = (A[3], B[3], C[3]) if len(failures) == before else None
    return InverseVerdict(not failures, induced, tuple(failures), constants, (A, B, C))


def check_by_constants(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the startup
    condition and constancy of A_n, B_n, C_n for 3 <= n <= depth. Consumes
    relation indices through depth + 2."""
    # b_n, c_n, d_n through 3, where ci1-ci3 read them
    _, induced, built, failures = _prelude(rec, rel, depth, depth + 1, 3)
    return _constants_tail(rec, rel, depth, induced, built, failures)


def check_both(
    rec: RecurrencePair, rel: Relation23, depth: int
) -> tuple[RelationCase, InverseVerdict, InverseVerdict]:
    """The admitted case and the verdicts of ``check_by_equations`` and
    ``check_by_constants``, equal to what the two give, from one shared
    prelude; data they refuse raises what the first of them to refuse
    raises. Consumes relation indices through depth + 2."""
    case, induced, built, failures = _prelude(rec, rel, depth, depth + 1, depth)
    return (
        case,
        _equations_tail(rel, depth, induced, built, failures),
        _constants_tail(rec, rel, depth, induced, built, failures),
    )


@dataclass(frozen=True)
class FunctionalRelation:
    """Constants of the identity lambda (x - c) u = (x^2 + a x + b) v."""

    lam: Fraction
    c: Fraction
    a: Fraction
    b: Fraction

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "c": self.c,
            "a": self.a,
            "b": self.b,
        }


def relation_constants(rec: RecurrencePair, rel: Relation23) -> FunctionalRelation:
    """Closed forms for (lambda, c, a, b) out of the first relation
    coefficients and the first recurrence coefficients of both families."""
    rel.require(3)
    rec.require(2, 2)
    r, s, t = rel.r, rel.s, rel.t
    beta0 = rec.beta[0]
    gamma1 = rec.gamma[0]
    gate = t[2] - r[2] * (s[1] - r[1])
    if gate == 0:
        raise DomainError("t2 - r2 (s1 - r1) must be nonzero")
    if r[3] == 0 or t[3] == 0:
        raise DomainError("r3 and t3 must be nonzero")
    if gamma1 == 0:
        raise DomainError("gamma_1 must be nonzero")
    induced = induced_recurrence(rec, rel, 2)
    bt0, bt1 = induced.beta[0], induced.beta[1]
    gt1, gt2 = induced.gamma[0], induced.gamma[1]
    if gt1 == 0 or gt2 == 0:
        raise DomainError("gamma~_1 and gamma~_2 must be nonzero")
    c = beta0 - (gamma1 / r[3]) * (t[3] - r[3] * (s[2] - r[2])) / gate
    lam = (r[3] / t[3]) * (gt1 * gt2 / gamma1)
    num2 = r[3] * t[2] + (t[3] - r[3] * s[2]) * (s[1] - r[1])
    a = -bt0 - bt1 + (gt2 / t[3]) * num2 / gate
    b = (
        bt0 * bt1
        - gt1
        - (bt0 * gt2 / t[3]) * num2 / gate
        + (gt1 * gt2 / t[3]) * (t[3] - r[3] * (s[2] - r[2])) / gate
    )
    return FunctionalRelation(lam, c, a, b)


def v_moments_from_relation(
    u: MomentFunctional, fr: FunctionalRelation, beta0_tilde
) -> MomentFunctional:
    """Moments of v from lambda (x - c) u = (x^2 + a x + b) v, normalized so
    v_0 = 1; v_1 must equal the generated family's beta~_0, and the identity
    then pins every later moment by forward substitution."""
    if not u.is_normalized:
        raise DomainError("u must be normalized (mu_0 = 1)")
    if fr.lam == 0:
        raise DomainError("lambda must be nonzero")
    m = [Fraction(1)]
    if u.depth >= 1:
        m.append(as_scalar(beta0_tilde))
    # lambda (mu_{n+1} - c mu_n) = k (cd U_{n+1} - cn U_n) / kd over the
    # common denominator of u's moments; each v_{n+2} is one Fraction
    U, D = common_denominator(u.moments)
    cn, cd = fr.c.numerator, fr.c.denominator
    k, kd = fr.lam.numerator, fr.lam.denominator * cd * D
    an, ad, bn, bd = fr.a.numerator, fr.a.denominator, fr.b.numerator, fr.b.denominator
    for n in range(u.depth - 1):
        m0, m1 = m[n], m[n + 1]
        m.append(Fraction(*_lcm_sum(
            (k * (cd * U[n + 1] - cn * U[n]), -an * m1.numerator, -bn * m0.numerator),
            (kd, ad * m1.denominator, bd * m0.denominator),
        )))
    return MomentFunctional(m)


def verify_functional_relation(
    u: MomentFunctional, v: MomentFunctional, fr: FunctionalRelation, depth: int
) -> tuple[bool, Optional[int]]:
    """Test lambda (mu_{n+1} - c mu_n) = v_{n+2} + a v_{n+1} + b v_n for
    0 <= n <= depth; returns (ok, first failing n)."""
    if u.depth < depth + 1 or v.depth < depth + 2:
        raise DepthError(
            f"need u depth >= {depth + 1} and v depth >= {depth + 2}, "
            f"have {u.depth} and {v.depth}"
        )
    # both sides over their common denominators, compared by
    # cross-multiplication: lambda (cd U_{n+1} - cn U_n) / (cd D) on the
    # left, (ad bd V_{n+2} + an bd V_{n+1} + bn ad V_n) / (ad bd E) on the right
    U, D = common_denominator(u.moments[: depth + 2])
    V, E = common_denominator(v.moments[: depth + 3])
    cn, cd = fr.c.numerator, fr.c.denominator
    an, ad, bn, bd = fr.a.numerator, fr.a.denominator, fr.b.numerator, fr.b.denominator
    left = fr.lam.numerator * ad * bd * E
    right = fr.lam.denominator * cd * D
    for n in range(depth + 1):
        if (left * (cd * U[n + 1] - cn * U[n])
                != right * (ad * bd * V[n + 2] + an * bd * V[n + 1] + bn * ad * V[n])):
            return False, n
    return True, None


def regularity_criterion(
    p: list[Polynomial], c, rel: Relation23, depth: int
) -> tuple[bool, bool]:
    """Two sides of the same coin for the functional (x - c) u: no zero of
    any P_n at c, and no index with t_n = r_n (s_{n-1} - r_{n-1}). For a
    genuinely non-degenerate orthogonal pair the booleans agree."""
    if len(p) <= depth:
        raise DepthError(f"need P_0..P_{depth}, have {len(p)} polynomials")
    rel.require(depth if depth >= 2 else 2)
    c0 = as_scalar(c)
    no_root = all(p[n](c0) != 0 for n in range(depth + 1))
    no_index = all(
        rel.t[n] != rel.r[n] * (rel.s[n - 1] - rel.r[n - 1])
        for n in range(2, depth + 1)
    )
    return no_root, no_index
