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
from .poly import Polynomial
from .rational import as_scalar, format_rational, format_sequence


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
            "r": [format_rational(v) for v in self.r],
            "s": [format_rational(v) for v in self.s],
            "t": [format_rational(v) for v in self.t],
        }

    @classmethod
    def from_json(cls, data) -> "Relation23":
        if not isinstance(data, dict) or not {"r", "s", "t"} <= set(data):
            raise FormatError('relation JSON must be {"r": [...], "s": [...], "t": [...]}')
        return cls(data["r"], data["s"], data["t"])

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
        reduced = {key: format_sequence(seq) for key, seq in self.reduced.items()}
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
    q = [Polynomial.one()]
    for n in range(1, count):
        cur = p[n] + rel.s[n] * p[n - 1]
        if n >= 2:
            cur = cur + rel.t[n] * p[n - 2]
        q.append(cur - rel.r[n] * q[n - 1])
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
    for n in range(2, top + 1):
        gap = b[n - 1] - l[n - 1]
        if gap == 0:
            raise DomainError(f"b_{n - 1} = l_{n - 1}: the ladders do not compose at n={n}")
        rho = (b[n] - l[n]) / gap
        r[n] = b[n - 1] * rho
        s[n] = a[n] + l[n - 1] * rho
        t[n] = a[n - 1] * l[n - 1] * rho
    return Relation23(r, s, t)


def induced_recurrence(rec: RecurrencePair, rel: Relation23, upto: int) -> RecurrencePair:
    """The recurrence pair the generated family must satisfy if it is a
    MOPS: beta~_0..beta~_upto and gamma~_1..gamma~_upto. The gamma~ entries
    may be zero here; whether they qualify is the checkers' business."""
    if upto < 0:
        raise DepthError("upto must be >= 0")
    rel.require(upto + 1)
    rec.require(upto, upto)
    r, s, t = rel.r, rel.s, rel.t
    beta = rec.beta
    gamma = rec.gamma
    bt = [
        beta[n] + s[n] - s[n + 1] - r[n] + r[n + 1] for n in range(upto + 1)
    ]
    gt = []
    for n in range(1, upto + 1):
        gt.append(
            gamma[n - 1]
            + t[n]
            - t[n + 1]
            + s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
            - r[n] * (r[n + 1] - r[n] - bt[n] + bt[n - 1])
        )
    return RecurrencePair(bt, gt)


class AuxiliarySequences(NamedTuple):
    """The working sequences of the inverse problem, indexed so seq[n] is
    the value at n; entries below each sequence's first index are None."""

    a: list
    b: list
    c: list
    d: list


def auxiliary_sequences(
    rec: RecurrencePair, rel: Relation23, upto: int, induced: RecurrencePair
) -> AuxiliarySequences:
    """a_n (n>=1), b_n (n>=2), c_n (n>=3), d_n (n>=2) through ``upto``."""
    rel.require(upto + 1)
    rec.require(upto, upto)
    r, s, t = rel.r, rel.s, rel.t
    beta, gamma = rec.beta, rec.gamma
    a: list = [None] * (upto + 1)
    b: list = [None] * (upto + 1)
    c: list = [None] * (upto + 1)
    d: list = [None] * (upto + 1)
    for n in range(1, upto + 1):
        a[n] = (
            gamma[n - 1]
            + t[n]
            - t[n + 1]
            + s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
        )
    for n in range(2, upto + 1):
        b[n] = s[n] * gamma[n - 2] + t[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 2])
        d[n] = r[n] * induced.gamma[n - 2]
    for n in range(3, upto + 1):
        c[n] = t[n] * gamma[n - 3]
    return AuxiliarySequences(a, b, c, d)


class Failure(NamedTuple):
    condition: str
    n: Optional[int]

    def to_json(self) -> dict:
        return {"condition": self.condition, "n": self.n}


@dataclass(frozen=True)
class InverseVerdict:
    is_mops: bool
    induced: RecurrencePair
    failures: tuple[Failure, ...]
    constants: Optional[tuple[Fraction, Fraction, Fraction]] = None

    def to_json(self) -> dict:
        out = {
            "is_mops": self.is_mops,
            "failures": [f.to_json() for f in self.failures],
            "induced": self.induced.to_json(),
        }
        if self.constants is not None:
            a_, b_, c_ = self.constants
            out["constants"] = {
                "A": format_rational(a_),
                "B": format_rational(b_),
                "C": format_rational(c_),
            }
        else:
            out["constants"] = None
        return out


def _prelude(rec: RecurrencePair, rel: Relation23, depth: int, upto: int):
    """What the two checkers share: admission of the data, the induced
    recurrence and the auxiliary sequences through ``upto``, and the
    conditions gamma~_n != 0 (n <= depth) and ci1-ci3."""
    if depth < 4:
        raise DepthError("inverse-problem checks need depth >= 4")
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
    induced = induced_recurrence(rec, rel, upto)
    aux = auxiliary_sequences(rec, rel, upto, induced)
    r, s, t = rel.r, rel.s, rel.t
    a, b, c, d = aux
    failures: list[Failure] = []
    for n in range(1, depth + 1):
        if induced.gamma[n - 1] == 0:
            failures.append(Failure("gamma_tilde", n))
    if b[2] - d[2] != a[2] * (s[1] - r[1]):
        failures.append(Failure("ci1", 2))
    if b[3] - d[3] != a[3] * (s[2] - r[2]):
        failures.append(Failure("ci2", 3))
    if c[3] - b[3] * (s[1] - r[1]) != a[3] * (t[2] - s[2] * (s[1] - r[1])):
        failures.append(Failure("ci3", 3))
    return induced, aux, failures


def check_by_equations(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the
    coefficient equations. Consumes relation indices through depth + 1."""
    induced, (a, b, c, d), failures = _prelude(rec, rel, depth, depth)
    r, s, t = rel.r, rel.s, rel.t
    for n in range(4, depth + 1):
        if b[n] != a[n] * s[n - 1]:
            failures.append(Failure("eqn1", n))
        if c[n] != a[n] * t[n - 1]:
            failures.append(Failure("eqn2", n))
        if d[n] != a[n] * r[n - 1]:
            failures.append(Failure("eqn3", n))
    return InverseVerdict(not failures, induced, tuple(failures))


def _constancy(rec: RecurrencePair, rel: Relation23, depth: int, induced, a):
    """A_n, B_n, C_n for 3 <= n <= depth from the induced recurrence and
    a_n, both through depth + 1."""
    r, s, t = rel.r, rel.s, rel.t
    beta, gamma = rec.beta, rec.gamma
    A: list = [None] * (depth + 1)
    B: list = [None] * (depth + 1)
    C: list = [None] * (depth + 1)
    for n in range(3, depth + 1):
        if t[n + 1] == 0:
            raise DomainError(f"t_{n + 1} = 0: constancy expressions undefined")
        if r[n] == 0:
            raise DomainError(f"r_{n} = 0: constancy expressions undefined")
        ratio = a[n + 1] / t[n + 1]
        A[n] = s[n] * ratio - beta[n - 1] - beta[n] + s[n + 1]
        B[n] = (
            a[n] * ratio
            + (s[n] - beta[n - 1]) * (s[n] * ratio - beta[n] - s[n] + s[n + 1])
            + t[n]
            - a[n]
            - gamma[n - 2]
        )
        C[n] = induced.beta[n] - r[n + 1] - induced.gamma[n - 1] / r[n]
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
    rel.require(depth + 2)
    rec.require(depth + 1, depth + 1)
    induced = induced_recurrence(rec, rel, depth + 1)
    aux = auxiliary_sequences(rec, rel, depth + 1, induced)
    return _constancy(rec, rel, depth, induced, aux.a)


def check_by_constants(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the startup
    condition and constancy of A_n, B_n, C_n for 3 <= n <= depth. Consumes
    relation indices through depth + 2."""
    induced, aux, failures = _prelude(rec, rel, depth, depth + 1)
    if rel.t[4] * rec.gamma[1] != aux.a[4] * rel.t[3]:
        failures.append(Failure("startup", 4))
    A, B, C = _constancy(rec, rel, depth, induced, aux.a)
    before = len(failures)
    for name, seq in (("A_constant", A), ("B_constant", B), ("C_constant", C)):
        for n in range(4, depth + 1):
            if seq[n] != seq[3]:
                failures.append(Failure(name, n))
    constants = (A[3], B[3], C[3]) if len(failures) == before else None
    # bt_n and gt_n read indices n and n + 1 only, so the head is the
    # recurrence induced through depth
    head = RecurrencePair(induced.beta[: depth + 1], induced.gamma[:depth])
    return InverseVerdict(not failures, head, tuple(failures), constants)


@dataclass(frozen=True)
class FunctionalRelation:
    """Constants of the identity lambda (x - c) u = (x^2 + a x + b) v."""

    lam: Fraction
    c: Fraction
    a: Fraction
    b: Fraction

    def to_json(self) -> dict:
        return {
            "lambda": format_rational(self.lam),
            "c": format_rational(self.c),
            "a": format_rational(self.a),
            "b": format_rational(self.b),
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
    for n in range(u.depth - 1):
        m.append(
            fr.lam * (u.moments[n + 1] - fr.c * u.moments[n])
            - fr.a * m[n + 1]
            - fr.b * m[n]
        )
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
    for n in range(depth + 1):
        lhs = fr.lam * (u.moments[n + 1] - fr.c * u.moments[n])
        rhs = v.moments[n + 2] + fr.a * v.moments[n + 1] + fr.b * v.moments[n]
        if lhs != rhs:
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
