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
decide; ``check_both`` runs the prelude once for the two. A value read
more than once (z_n, a_n, a_{n+1}/t_{n+1}) is reduced once; a sum read once
keeps its lcm form, and values only compared (b_n, c_n, d_n, A_n, B_n, C_n)
stay unreduced pairs, each condition decided by cross-multiplication. The index
condition t_n = r_n (s_{n-1} - r_{n-1}) has one test, ``_index_condition``;
the non-degeneracy gate is its negation at n = 2.

A ``Relation23`` holds reduced integer parts, as every ``RecurrencePair``
does (``rational._SequenceModel``), and everything here that decides reads
those; ``r``, ``s`` and ``t`` are Fraction views built on first use.
``compose_ladders`` parses its ladders into parts and composes them by
``_compose_ladders``, which the casebook calls on its ladders' parts, the
induced recurrence is built as reduced parts by ``_sequences``,
``relation_constants`` computes its closed forms on those parts, and
``regularity_criterion`` reads P_n(c) off the L factor of the spectral
step ``functional._darboux`` at c. A verdict's JSON form holds its induced
recurrence as a model leaf, which the command line writes from the parts.

At depth N both checkers read one window, the ``_sequences`` build of every
derived sequence through N (r, s, t through N + 1, beta and gamma through
N): eqn1-eqn3 and C_n for n <= N, and A_n, B_n, which read a_{n+1}, for
n <= N - 1 (``_constancy``).
So every entry point reads the same data and refuses the same inputs.

When either verdict is positive, the functional v of the generated family
satisfies lambda (x - c) u = (x^2 + a x + b) v for constants that
``relation_constants`` computes in closed form; the constancy checker
returns (A, B, C) which must equal (a, b, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DepthError, DomainError, FormatError
from .functional import MomentFunctional, RecurrencePair, _darboux
from .poly import Polynomial, _combination
from .rational import (
    _columns,
    _product,
    _quotient,
    _reduce_pairs,
    _scalar_parts,
    _SequenceModel,
    _sum,
    as_scalar,
)


class Relation23(_SequenceModel):
    """Coefficient triple (r_n), (s_n), (t_n), each indexed from 0, stored
    as reduced integer parts and viewed as tuples of Fractions
    (``_SequenceModel``)."""

    __slots__ = ()
    _KEYS, _NAME = ("r", "s", "t"), "relation"

    def __init__(self, r, s, t):
        super().__init__(r, s, t)
        (r, _), (s, _), (t, _) = self._ints
        if any(r[:1]) or any(s[:1]) or any(t[:2]):
            raise FormatError("convention r0=s0=t0=t1=0 violated")

    @property
    def r(self) -> tuple:
        return self._fractions()[0]

    @property
    def s(self) -> tuple:
        return self._fractions()[1]

    @property
    def t(self) -> tuple:
        return self._fractions()[2]

    def require(self, through: int) -> None:
        r, s, t = self._lengths()
        if min(r, s, t) <= through:
            raise DepthError(
                f"relation coefficients required through index {through}, have "
                f"r:{r - 1}, s:{s - 1}, t:{t - 1}"
            )

    @property
    def max_index(self) -> int:
        return min(self._lengths()) - 1

    def __repr__(self) -> str:
        return f"Relation23(through {self.max_index})"


def _index_condition(parts, n: int) -> bool:
    """Whether t_n = r_n (s_{n-1} - r_{n-1}), by cross-multiplying the
    integer parts ``((r, rd), (s, sd), (t, td))`` of a ``Relation23``."""
    (r, rd), (s, sd), (t, td) = parts
    return (t[n] * rd[n] * sd[n - 1] * rd[n - 1]
            == td[n] * r[n] * (s[n - 1] * rd[n - 1] - r[n - 1] * sd[n - 1]))


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
    parts = rel._integers()
    (r, _), _, (t, _) = parts
    gate = not _index_condition(parts, 2)  # t_2 != r_2 (s_1 - r_1)
    if gate and r[3] and t[3]:
        return RelationCase(RelationTag.NONDEGENERATE23, {})
    # a degenerate shape reports whole sequences
    r, s, t = rel.r, rel.s, rel.t
    m = rel.max_index
    diff = [s[n] - r[n] for n in range(m + 1)]
    diff1 = diff[1]
    if not gate:
        if diff1 == 0:
            return RelationCase(RelationTag.TRIVIAL11, {})
        return RelationCase(RelationTag.TYPE12, {"a": diff})
    if r[3] == 0:
        b = [None, None] + [t[n] - r[n] * diff[n - 1] for n in range(2, m + 1)]
        return RelationCase(RelationTag.TYPE13, {"a": diff, "b": b})
    # t_3 = 0
    if t[2] == s[2] * diff1:
        return RelationCase(RelationTag.TYPE21, {"c": [-v for v in diff]})
    # only c1 - d1 = r1 - s1 is pinned at n = 1; report r1, s1 unless it is 0
    reduced = {}
    for key, x in (("c", r), ("d", s)):
        head = [Fraction(0), x[1], x[2] - t[2] / diff1] if diff1 else [None] * 3
        reduced[key] = head + list(x[3 : m + 1])
    return RelationCase(RelationTag.TYPE22, reduced)


def generate_q(p: list[Polynomial], rel: Relation23) -> list[Polynomial]:
    """Unfold the relation into the family it defines:
    Q_n = P_n + s_n P_{n-1} + t_n P_{n-2} - r_n Q_{n-1}, Q_0 = 1."""
    count = min(len(p), rel.max_index + 1)
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
    only the difference), so r_1 = 0. The ladders are read as reduced parts
    and composed by ``_compose_ladders``.
    """
    return _compose_ladders(*(_scalar_parts([0, *seq[1:]]) for seq in (a, b, l)))


def _compose_ladders(a: tuple, b: tuple, l: tuple) -> Relation23:
    """``compose_ladders`` on the ladders' reduced parts (nums, dens), each
    read from index 1 (index 0 is a pad): the relation runs through the
    shortest ladder's last index, and holds parts each reduced from those
    of the ladders."""
    (an, ad), (bn, bd), (ln, ld) = a, b, l
    top = min(len(an), len(bn), len(ln)) - 1
    if top < 2:
        raise DepthError("ladder coefficients required through index 2")
    s1 = _sum(*_sum(an[1], ad[1], -bn[1], bd[1]), ln[1], ld[1])
    r, s, t = [(0, 1)] * 2, [(0, 1), s1], [(0, 1)] * 2
    gap = _sum(bn[1], bd[1], -ln[1], ld[1])
    for n in range(2, top + 1):
        if not gap[0]:
            raise DomainError(f"b_{n - 1} = l_{n - 1}: the ladders do not compose at n={n}")
        prev, gap = gap, _sum(bn[n], bd[n], -ln[n], ld[n])
        rho = _quotient(*gap, *prev)
        lrho = _product(ln[n - 1], ld[n - 1], *rho)
        r.append(_product(bn[n - 1], bd[n - 1], *rho))
        s.append(_sum(an[n], ad[n], *lrho))
        t.append(_product(an[n - 1], ad[n - 1], *lrho))
    return Relation23._from_parts(*map(_columns, (r, s, t)))


class AuxiliarySequences(NamedTuple):
    """The working sequences of the inverse problem, indexed so seq[n] is
    the value at n; entries below each sequence's first index are None."""

    a: list
    b: list
    c: list
    d: list


def _sequences(rec: RecurrencePair, rel: Relation23, upto: int):
    """The derived sequences of the inverse problem, from one pass over the
    integer parts of r, s, t, beta and gamma: the induced recurrence
    bt_n = beta~_n (0 <= n <= upto) and gt_n = gamma~_n (1 <= n <= upto)
    and the auxiliary sequences a_n, b_n, c_n, d_n through ``upto``,
    whatever part of them a caller reads. An entry at n reads r, s, t
    through n + 1 and beta, gamma through n: the build consumes relation
    indices through upto + 1 and recurrence ones through upto.

    Indices follow ``RecurrencePair``: gamma_n is ``rec.gamma[n-1]`` and
    gt_n is entry n - 1 of gt. With z_n = s_{n+1} - s_n - beta_n,

        bt_n = r_{n+1} - r_n - z_n                               (n >= 0)
        a_n  = gamma_n + t_n - t_{n+1} + s_n (z_n + beta_{n-1})  (n >= 1)
        gt_n = a_n - r_n (z_n + bt_{n-1})                        (n >= 1)
        b_n  = s_n gamma_{n-1} + t_n (z_n + beta_{n-2})          (n >= 2)
        c_n  = t_n gamma_{n-2}                                   (n >= 3)
        d_n  = r_n gt_{n-1}                                      (n >= 2)

    bt, gt and z (0 <= n <= upto), each read again, come back as reduced
    parts (numerators, denominators > 0), one gcd an entry, and a_n as a
    reduced pair; b_n, c_n and d_n, only compared, are unreduced pairs. The
    integer parts of r, s, t, beta and gamma come back last, as (numerators,
    denominators) pairs in that order, so the tails need not take them again."""
    if upto < 0:
        raise DepthError("upto must be >= 0")
    rel.require(upto + 1)
    rec.require(upto, upto)
    parts = (*rel._integers(), *rec._integers())
    (r, rd), (s, sd), (t, td), (p, pd), (g, gd) = parts
    btn, btd, gtn, gtd, zns, zds = [], [], [], [], [], []
    a, b, c, d = ([None] * (upto + 1) for _ in range(4))
    lcm, gcd = math.lcm, math.gcd
    # a sum read once stays over L, the lcm of its terms' denominators,
    # written out term by term; a value read more than once is reduced once.
    # Each of z_n + beta_{n-1}, z_n + bt_{n-1}, z_n + beta_{n-2} is first a
    # pair u over its own lcm m
    for n in range(upto + 1):
        # z_n, then bt_n
        zd = lcm(sd[n + 1], sd[n], pd[n])
        zn = s[n + 1] * (zd // sd[n + 1]) - s[n] * (zd // sd[n]) - p[n] * (zd // pd[n])
        k = gcd(zn, zd)
        zn, zd = zn // k, zd // k
        zns.append(zn)
        zds.append(zd)
        L = lcm(rd[n + 1], rd[n], zd)
        x = r[n + 1] * (L // rd[n + 1]) - r[n] * (L // rd[n]) - zn * (L // zd)
        k = gcd(x, L)
        btn.append(x // k)
        btd.append(L // k)
        if n == 0:
            continue
        # a_n, then gt_n
        sn, snd, tn, tnd = s[n], sd[n], t[n], td[n]
        m = lcm(zd, pd[n - 1])
        u = zn * (m // zd) + p[n - 1] * (m // pd[n - 1])
        d1 = snd * m
        L = lcm(gd[n - 1], tnd, td[n + 1], d1)
        x = (g[n - 1] * (L // gd[n - 1]) + tn * (L // tnd) - t[n + 1] * (L // td[n + 1])
             + sn * u * (L // d1))
        k = gcd(x, L)
        an, ad = a[n] = (x // k, L // k)
        m = lcm(zd, btd[n - 1])
        u = zn * (m // zd) + btn[n - 1] * (m // btd[n - 1])
        d1 = rd[n] * m
        L = lcm(ad, d1)
        x = an * (L // ad) - r[n] * u * (L // d1)
        k = gcd(x, L)
        gtn.append(x // k)
        gtd.append(L // k)
        if n >= 2:
            m = lcm(zd, pd[n - 2])
            u = zn * (m // zd) + p[n - 2] * (m // pd[n - 2])
            d1, d2 = snd * gd[n - 2], tnd * m
            L = lcm(d1, d2)
            b[n] = (sn * g[n - 2] * (L // d1) + tn * u * (L // d2), L)
            d[n] = (r[n] * gtn[n - 2], rd[n] * gtd[n - 2])
            if n >= 3:
                c[n] = (tn * g[n - 3], tnd * gd[n - 3])
    return (btn, btd), (gtn, gtd), (zns, zds), AuxiliarySequences(a, b, c, d), parts


def induced_recurrence(rec: RecurrencePair, rel: Relation23, upto: int) -> RecurrencePair:
    """The recurrence pair the generated family must satisfy if it is a
    MOPS: beta~_0..beta~_upto and gamma~_1..gamma~_upto. The gamma~ entries
    may be zero here; whether they qualify is the checkers' business."""
    bt, gt, *_ = _sequences(rec, rel, upto)
    return RecurrencePair._from_parts(bt, gt)


def auxiliary_sequences(rec: RecurrencePair, rel: Relation23, upto: int) -> AuxiliarySequences:
    """a_n (n>=1), b_n (n>=2), c_n (n>=3), d_n (n>=2) through ``upto``."""
    return AuxiliarySequences(*map(_reduce_pairs, _sequences(rec, rel, upto)[3]))


class Failure(NamedTuple):
    """A failed condition and its index (None if it has none). In a payload
    tree it is a leaf, as a Fraction is: the command line writes it as the
    object {"condition": ..., "n": ...}, or as the two CSV rows of those keys."""

    condition: str
    n: Optional[int]


@dataclass(frozen=True)
class InverseVerdict:
    """A checker's answer. ``constancy`` holds the lists A, B, C (A_n, B_n
    for 3 <= n < depth, C_n for 3 <= n <= depth) that ``check_by_constants``
    tested, as unreduced (numerator, denominator) pairs, None from
    ``check_by_equations``; it is not part of the JSON form, which holds
    ``induced`` itself, a leaf that the command line writes as the object
    of its ``to_json()``."""

    is_mops: bool
    induced: RecurrencePair
    failures: tuple[Failure, ...]
    constants: Optional[tuple[Fraction, Fraction, Fraction]] = None
    constancy: Optional[tuple[list, list, list]] = None

    def to_json(self) -> dict:
        constants = None if self.constants is None else dict(zip("ABC", self.constants))
        return {"is_mops": self.is_mops, "failures": list(self.failures),
                "induced": self.induced, "constants": constants}


def _prelude(rec: RecurrencePair, rel: Relation23, depth: int):
    """What the two checkers share: admission of the data (and the
    admitted case), one ``_sequences`` build through depth (the window of
    both checkers), and the conditions gamma~_n != 0 (n <= depth) and
    ci1-ci3. Returns the case, the induced recurrence through depth, the
    build and the failures, which each checker's tail copies before it
    appends its own."""
    if depth < 4:
        raise DepthError("inverse-problem checks need depth >= 4")
    rec.require_regular(depth)
    case = classify(rel)
    if case.tag is not RelationTag.NONDEGENERATE23:
        raise DomainError(
            f"relation classifies as {case.tag.value}; the inverse checkers accept only "
            "NonDegenerate23 data (run the classify command to inspect the relation shape)"
        )
    # zeros decided on integer numerators, before the build reads the recurrence; classify
    # has refused r_3 = 0 and t_3 = 0
    rel.require(depth + 1)
    (r, rd), (s, sd), (t, td) = rel._integers()
    for n in range(4, depth + 2):
        if not r[n]:
            raise DomainError(f"r_{n} = 0: data violates the non-degeneracy hypothesis")
        if not t[n]:
            raise DomainError(f"t_{n} = 0: data violates the non-degeneracy hypothesis")
    built = _sequences(rec, rel, depth)
    bt, gt, _, (a, b, c, d), _ = built
    induced = RecurrencePair._from_parts(bt, gt)
    failures = []
    if 0 in gt[0]:  # one scan of the numerators decides gamma~_n != 0 for every n
        failures = [Failure("gamma_tilde", n) for n, g in enumerate(gt[0], 1) if not g]
    # ci1: b_2 - d_2 = a_2 e, ci2: b_3 - d_3 = a_3 f and ci3: c_3 - b_3 e = a_3 h,
    # each by cross-multiplication
    (a2, a2d), (a3, a3d) = a[2], a[3]
    (b2, b2d), (b3, b3d), (c3, c3d), (d2, d2d), (d3, d3d) = b[2], b[3], c[3], d[2], d[3]
    e, ed = s[1] * rd[1] - r[1] * sd[1], sd[1] * rd[1]  # s_1 - r_1
    f, fd = s[2] * rd[2] - r[2] * sd[2], sd[2] * rd[2]  # s_2 - r_2
    h, hd = t[2] * sd[2] * ed - td[2] * s[2] * e, td[2] * sd[2] * ed  # t_2 - s_2 e
    if (b2 * d2d - d2 * b2d) * a2d * ed != a2 * e * b2d * d2d:
        failures.append(Failure("ci1", 2))
    if (b3 * d3d - d3 * b3d) * a3d * fd != a3 * f * b3d * d3d:
        failures.append(Failure("ci2", 3))
    if (c3 * b3d * ed - b3 * e * c3d) * a3d * hd != a3 * h * c3d * b3d * ed:
        failures.append(Failure("ci3", 3))
    return case, induced, built, failures


def _equations_tail(depth: int, induced, built, failures) -> InverseVerdict:
    """The verdict of the coefficient equations eqn1-eqn3, 4 <= n <= depth,
    on top of the prelude's failures."""
    failures = list(failures)
    a, b, c, d = built[3]
    (r, rd), (s, sd), (t, td) = built[4][:3]
    for n in range(4, depth + 1):
        # b_n = a_n s_{n-1}, c_n = a_n t_{n-1}, d_n = a_n r_{n-1} by cross-multiplication
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = a[n], b[n], c[n], d[n]
        if bn * ad * sd[n - 1] != an * s[n - 1] * bd:
            failures.append(Failure("eqn1", n))
        if cn * ad * td[n - 1] != an * t[n - 1] * cd:
            failures.append(Failure("eqn2", n))
        if dn * ad * rd[n - 1] != an * r[n - 1] * dd:
            failures.append(Failure("eqn3", n))
    return InverseVerdict(not failures, induced, tuple(failures))


def check_by_equations(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the
    coefficient equations. Consumes relation indices through depth + 1."""
    _, induced, built, failures = _prelude(rec, rel, depth)
    return _equations_tail(depth, induced, built, failures)


def _constancy(depth: int, built):
    """A_n, B_n (3 <= n < depth) and C_n (3 <= n <= depth) from a
    ``_sequences`` build through depth, as unreduced (numerator, denominator
    > 0) pairs, None elsewhere. A_n and B_n read a_{n+1} / t_{n+1}, reduced,
    and the build's reduced z_n: A_n = w_n + e_n, where w_n = s_n a_{n+1} /
    t_{n+1} + z_n is B_n's middle factor and e_n = s_n - beta_{n-1}. C_n
    reads the build through n, as r_{n+1} cancels against bt_n. It
    divides by r_n (3 <= n <= depth) and t_{n+1} (3 <= n < depth), which its
    callers have found nonzero: ``classify`` and ``_prelude`` for the
    checkers, a scan in ``constant_sequences``."""
    (btn, btd), (gtn, gtd), (zn, zd), (a, _, _, _), parts = built
    (rn, rd), (sn, sd), (tn, td), (bn, bd), (gn, gd) = parts
    A, B, C = ([None] * (depth + 1) for _ in range(3))
    lcm, gcd = math.lcm, math.gcd
    for n in range(3, depth + 1):
        # C_n = bt_n - r_{n+1} - gt_n / r_n
        d1, d3 = btd[n], gtd[n - 1] * rn[n]
        L = lcm(d1, rd[n + 1], d3)
        C[n] = (btn[n] * (L // d1) - rn[n + 1] * (L // rd[n + 1])
                - gtn[n - 1] * rd[n] * (L // d3), L)
        if n == depth:
            break
        # ratio = a_{n+1} / t_{n+1} = p / q, reduced by the two cross gcds, q > 0
        (p, q), u, v = a[n + 1], tn[n + 1], td[n + 1]
        g, h = gcd(p, u), gcd(v, q)
        p, q = p // g * (v // h), q // h * (u // g)
        if q < 0:
            p, q = -p, -q
        # w_n = s_n ratio + z_n, B_n's middle factor, then A_n = w_n + e_n with
        # e_n = s_n - beta_{n-1}, since s_{n+1} - beta_n = z_n + s_n
        d1 = sd[n] * q
        wd = lcm(d1, zd[n])
        w = sn[n] * p * (wd // d1) + zn[n] * (wd // zd[n])
        ed = lcm(sd[n], bd[n - 1])
        e = sn[n] * (ed // sd[n]) - bn[n - 1] * (ed // bd[n - 1])
        xd = lcm(wd, ed)
        A[n] = (w * (xd // wd) + e * (xd // ed), xd)
        # B_n = a_n ratio + e_n w_n + t_n - a_n - gamma_{n-1}
        an, ad = a[n]
        d1, d2 = ad * q, ed * wd
        L = lcm(d1, d2, td[n], gd[n - 2])
        B[n] = (an * (p - q) * (L // d1) + e * w * (L // d2)
                + tn[n] * (L // td[n]) - gn[n - 2] * (L // gd[n - 2]), L)
    return A, B, C


def constant_sequences(
    rec: RecurrencePair, rel: Relation23, depth: int
) -> tuple[list, list, list]:
    """The three expressions whose constancy characterizes orthogonality,
    as lists with A_n, B_n defined for 3 <= n <= depth - 1 and C_n for
    3 <= n <= depth (None elsewhere), so depth >= 4. Consumes relation
    indices through depth + 1 and recurrence coefficients through depth,
    as the checkers do; every r_n, t_n divided by must be nonzero."""
    if depth < 4:
        raise DepthError("constant sequences need depth >= 4")
    built = _sequences(rec, rel, depth)
    (r, _), _, (t, _) = built[4][:3]
    for n in range(3, depth + 1):  # the zeros that _prelude refuses for the checkers
        if not r[n]:
            raise DomainError(f"r_{n} = 0: constancy expressions undefined")
        if n < depth and not t[n + 1]:
            raise DomainError(f"t_{n + 1} = 0: constancy expressions undefined")
    return tuple(map(_reduce_pairs, _constancy(depth, built)))


def _constants_tail(depth: int, induced, built, failures) -> InverseVerdict:
    """The verdict of the startup condition and the constancy of A_n, B_n
    and C_n on top of the prelude's failures, from its build through depth."""
    failures = list(failures)
    # t_4 gamma_2 = a_4 t_3 by cross-multiplication
    (a4, a4d), (t, td), (g, gd) = built[3].a[4], built[4][2], built[4][4]
    if t[4] * g[1] * a4d * td[3] != a4 * t[3] * td[4] * gd[1]:
        failures.append(Failure("startup", 4))
    A, B, C = constancy = _constancy(depth, built)
    before = len(failures)
    for name, seq, last in (("A_constant", A, depth - 1), ("B_constant", B, depth - 1),
                            ("C_constant", C, depth)):
        x3, d3 = seq[3]  # seq_n = seq_3 by cross-multiplication
        for n in range(4, last + 1):
            if seq[n][0] * d3 != x3 * seq[n][1]:
                failures.append(Failure(name, n))
    constants = tuple(Fraction(*seq[3]) for seq in constancy) if len(failures) == before else None
    return InverseVerdict(not failures, induced, tuple(failures), constants, constancy)


def check_by_constants(rec: RecurrencePair, rel: Relation23, depth: int) -> InverseVerdict:
    """Orthogonality of the generated family, decided through the startup
    condition and constancy of A_n, B_n (3 <= n < depth) and C_n
    (3 <= n <= depth). Consumes relation indices through depth + 1."""
    _, induced, built, failures = _prelude(rec, rel, depth)
    return _constants_tail(depth, induced, built, failures)


def check_both(
    rec: RecurrencePair, rel: Relation23, depth: int
) -> tuple[RelationCase, InverseVerdict, InverseVerdict]:
    """The admitted case and the verdicts of ``check_by_equations`` and
    ``check_by_constants`` from one shared prelude and one build: the same
    verdicts and refusals as theirs. Consumes relation indices through depth + 1."""
    case, induced, built, failures = _prelude(rec, rel, depth)
    return (
        case,
        _equations_tail(depth, induced, built, failures),
        _constants_tail(depth, induced, built, failures),
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
    coefficients and the first recurrence coefficients of both families.
    With gate = t_2 - r_2 (s_1 - r_1), w = t_3 - r_3 (s_2 - r_2),
    k = (r_3 t_2 + (t_3 - r_3 s_2)(s_1 - r_1)) / gate and m = gt_2 / t_3,

        c = beta_0 - gamma_1 w / (r_3 gate),   lambda = r_3 gt_1 gt_2 / (t_3 gamma_1),
        a = m k - bt_0 - bt_1,                 b = bt_0 bt_1 - gt_1 + gt_1 m w / gate - bt_0 m k,

    where bt, gt is the induced recurrence. Every operation runs on the
    reduced pairs of one ``_sequences`` build through 2, reduced as
    ``fractions`` reduces it (``rational._sum``, ``_product``, ``_quotient``);
    only the four results become Fractions."""
    (btn, btd), (gtn, gtd), _, _, parts = _sequences(rec, rel, 2)
    (r, rd), (s, sd), (t, td), (p, pd), (g, gd) = parts
    # the four operations on reduced (numerator, denominator) pairs
    add = lambda x, y: _sum(*x, *y)
    sub = lambda x, y: _sum(x[0], x[1], -y[0], y[1])
    mul = lambda x, y: _product(*x, *y)
    div = lambda x, y: _quotient(*x, *y)
    r1, r2, r3 = zip(r[1:4], rd[1:4])
    s1, s2 = zip(s[1:3], sd[1:3])
    t2, t3 = zip(t[2:4], td[2:4])
    beta0, gamma1 = (p[0], pd[0]), (g[0], gd[0])
    bt0, bt1 = zip(btn[:2], btd[:2])
    gt1, gt2 = zip(gtn[:2], gtd[:2])
    e = sub(s1, r1)
    gate = sub(t2, mul(r2, e))
    if not gate[0]:
        raise DomainError("t2 - r2 (s1 - r1) must be nonzero")
    if not r3[0] or not t3[0]:
        raise DomainError("r3 and t3 must be nonzero")
    if not gamma1[0]:
        raise DomainError("gamma_1 must be nonzero")
    if not gt1[0] or not gt2[0]:
        raise DomainError("gamma~_1 and gamma~_2 must be nonzero")
    w = sub(t3, mul(r3, sub(s2, r2)))
    k = div(add(mul(r3, t2), mul(sub(t3, mul(r3, s2)), e)), gate)
    m = div(gt2, t3)
    mk = mul(m, k)
    c = sub(beta0, div(mul(gamma1, w), mul(r3, gate)))
    lam = div(mul(r3, mul(gt1, gt2)), mul(t3, gamma1))
    a = sub(mk, add(bt0, bt1))
    b = add(sub(mul(bt0, bt1), gt1), sub(div(mul(mul(gt1, m), w), gate), mul(bt0, mk)))
    return FunctionalRelation(*(Fraction(*pair) for pair in (lam, c, a, b)))


def v_moments_from_relation(
    u: MomentFunctional, fr: FunctionalRelation, beta0_tilde
) -> MomentFunctional:
    """Moments of v from lambda (x - c) u = (x^2 + a x + b) v, normalized so
    v_0 = 1; v_1 must equal the generated family's beta~_0, and the identity
    then pins every later moment by forward substitution
    (``MomentFunctional._divide``)."""
    if not u.is_normalized:
        raise DomainError("u must be normalized (mu_0 = 1)")
    if fr.lam == 0:
        raise DomainError("lambda must be nonzero")
    return u._divide(Polynomial([-fr.lam * fr.c, fr.lam]), Polynomial([fr.b, fr.a, 1]),
                     [1, beta0_tilde], u.depth)


def verify_functional_relation(
    u: MomentFunctional, v: MomentFunctional, fr: FunctionalRelation, depth: int
) -> tuple[bool, Optional[int]]:
    """Test lambda (mu_{n+1} - c mu_n) = v_{n+2} + a v_{n+1} + b v_n for
    0 <= n <= depth; returns (ok, first failing n). Both sides are left
    products, (x - c) u and (x^2 + a x + b) v. lambda multiplies after the
    product: ``left_multiply`` refuses a zero polynomial, and lambda = 0 is
    tested too."""
    if depth < 0:
        raise DepthError(f"depth must be >= 0, got {depth}")
    if u.depth < depth + 1 or v.depth < depth + 2:
        raise DepthError(
            f"need u depth >= {depth + 1} and v depth >= {depth + 2}, "
            f"have {u.depth} and {v.depth}"
        )
    lhs = u.left_multiply(Polynomial([-fr.c, 1])).moments
    rhs = v.left_multiply(Polynomial([fr.b, fr.a, 1])).moments
    bad = next((n for n in range(depth + 1) if fr.lam * lhs[n] != rhs[n]), None)
    return bad is None, bad


def regularity_criterion(
    rec: RecurrencePair, c, rel: Relation23, depth: int
) -> tuple[bool, bool]:
    """Two sides of the same coin for (x - c) u, where ``rec`` is the
    recurrence of the MOPS (P_n) of u: no P_n (n <= depth) vanishes at c,
    and no index has t_n = r_n (s_{n-1} - r_{n-1}). For a genuinely
    non-degenerate orthogonal pair the booleans agree. P_n(c) is read off
    L's subdiagonal in J(rec) - c I = U L from k_1 = beta_0 - c (the
    Christoffel step ``functional._darboux`` at c), no P_n is built:
    P_n(c) = (-1)^n k_1 ... k_n, so P_1(c)..P_depth(c) are nonzero exactly
    when the step meets no zero k_n, n <= depth. The indices are compared by
    cross-multiplying integer parts (``_index_condition``), entry by entry,
    up to the first equality."""
    if depth < 0:
        raise DepthError(f"depth must be >= 0, got {depth}")
    rec.require(depth - 1, depth - 1)
    rel.require(depth if depth >= 2 else 2)
    c = as_scalar(c)
    (bn, bd), _ = rec._integers()
    no_root = depth == 0 or (
        _darboux(rec, c, Fraction(bn[0], bd[0]) - c, depth)[0].first_vanishing is None)
    parts = rel._integers()
    no_index = not any(_index_condition(parts, n) for n in range(2, depth + 1))
    return no_root, no_index
