import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mopsrel import (
    Failure,
    JacobiParams,
    Relation23,
    RecurrencePair,
    classify,
    jacobi_recurrence,
    RelationTag,
)
from mopsrel.casebook import _spectral_chain
from oracles import bessel_recurrence, hermite_recurrence, laguerre_recurrence


def rel_from7(r1, r2, r3, s1, s2, t2, t3, pad: int = 0) -> Relation23:
    """Relation with the seven classification-relevant coefficients set and
    ``pad`` extra nonzero entries past index 3."""
    extra = [Fraction(1)] * pad
    return Relation23(
        [0, r1, r2, r3] + extra,
        [0, s1, s2, 0] + extra,
        [0, 0, t2, t3] + extra,
    )


def ladder_parts(seq) -> tuple[list, list]:
    """The ladder [unused, k_1, ..., k_top] (ints or Fractions) as the casebook's
    certificates read it: the numerators and denominators of k_0 = 0, k_1, ..., k_top."""
    values = [0, *seq[1:]]
    return [v.numerator for v in values], [v.denominator for v in values]


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not nonzero or v != 0:
            return v


def random_gated_instance(rng: random.Random, depth: int):
    """Random (recurrence, relation) with the relation passing the
    non-degeneracy gate and the checkers' nonzero hypotheses."""
    while True:
        r = [Fraction(0)] + [
            random_fraction(rng, nonzero=n >= 3) for n in range(1, depth + 3)
        ]
        s = [Fraction(0)] + [random_fraction(rng) for _ in range(depth + 2)]
        t = [Fraction(0), Fraction(0)] + [
            random_fraction(rng, nonzero=n >= 3) for n in range(2, depth + 3)
        ]
        rel = Relation23(r, s, t)
        if classify(rel).tag is RelationTag.NONDEGENERATE23:
            break
    beta = [random_fraction(rng) for _ in range(depth + 2)]
    gamma = [random_fraction(rng, nonzero=True) for _ in range(depth + 2)]
    return RecurrencePair(beta, gamma), rel


def random_spectral_chain(rng: random.Random, depth: int):
    """A positive instance of the spectral-chain builder at ``depth``: w drawn
    from the Jacobi (alpha, beta > -1), Laguerre (alpha > -1) or Hermite
    families, from random quasi-definite recurrences (beta_n = k/m with
    |k| <= 12, gamma_n = +-k/m with 1 <= k <= 12, 1 <= m <= 4, regular by
    Favard's theorem), or below depth 100 also from the Bessel family (a =
    k/6, 7 <= k <= 24); neither of the last two is positive-definite (at
    depth 120 a Bessel chain costs about three of the others), and rationals
    z1, c, z2, a1, c1 with c apart from z1 and z2, drawn again while the
    builder refuses them by a named failure. Returns the builder's chain and
    (w_rec, z1, c, z2, a1, c1)."""
    while True:
        family = rng.choice(("jacobi", "laguerre", "hermite", "quasi-definite")
                            + ("bessel",) * (depth < 100))
        if family == "jacobi":
            params = JacobiParams(*(Fraction(rng.randint(-5, 18), 6) for _ in range(2)))
            w_rec = jacobi_recurrence(params, depth + 4)
        elif family == "laguerre":
            w_rec = laguerre_recurrence(Fraction(rng.randint(-5, 18), 6), depth + 4)
        elif family == "hermite":
            w_rec = hermite_recurrence(depth + 4)
        elif family == "quasi-definite":
            w_rec = RecurrencePair(
                [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(depth + 4)],
                [rng.choice((-1, 1)) * Fraction(rng.randint(1, 12), rng.randint(1, 4))
                 for _ in range(depth + 3)])
        else:
            w_rec = bessel_recurrence(Fraction(rng.randint(7, 24), 6), depth + 4)
        z1, c, z2, a1, c1 = (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(5))
        if c in (z1, z2):
            continue
        chain = _spectral_chain(w_rec, z1, c, z2, a1, c1, depth)
        if not isinstance(chain, Failure):
            return chain, (w_rec, z1, c, z2, a1, c1)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260818)
