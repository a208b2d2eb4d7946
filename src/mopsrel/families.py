"""Jacobi-type recurrence coefficients and moments over the rationals.

Parameters alpha, beta > -1. The general formulas have removable
singularities at n = 0 when alpha + beta = 0 and at n = 1 when
alpha + beta = -1; the cancelled forms are used there, so every admissible
rational parameter pair is covered exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthError, DomainError
from .functional import MomentFunctional, RecurrencePair
from .poly import _divide_content
from .rational import as_scalar


@dataclass(frozen=True)
class JacobiParams:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        object.__setattr__(self, "beta", as_scalar(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise DomainError(
                f"jacobi parameters must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )


def _integer_params(params: JacobiParams) -> tuple[int, int, int]:
    """(D, a, b) with alpha = a / D and beta = b / D over D = lcm of their
    denominators, so each entry built from them is one Fraction of integers."""
    alpha, beta = params.alpha, params.beta
    D = math.lcm(alpha.denominator, beta.denominator)
    return D, alpha.numerator * (D // alpha.denominator), beta.numerator * (D // beta.denominator)


def jacobi_recurrence(params: JacobiParams, count: int) -> RecurrencePair:
    """beta_0..beta_{count-1} and gamma_1..gamma_{count-1}."""
    if count < 1:
        raise DomainError("count must be >= 1")
    # m = (2n + alpha + beta) D
    D, a, b = _integer_params(params)
    s = a + b
    betas = [Fraction(b - a, s + 2 * D)]
    diff = b * b - a * a
    for n in range(1, count):
        m = 2 * n * D + s
        betas.append(Fraction(diff, m * (m + 2 * D)))
    gammas = []
    if count >= 2:
        m = s + 2 * D
        gammas.append(Fraction(4 * D * (D + a) * (D + b), m * m * (m + D)))
    for n in range(2, count):
        m = 2 * n * D + s
        gammas.append(Fraction(
            4 * n * D * (n * D + a) * (n * D + b) * (n * D + s),
            (m - D) * m * m * (m + D),
        ))
    return RecurrencePair(betas, gammas)


def jacobi_moments(params: JacobiParams, depth: int) -> MomentFunctional:
    """Moments mu_0..mu_depth of the normalized Jacobi functional, from its
    Pearson equation D((1 - x^2) w) = ((beta - alpha) - (alpha + beta + 2) x) w.
    Tested on x^n it gives the two-term recursion

        (n + alpha + beta + 2) mu_{n+1} = (beta - alpha) mu_n + n mu_{n-1},

    whose divisor is positive for every admissible pair. Each step keeps
    two neighbouring moments over one denominator and costs one content
    reduction, so the cost is linear in the depth, where the lattice sweep
    of ``moments_from_recurrence`` is quadratic.
    """
    if depth < 0:
        raise DepthError("depth must be >= 0")
    # ((n + 2) D + a + b) mu_{n+1} = (b - a) mu_n + n D mu_{n-1}, with
    # mu_{n-1} = x / e and mu_n = y / e
    D, a, b = _integer_params(params)
    nums, dens = [1], [1]
    x, y, e = 0, 1, 1
    for n in range(depth):
        c = (n + 2) * D + a + b
        (x, y), e = _divide_content([y * c, (b - a) * y + n * D * x], e * c)
        nums.append(y)
        dens.append(e)
    return MomentFunctional._from_pairs(nums, dens)


_CHEBYSHEV_PARAMS = {
    2: (Fraction(1, 2), Fraction(1, 2)),
    3: (Fraction(-1, 2), Fraction(1, 2)),
    4: (Fraction(1, 2), Fraction(-1, 2)),
}


def chebyshev_kind(kind: int, count: int) -> RecurrencePair:
    """Second, third, or fourth kind; all have gamma_n = 1/4 and
    beta_0 = 0, 1/2, -1/2 respectively with beta_n = 0 for n >= 1."""
    if kind not in _CHEBYSHEV_PARAMS:
        raise DomainError(f"kind must be 2, 3, or 4, got {kind}")
    a, b = _CHEBYSHEV_PARAMS[kind]
    return jacobi_recurrence(JacobiParams(a, b), count)
