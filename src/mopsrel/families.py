"""Jacobi-type recurrence coefficients over the rationals.

Parameters alpha, beta > -1. The general formulas have removable
singularities at n = 0 when alpha + beta = 0 and at n = 1 when
alpha + beta = -1; the cancelled forms are used there, so every admissible
rational parameter pair is covered exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .functional import RecurrencePair, norm_squared
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


def jacobi_recurrence(params: JacobiParams, count: int) -> RecurrencePair:
    """beta_0..beta_{count-1} and gamma_1..gamma_{count-1}."""
    if count < 1:
        raise DomainError("count must be >= 1")
    # alpha = a / D and beta = b / D over D = lcm of their denominators,
    # so each entry is one Fraction of integers; m = (2n + alpha + beta) D
    alpha, beta = params.alpha, params.beta
    D = math.lcm(alpha.denominator, beta.denominator)
    a = alpha.numerator * (D // alpha.denominator)
    b = beta.numerator * (D // beta.denominator)
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


def jacobi_norm_ratio(params: JacobiParams, n: int, float_check: bool = False) -> Fraction:
    """<w, W_n^2> / <w, 1> = gamma_1 ... gamma_n, exactly.

    With float_check=True the value is also compared against the gamma
    function quotient closed form to a relative 1e-10; a mismatch raises.
    """
    rec = jacobi_recurrence(params, n + 1)
    value = norm_squared(rec, n)
    if float_check and n >= 1:
        a, b = float(params.alpha), float(params.beta)
        s = a + b
        log_value = (
            2 * n * math.log(2.0)
            + math.lgamma(n + 1)
            + math.lgamma(n + a + 1)
            + math.lgamma(n + b + 1)
            + math.lgamma(n + s + 1)
            + math.lgamma(s + 2)
            - math.lgamma(2 * n + s + 1)
            - math.lgamma(2 * n + s + 2)
            - math.lgamma(a + 1)
            - math.lgamma(b + 1)
        )
        closed = math.exp(log_value)
        exact = float(value)
        if abs(closed - exact) > 1e-10 * max(abs(exact), 1e-300):
            raise DomainError(
                f"norm ratio float check failed at n={n}: {exact} vs {closed}"
            )
    return value
