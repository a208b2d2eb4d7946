"""Independent reference computations used to pin expected test values.

These deliberately use different algorithms from the library: determinants
by exact Gaussian elimination, moments by explicit enumeration of weighted
lattice paths or by solving the triangular orthogonality system,
orthogonal polynomials by the Hankel determinant formula, and their values
at a point by the three-term walk, with no pivot. All of it is plain
Fraction arithmetic. Slow but trustworthy; keep the sizes small.
"""

import math
from fractions import Fraction
from itertools import product

from mopsrel import Polynomial, RecurrencePair


def det(rows) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            for j in range(col, n):
                m[i][j] -= f * m[col][j]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def hankel_det(moments, k: int) -> Fraction:
    """Delta_k: determinant of the (k+1)x(k+1) moment matrix (mu_{i+j})."""
    return det([[moments[i + j] for j in range(k + 1)] for i in range(k + 1)])


def path_moments(beta, gamma, depth: int) -> list:
    """mu_n by brute-force enumeration of lattice paths of length n from
    level 0 to level 0: an up step weighs 1, a flat step at level l weighs
    beta_l, a down step from level l weighs gamma_l. Exponential in depth."""
    out = [Fraction(1)]
    for n in range(1, depth + 1):
        total = Fraction(0)
        for steps in product((-1, 0, 1), repeat=n):
            lvl = 0
            weight = Fraction(1)
            dead = False
            for i, st in enumerate(steps):
                if st == 1:
                    lvl += 1
                    # a path above the number of remaining steps can
                    # never return to level 0
                    if lvl > n - i - 1:
                        dead = True
                        break
                elif st == 0:
                    weight *= beta[lvl]
                else:
                    if lvl == 0:
                        dead = True
                        break
                    weight *= gamma[lvl - 1]
                    lvl -= 1
            if not dead and lvl == 0:
                total += weight
        out.append(total)
    return out


def orthogonality_moments(beta, gamma, depth: int) -> list:
    """mu_0..mu_depth with mu_0 = 1 from orthogonality alone: P_k is built
    as a plain coefficient list from the recurrence, and <u, P_k> = 0 with
    P_k monic gives mu_k = -sum_{i<k} P_k[i] mu_i for k >= 1. Uses
    beta_0..beta_{depth-1} and gamma_1..gamma_{depth-1}; polynomial time."""
    prev, cur = [], [Fraction(1)]
    out = [Fraction(1)]
    for k in range(1, depth + 1):
        b = Fraction(beta[k - 1])
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            nxt[i] -= b * c
        if k >= 2:
            g = Fraction(gamma[k - 2])
            for i, c in enumerate(prev):
                nxt[i] -= g * c
        prev, cur = cur, nxt
        out.append(-sum((cur[i] * out[i] for i in range(k)), Fraction(0)))
    return out


def op_via_determinants(moments, k: int) -> Polynomial:
    """Monic orthogonal P_k from the determinant formula: the moment
    block rows mu_{i+j} (i < k) bordered by the row [1, x, ..., x^k],
    divided by Delta_{k-1}."""
    if k == 0:
        return Polynomial.one()
    dkm1 = hankel_det(moments, k - 1)
    if dkm1 == 0:
        raise ZeroDivisionError("functional not regular at k-1")
    coeffs = []
    for j in range(k + 1):
        rows = [
            [moments[i + jj] for jj in range(k + 1) if jj != j] for i in range(k)
        ]
        coeffs.append((-1) ** (k + j) * det(rows) / dkm1)
    return Polynomial(coeffs)


def apply_raw(moments, p: Polynomial) -> Fraction:
    return sum((c * moments[k] for k, c in enumerate(p.coeffs)), Fraction(0))


def left_multiply_raw(moments, phi: Polynomial) -> list:
    """The moments of phi u, <phi u, x^n> = sum_k phi_k mu_{n+k}, for every
    n that u's moments reach."""
    c = phi.coeffs
    return [
        sum((ck * moments[n + k] for k, ck in enumerate(c)), Fraction(0))
        for n in range(len(moments) - len(c) + 1)
    ]


def add_point_mass_raw(moments, xi, mass) -> list:
    """The moments of u + mass delta_xi: mu_n + mass xi^n."""
    return [mu + mass * Fraction(xi) ** n for n, mu in enumerate(moments)]


def divide_by_linear_raw(moments, c, first) -> list:
    """The moments of the sigma with (x - c) sigma = u and sigma_0 = first:
    sigma_{n+1} = c sigma_n + mu_n."""
    out = [Fraction(first)]
    for mu in moments:
        out.append(c * out[-1] + mu)
    return out


def scale_raw(moments, k) -> list:
    return [k * mu for mu in moments]


def hankel_form(moments, p: Polynomial) -> Fraction:
    """<u, p^2> as the Hankel form sum_i sum_j p_i p_j mu_{i+j}, without
    building p^2."""
    c = p.coeffs
    return sum(
        (x * y * moments[i + j] for i, x in enumerate(c) for j, y in enumerate(c)),
        Fraction(0),
    )


def jacobi_norm_ratio_float(alpha, beta, n: int) -> float:
    """<w, W_n^2> / <w, 1> for the monic Jacobi family W_n of the weight
    (1 - x)^alpha (1 + x)^beta, from its gamma-function closed form
    2^(2n) n! G(n+a+1) G(n+b+1) G(n+s+1) G(s+2) / (G(2n+s+1) G(2n+s+2)
    G(a+1) G(b+1)), s = a + b, evaluated in floats through lgamma."""
    a, b = float(alpha), float(beta)
    s = a + b
    return math.exp(
        2 * n * math.log(2.0)
        + sum(map(math.lgamma, (n + 1, n + a + 1, n + b + 1, n + s + 1, s + 2)))
        - sum(map(math.lgamma, (2 * n + s + 1, 2 * n + s + 2, a + 1, b + 1)))
    )


def laguerre_recurrence(alpha, count: int) -> RecurrencePair:
    """beta_0..beta_{count-1} and gamma_1..gamma_{count-1} of the monic
    Laguerre family of the weight x^alpha e^(-x) on (0, inf), alpha > -1,
    from the closed forms beta_n = 2n + alpha + 1, gamma_n = n (n + alpha)."""
    alpha = Fraction(alpha)
    return RecurrencePair([2 * n + alpha + 1 for n in range(count)],
                          [n * (n + alpha) for n in range(1, count)])


def hermite_recurrence(count: int) -> RecurrencePair:
    """beta_0..beta_{count-1} and gamma_1..gamma_{count-1} of the monic
    Hermite family of the weight e^(-x^2) on the real line, from the closed
    forms beta_n = 0, gamma_n = n / 2."""
    return RecurrencePair([0] * count, [Fraction(n, 2) for n in range(1, count)])


def values_at(beta, gamma, c, count: int) -> list:
    """P_0(c)..P_count(c) of the monic family of the recurrence, by the
    three-term walk P_{n+1}(c) = (c - beta_n) P_n(c) - gamma_n P_{n-1}(c)
    in Fractions, with P_{-1} = 0 and no P_n built."""
    c = Fraction(c)
    at = [Fraction(0), Fraction(1)]  # P_{-1}(c), P_0(c)
    for n in range(count):
        at.append((c - beta[n]) * at[-1] - (gamma[n - 1] if n else 0) * at[-2])
    return at[1:]
