"""Exact dense univariate polynomials over the rationals.

A polynomial is stored as integer numerators over one common denominator,
the layout of FLINT's fmpq_poly: sum_k nums[k] / den x^k with den > 0,
gcd(den, nums[0], nums[1], ...) == 1 and no trailing zero numerator. That
form is canonical, so equality compares integers. ``+``, ``-`` and ``*``
by a scalar are all ``_combination``: one lcm, one integer pass and one
gcd. That gcd, the product's, those of the fraction-free vectors of
``functional``, of every ``MomentFunctional`` (which shares this layout)
and of ``jacobi_moments``' neighbouring pairs are all taken in
``_divide_content``, the one content reduction of the package. Each other
``math.gcd`` call reduces one entry: ``rational._sum``, ``_product`` and
``_quotient`` (``functional``'s steps and Hankel sweep, the spectral chain,
``compose_ladders``, ``jacobi_recurrence``, ``relation_constants``),
beta~_n, a_n and gamma~_n in ``relation23._sequences``, and each p/q string
(``rational._scalar_parts``). ``coeffs``, the coefficients ascending by
degree as a tuple of Fractions, is built on first use. The zero polynomial
has no numerators and ``degree`` -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .rational import as_scalar, common_denominator


class Polynomial:
    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        values = [as_scalar(c) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        nums, den = common_denominator(values)
        # the least common denominator of reduced Fractions leaves no content
        self._nums, self._den, self._coeffs = tuple(nums), den, tuple(values)

    @classmethod
    def _canonical(cls, nums: tuple, den: int) -> "Polynomial":
        """Wrap numerators and a denominator already in canonical form."""
        p = object.__new__(cls)
        p._nums, p._den, p._coeffs = nums, den, None
        return p

    @classmethod
    def _reduced(cls, nums: list, den: int) -> "Polynomial":
        """The polynomial sum nums[k] / den x^k for any den > 0: trims
        trailing zeros (in place) and divides out the common content."""
        while nums and not nums[-1]:
            nums.pop()
        nums, den = _divide_content(nums, den)
        return cls._canonical(tuple(nums), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by degree, with no trailing zero."""
        if self._coeffs is None:
            d = self._den
            self._coeffs = tuple([Fraction(c, d) for c in self._nums])
        return self._coeffs

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_monic(self) -> bool:
        return bool(self._nums) and self._nums[-1] == self._den

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return _combination([(1, self), (1, other)])

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(tuple([-c for c in self._nums]), self._den)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return _combination([(1, self), (-1, other)])

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return _combination([(as_scalar(other), self)])
        a, b = self._nums, other._nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial._reduced(out, self._den * other._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, point) -> Fraction:
        x0 = as_scalar(point)
        if not self._nums:
            return Fraction(0)
        p, q = x0.numerator, x0.denominator
        # Horner on p/q: acc = sum_k nums[k] p^k q^(deg - k)
        acc, qpow = 0, 1
        for c in reversed(self._nums):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self._den * (qpow // q))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}x" if k == 1 else f"{head}x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _divide_content(nums: list, den: int) -> tuple[list, int]:
    """nums and den with their content gcd(den, *nums) divided out: the one
    content reduction of the package."""
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    return nums, den


def _combination(terms) -> Polynomial:
    """sum c_i p_i over (c_i, p_i) pairs, c_i an int or a Fraction: the
    integer numerators over L = lcm of the c_i.denominator * p_i._den in
    one pass, then one gcd reduction."""
    terms = [(c, p) for c, p in terms if c and p._nums]
    dens = [c.denominator * p._den for c, p in terms]
    den = math.lcm(*dens)
    out = [0] * max([len(p._nums) for _, p in terms], default=0)
    for (c, p), d in zip(terms, dens):
        k = c.numerator * (den // d)
        for i, x in enumerate(p._nums):
            out[i] += k * x
    return Polynomial._reduced(out, den)

