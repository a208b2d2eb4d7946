"""Strict rational-string parsing and formatting.

All file formats carry scalars as strings like "3", "-1/4", "0". Decimal
notation is rejected on purpose: exact-mode data must never round-trip
through floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul

from .errors import FormatError

# ASCII digits only, and \Z rather than $, which would admit a final newline
RATIONAL_PATTERN = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?\Z")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not RATIONAL_PATTERN.match(text):
        raise FormatError(f"not a rational string of the form p or p/q: {text!r}")
    # the gate has validated the text: split it, skipping the second parse
    # that Fraction(text) would make
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ValueError as exc:
        # the interpreter's limit on decimal digits in an int conversion
        raise FormatError(
            f"rational string of {len(text)} characters is too long: {exc}"
        ) from exc


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError as exc:
        # the interpreter's limit on decimal digits in an int conversion
        digits = max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))
        raise FormatError(
            f"a rational with {digits} decimal digits is too long to print: {exc}"
        ) from exc


def _decimal_digits(n: int) -> int:
    n = abs(n)
    d = int(n.bit_length() * math.log10(2))  # the count or one less
    return d + (n >= 10**d)


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``values``:
    values[i] == nums[i] / den, with den > 0 (den is 1 for no values)."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _parts(values) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of ``values``, as two lists."""
    return [v.numerator for v in values], [v.denominator for v in values]


def _lcm_sum(nums, dens) -> tuple[int, int]:
    """sum(nums[i] / dens[i]) as the unreduced pair (numerator, L), where
    L > 0 is the lcm of the nonzero denominators. ``Fraction(*_lcm_sum(...))``
    reduces the sum once, and the numerator alone tells whether it is
    zero. It serves one-shot conditions (ci1-ci3, a ladder's test at
    n = 1). The per-index loops of the integer kernels write the same sum
    out term by term, ``L = lcm(d1, d2, d3)`` then ``n1 * (L // d1) + ...``:
    at the few-bit coefficients of CLI data the tuples, maps and call that
    this function costs outweigh the arithmetic."""
    den = math.lcm(*dens)
    return sum(map(mul, nums, map(den.__floordiv__, dens))), den


def _reduce_pairs(pairs) -> list:
    """The reduced Fraction of each (numerator, denominator) pair, such as
    ``_lcm_sum`` gives; None entries stay None."""
    return [None if pair is None else Fraction(*pair) for pair in pairs]


def _json_list(data: dict, key: str) -> list:
    """``data[key]``, which must be a list: a string there would otherwise
    be read as the sequence of its characters."""
    value = data[key]
    if not isinstance(value, list):
        raise FormatError(f'"{key}" must be a JSON list, not {value!r:.40}')
    return value


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational. A bool
    is refused, although it is an int: a JSON true is not a coefficient."""
    # strings first: they are what documents hold, and isinstance against
    # Fraction, an ABC, is slow for anything that is not one
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise FormatError(f"cannot interpret {value!r} as an exact rational")
