"""Strict rational-string parsing and formatting.

All file formats carry scalars as strings like "3", "-1/4", "0". Decimal
notation is rejected on purpose: exact-mode data must never round-trip
through floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

RATIONAL_PATTERN = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not RATIONAL_PATTERN.match(text):
        raise FormatError(f"not a rational string of the form p or p/q: {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:
        # the interpreter's limit on decimal digits in an int conversion
        raise FormatError(
            f"rational string of {len(text)} characters is too long: {exc}"
        ) from exc


def format_rational(value: Fraction) -> str:
    return str(value)


def format_sequence(values) -> list:
    """``format_rational`` of each entry; None (an undefined entry) stays."""
    return [None if v is None else format_rational(v) for v in values]


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``values``:
    values[i] == nums[i] / den, with den > 0 (den is 1 for no values)."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise FormatError(f"cannot interpret {value!r} as an exact rational")
