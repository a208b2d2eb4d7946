"""Strict rational-string parsing and formatting, and the reduced integer
parts that the sequence models store.

All file formats carry scalars as strings like "3", "-1/4", "0". Decimal
notation is rejected on purpose: exact-mode data must never round-trip
through floats.

A document's lists reach the models through ``_scalar_parts``: one regex
match over a list's strings joined by newlines and the ``int`` conversions
admit the whole list, and each string becomes a reduced (numerator,
denominator) pair through ``str.partition``, ``int`` and one gcd, with no
Fraction built; the
per-value path of ``as_scalar`` is left for values that are not strings and
for naming the first value refused. ``_SequenceModel`` (``RecurrencePair``,
``Relation23``) stores those parts; the command line writes a model
straight from them, and its Fraction view is built only when read.
``_sum``, ``_product`` and ``_quotient`` compute on reduced pairs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

# ASCII digits only, and \Z rather than $, which would admit a final newline;
# the groups are p and q
RATIONAL_PATTERN = re.compile(r"^(-?[0-9]+)(?:/([1-9][0-9]*))?\Z")
# the characters of a list of gated values joined by newlines, each "/" followed
# by a nonzero digit; ``_scalar_parts``' int conversions check the rest of the gate
_LIST_PATTERN = re.compile(r"[-0-9\n]*(?:/[1-9][-0-9\n]*)*")


def parse_rational(text: str) -> Fraction:
    match = RATIONAL_PATTERN.match(text) if isinstance(text, str) else None
    if match is None:
        raise FormatError(f"not a rational string of the form p or p/q: {text!r}")
    num, den = match.groups()  # no second parse, as Fraction(text) would make
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
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


# Arithmetic on reduced pairs (numerator, denominator > 0 in lowest terms), the way
# ``fractions`` does it but with no Fraction built: a sum reduces by Knuth's gcd of the
# denominators, a product or quotient by cross gcds, so no gcd runs over a whole result.


def _sum(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd as a reduced pair."""
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g = math.gcd(t, g)
    if g == 1:
        return t, s * bd
    return t // g, s * (bd // g)


def _product(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad)(bn/bd) as a reduced pair."""
    g1, g2 = math.gcd(an, bd), math.gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _quotient(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad)/(bn/bd), bn != 0, as a reduced pair."""
    g1, g2 = math.gcd(an, bn), math.gcd(ad, bd)
    n, d = (an // g1) * (bd // g2), (ad // g2) * (bn // g1)
    return (-n, -d) if d < 0 else (n, d)


def _columns(pairs) -> tuple[list, list]:
    """The numerators and the denominators of (numerator, denominator) pairs, as two lists."""
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


def _reduce_pairs(pairs) -> list:
    """The reduced Fraction of each unreduced (numerator, denominator > 0)
    pair, such as the checkers' kernels build; None entries stay None."""
    return [None if pair is None else Fraction(*pair) for pair in pairs]


def _scalar_parts(values) -> tuple[list[int], list[int]]:
    """``as_scalar`` of each of ``values`` as two lists, the numerators and
    the denominators in lowest terms. A list of strings is checked whole,
    with one match of ``_LIST_PATTERN`` over the strings joined by newlines
    and exactly one newline between each two of them (so no string holds
    one). Each string is then split at its first "/" by ``str.partition``
    and converted by ``int``, and p/q costs one gcd; no Fraction is built.
    On strings of those characters ``int`` takes p only as -?[0-9]+ and q,
    which starts with a nonzero digit, only as [1-9][0-9]*, so together they
    admit exactly what ``RATIONAL_PATTERN`` admits. Anything else, a value
    that is not a string, one the gate refuses or one past the interpreter's
    digit limit, goes value by value through ``as_scalar``, which names the
    first value it refuses."""
    values = list(values)
    try:
        text = "\n".join(values)  # TypeError: a value that is not a string
        if text.count("\n") == len(values) - 1 and _LIST_PATTERN.fullmatch(text):
            split = [value.partition("/") for value in values]
            nums = [int(num) for num, _, _ in split]  # ValueError: past the digit limit
            dens = [int(den or 1) for _, _, den in split]
            ks = list(map(math.gcd, nums, dens))
            if ks.count(1) != len(ks):
                nums = [num // k for num, k in zip(nums, ks)]
                dens = [den // k for den, k in zip(dens, ks)]
            return nums, dens
    except (TypeError, ValueError):
        pass
    scalars = [as_scalar(value) for value in values]
    return [q.numerator for q in scalars], [q.denominator for q in scalars]


class _SequenceModel:
    """Sequences stored as one (numerators, denominators) pair in lowest
    terms per sequence, whether a document, a public constructor or a
    kernel (``_from_parts``) built them. The tuples of Fractions are a view
    built on first use, as ``Polynomial.coeffs`` is. A subclass names its
    sequences, the keys of its JSON form, in ``_KEYS``."""

    __slots__ = ("_ints", "_values")

    def __init__(self, *seqs):
        self._ints = tuple(map(_scalar_parts, seqs))
        self._values = None

    @classmethod
    def _from_parts(cls, *pairs):
        """The model of (numerators, denominators) pairs already in lowest
        terms, denominators > 0: nothing is parsed or reduced."""
        model = object.__new__(cls)
        model._ints, model._values = pairs, None
        return model

    def _fractions(self) -> tuple:
        if self._values is None:
            self._values = tuple(tuple(map(Fraction, *pair)) for pair in self._ints)
        return self._values

    def _integers(self) -> tuple:
        return self._ints

    def _lengths(self) -> list:
        return [len(nums) for nums, _ in self._ints]

    def __eq__(self, other) -> bool:
        # lowest terms are canonical
        return type(other) is type(self) and self._integers() == other._integers()

    def to_json(self) -> dict:
        return dict(zip(self._KEYS, map(list, self._fractions())))

    @classmethod
    def from_json(cls, data):
        """The model of a JSON object holding one list per key of ``_KEYS``."""
        if not isinstance(data, dict) or not all(key in data for key in cls._KEYS):
            shape = ", ".join(f'"{key}": [...]' for key in cls._KEYS)
            raise FormatError(f"{cls._NAME} JSON must be {{{shape}}}")
        return cls(*(_json_list(data, key) for key in cls._KEYS))


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
