"""Textual form of exact rationals.

Every numeric quantity in this package (probabilities, utilities, LP
coefficients) is an exact rational (`int` or `Fraction`): canonical form
(positive denominator, reduced) and exact arithmetic.  This module pins
down the shared textual format: "<int>" or "<int>/<posint>", in ASCII
digits with nothing before or after.  Decimal literals are deliberately
rejected so no silent float conversion can occur.

Python limits the digits that `int` and `str` convert between (4,300 by
default), so numbers are converted in pieces of at most `_PIECE` digits,
the lowest limit a process can set, and any length converts exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

_PIECE = 640


def _int(digits: str) -> int:
    """int(digits) for ASCII digits, an optional "-" first."""
    if len(digits) <= _PIECE:
        return int(digits)
    if digits[0] == "-":
        return -_int(digits[1:])
    half = len(digits) // 2
    return _int(digits[:half]) * 10 ** (len(digits) - half) + _int(digits[half:])


def _str(n: int) -> str:
    """str(n) for n >= 0."""
    if n < 10**_PIECE:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _str(high) + _str(low).zfill(k)


def rational_parse(text: str) -> Fraction:
    """Parse "<int>" or "<int>/<posint>" into a canonical Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    num = _int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = _int(m.group(2))
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def rational_render(value: Fraction) -> str:
    """Render an exact rational in the form accepted by rational_parse."""
    value = Fraction(value)
    num = ("-" if value < 0 else "") + _str(abs(value.numerator))
    return num if value.denominator == 1 else f"{num}/{_str(value.denominator)}"
