"""Textual form of exact rationals.

Every numeric quantity in this package (probabilities, utilities, LP
coefficients) is an exact rational (`int` or `Fraction`): canonical form
(positive denominator, reduced) and exact arithmetic.  This module pins
down the shared textual format: "<int>" or "<int>/<posint>", in ASCII
digits with nothing before or after.  Decimal literals are deliberately
rejected so no silent float conversion can occur.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_parse(text: str) -> Fraction:
    """Parse "<int>" or "<int>/<posint>" into a canonical Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def rational_render(value: Fraction) -> str:
    """Render an exact rational in the form accepted by rational_parse."""
    return str(Fraction(value))
