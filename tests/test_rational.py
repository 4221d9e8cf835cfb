from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordineq.errors import ParseError
from ordineq.rational import rational_parse, rational_render


def test_parse_canonicalizes():
    assert rational_parse("3/6") == Fraction(1, 2)


def test_parse_negative_integer():
    assert rational_parse("-2") == Fraction(-2)


def test_parse_non_dyadic():
    assert rational_parse("9/10") == Fraction(9, 10)


@pytest.mark.parametrize(
    "text",
    ["", "0.5", "1/0", "1/-2", "1 / 2", "+1", "1/2/3", "a", "1.0", " 1", "1\n", "1/2\n", "\u0661/2", "1/\u0662", "1_0"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        rational_parse(text)


rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


class _Long(Fraction):
    """A rational whose repr gives only its length: hypothesis prints every
    explicit example, and `Fraction`'s repr fails past Python's limit on
    the digits that `int` and `str` convert between (4,300 by default)."""

    def __repr__(self):
        return f"<a rational of {len(rational_render(self))} characters>"


@given(rationals)
@example(_Long(-(2 * 10**4999 + 1), 10**4999))  # 5,000 digits above and below
def test_render_parse_round_trip(a):
    assert rational_parse(rational_render(a)) == a


@given(rationals, rationals)
def test_arithmetic_is_exact(a, b):
    assert a + b - b == a


@given(rationals, rationals)
def test_comparison_matches_cross_multiplication(a, b):
    assert (a < b) == (a.numerator * b.denominator < b.numerator * a.denominator)
