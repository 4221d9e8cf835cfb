"""Verification of mediated profiles.

The verifier never trusts the solver's answer: it builds its own
separation oracles (`equilibrium.make_oracle`) and asks them about each
player's and deviation's gain vector, through the solver's deviation loop
(`equilibrium.deviation_hits`).  It does not trust the order and CNF
oracles unchecked either: their maximum gain on that vector is compared
with the finite-scan oracle's maximum over the enumerated 0/1 types,
always for total orders (|O|+1 threshold vectors) and for partial orders
and preference CNFs whenever the outcome set is small enough.  The
spaces are validated first, as `solve` validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Optional, Sequence

from .equilibrium import Hit, deviation_hits, finite_scan_oracle, make_oracle

# Re-exported only for bench/tracing.py, which wraps the oracles on each
# module that names them.
from .equilibrium import separation_oracle_dist, separation_oracle_partial  # noqa: F401
from .games import (
    FiniteTypes,
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    TypeSpaceSpec,
    validate_profile,
    validate_spaces,
)
from .typespaces import enumerate_extreme_types

#: Up to this many outcomes the partial-order and CNF oracles are
#: cross-checked by enumerating every consistent 0/1 vector (2^|O|
#: candidates).
ENUM_CROSS_CHECK_LIMIT = 12


@dataclass(frozen=True)
class Violation:
    player: int
    deviation: str
    witness: dict[str, Rational]
    amount: Fraction  # deviation payoff - on-path payoff, strictly positive


@dataclass(frozen=True)
class VerifyReport:
    violation: Optional[Violation]  # None = robust equilibrium

    @property
    def is_equilibrium(self) -> bool:
        return self.violation is None


def verify(
    game: GameForm,
    spaces: Sequence[TypeSpaceSpec],
    profile: MediatedProfile,
) -> VerifyReport:
    """Check Definition-style robustness: for every player, deviation, and
    consistent type, the on-path payoff weakly beats the deviation payoff.

    A violation reports the first violating player and deviation, with the
    witness type of that deviation's maximum gain: the oracle's amount, in
    gain units, over the profile's denominator (`gain_vectors`)."""
    validate_spaces(game, spaces)
    validate_profile(game, profile)
    player, extreme = None, None
    oracles = [make_oracle(spec, game.outcomes) for spec in spaces]
    for i, a, den, gain, hit in deviation_hits(game, oracles, profile):
        spec = spaces[i]
        if i != player:  # the first deviation of player i
            player, extreme = i, None
            if isinstance(spec, TotalOrder) or (
                isinstance(spec, (PartialOrder, PreferenceCnf))
                and len(game.outcomes) <= ENUM_CROSS_CHECK_LIMIT
            ):
                extreme = FiniteTypes(tuple(enumerate_extreme_types(spec, game.outcomes)))
        if extreme is not None:
            _cross_check(spec, game.outcomes, gain, hit, extreme)
        if hit is not None:
            amount, witness = hit
            return VerifyReport(Violation(i, a, witness, Fraction(amount, den)))
    return VerifyReport(None)


def _cross_check(
    spec, outcomes: tuple[str, ...], gain: Mapping[str, Rational], hit: Hit, extreme: FiniteTypes
) -> None:
    """Raise unless the oracle's maximum gain equals, in gain units, the
    finite-scan oracle's over `extreme`, the space's enumerated 0/1 types."""
    # No hit means no gain; the all-zero vector, if consistent, gains 0.
    brute = finite_scan_oracle(extreme, outcomes, gain)
    brute_max = brute[0] if brute is not None else 0
    oracle_max = hit[0] if hit is not None else 0
    if brute_max != oracle_max:
        raise AssertionError(
            f"{type(spec).__name__} oracle ({oracle_max}) disagrees with enumeration ({brute_max})"
        )
