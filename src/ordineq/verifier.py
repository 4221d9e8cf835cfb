"""Verification of mediated profiles.

The verifier never trusts the solver's answer: it builds each player's and
deviation's gain vector once (`equilibrium.gain_vectors`) and checks it
with the same separation oracles the solver uses (`equilibrium.separate`).
It does not trust the order and CNF oracles unchecked either: their
maximum gain on that vector is compared with the finite-scan oracle's
maximum over the enumerated 0/1 types, always for total orders (|O|+1
threshold vectors) and for partial orders and preference CNFs whenever the
outcome set is small enough.  The spaces are validated first, as `solve`
validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .equilibrium import Hit, finite_scan_oracle, gain_vectors, separate

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

ZERO = Fraction(0)

#: Up to this many outcomes the partial-order and CNF oracles are
#: cross-checked by enumerating every consistent 0/1 vector (2^|O|
#: candidates).
ENUM_CROSS_CHECK_LIMIT = 12


@dataclass(frozen=True)
class Violation:
    player: int
    deviation: str
    witness: dict[str, Fraction]
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
    witness type of that deviation's maximum gain."""
    validate_spaces(game, spaces)
    validate_profile(game, profile)
    for i, gains in enumerate(gain_vectors(game, profile)):
        spec = spaces[i]
        extreme = None
        if isinstance(spec, TotalOrder) or (
            isinstance(spec, (PartialOrder, PreferenceCnf))
            and len(game.outcomes) <= ENUM_CROSS_CHECK_LIMIT
        ):
            extreme = FiniteTypes(tuple(enumerate_extreme_types(spec, game.outcomes)))
        for a, gain in gains.items():
            hit = separate(spec, game.outcomes, gain)
            if extreme is not None:
                _cross_check(spec, game.outcomes, gain, hit, extreme)
            if hit is not None:
                amount, witness = hit
                return VerifyReport(Violation(i, a, witness, amount))
    return VerifyReport(None)


def _cross_check(
    spec, outcomes: tuple[str, ...], gain: Mapping[str, Fraction], hit: Hit, extreme: FiniteTypes
) -> None:
    """Raise unless the oracle's maximum gain equals the finite-scan
    oracle's over `extreme`, the enumerated 0/1 types of the space."""
    # No hit means no gain; the all-zero vector, if consistent, gains 0.
    brute = finite_scan_oracle(extreme, outcomes, gain)
    brute_max = brute[0] if brute is not None else ZERO
    oracle_max = hit[0] if hit is not None else ZERO
    if brute_max != oracle_max:
        raise AssertionError(
            f"{type(spec).__name__} oracle ({oracle_max}) disagrees with enumeration ({brute_max})"
        )
