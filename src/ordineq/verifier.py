"""Verification of mediated profiles.

The verifier never trusts the solver's answer: it checks every player and
deviation of a profile with the same separation oracles the solver uses
(`equilibrium.separate`).  It does not trust the order and CNF oracles
unchecked either: their maximum gain is compared with the maximum over the
enumerated 0/1 types, always for total orders (|O|+1 threshold vectors)
and for partial orders and preference CNFs whenever the outcome set is
small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

# The two oracles are re-exported: timing tools that wrap them look them up
# on each module that names them.
from .equilibrium import (  # noqa: F401
    Violation,
    _deviation_gain_coeffs,
    separate,
    separation_oracle_dist,
    separation_oracle_partial,
)
from .games import (
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    Profile,
    TotalOrder,
    TypeSpaceSpec,
    opponents_profiles_of,
    validate_profile,
)
from .typespaces import enumerate_extreme_types

ZERO = Fraction(0)

#: Up to this many outcomes the partial-order and CNF oracles are
#: cross-checked by enumerating every consistent 0/1 vector (2^|O|
#: candidates).
ENUM_CROSS_CHECK_LIMIT = 12


@dataclass(frozen=True)
class VerifyReport:
    violation: Optional[Violation]  # None = robust equilibrium

    @property
    def is_equilibrium(self) -> bool:
        return self.violation is None


def stochastic_dominance(
    order: TotalOrder, d1: Mapping[str, Fraction], d2: Mapping[str, Fraction]
) -> bool:
    """d1 dominates d2: every upper-set prefix of the order gets at least as
    much mass under d1 as under d2."""
    acc1 = acc2 = ZERO
    for o in order.order:
        acc1 += d1.get(o, ZERO)
        acc2 += d2.get(o, ZERO)
        if acc1 < acc2:
            return False
    return True


def best_response_value(
    game: GameForm, i: int, u: Mapping[str, Fraction], q_i: Mapping[Profile, Fraction]
) -> Fraction:
    """Best expected utility player i can get against punishment q_{-i}."""
    best = None
    for a in game.action_sets[i]:
        val = sum(
            (w * u[game.outcome_of(game.insert(i, a, opp))] for opp, w in q_i.items()),
            ZERO,
        )
        if best is None or val > best:
            best = val
    return best


def averaging_dominates(
    game: GameForm,
    i: int,
    u: Mapping[str, Fraction],
    rounds: Sequence[Mapping[Profile, Fraction]],
) -> tuple[Fraction, Fraction, bool]:
    """Compare punishing with the round-average distribution vs. the original
    round sequence: (value vs average, mean of per-round values, lhs <= rhs).

    The comparison always holds: the best-response value is a maximum of
    linear functions of q, hence convex.
    """
    m = len(rounds)
    avg: dict[Profile, Fraction] = {}
    for q in rounds:
        for opp, w in q.items():
            avg[opp] = avg.get(opp, ZERO) + w
    avg = {opp: w / m for opp, w in avg.items()}
    lhs = best_response_value(game, i, u, avg)
    rhs = sum((best_response_value(game, i, u, q) for q in rounds), ZERO) / m
    return lhs, rhs, lhs <= rhs


def verify(
    game: GameForm,
    spaces: Sequence[TypeSpaceSpec],
    profile: MediatedProfile,
) -> VerifyReport:
    """Check Definition-style robustness: for every player, deviation, and
    consistent type, the on-path payoff weakly beats the deviation payoff.

    A violation reports the first violating player and deviation, with the
    witness type of that deviation's maximum gain."""
    validate_profile(game, profile)
    for i, spec in enumerate(spaces):
        q_i = {opp: profile.q[i].get(opp, ZERO) for opp in opponents_profiles_of(game, i)}
        extreme = None
        if isinstance(spec, TotalOrder) or (
            isinstance(spec, (PartialOrder, PreferenceCnf))
            and len(game.outcomes) <= ENUM_CROSS_CHECK_LIMIT
        ):
            extreme = enumerate_extreme_types(spec, game.outcomes)
        for a in game.action_sets[i]:
            v = separate(game, spec, i, a, profile.p, q_i)
            if extreme is not None:
                _cross_check(game, spec, i, a, profile.p, q_i, v, extreme)
            if v is not None:
                return VerifyReport(v)
    return VerifyReport(None)


def _cross_check(game, spec, i, a, p, q_i, res: Optional[Violation], extreme) -> None:
    """Raise unless the oracle's maximum gain equals the maximum over
    `extreme`, the enumerated 0/1 types of the space."""
    gain = _deviation_gain_coeffs(game, i, a, p, q_i)
    brute = ZERO  # no violation; the all-zero vector, if consistent, gains 0
    for u in extreme:
        g = sum((w * u[o] for o, w in gain.items() if w != 0), ZERO)
        if g > brute:
            brute = g
    oracle_max = res.amount if res is not None else ZERO
    if brute != oracle_max:
        raise AssertionError(
            f"{type(spec).__name__} oracle ({oracle_max}) disagrees with enumeration ({brute})"
        )
