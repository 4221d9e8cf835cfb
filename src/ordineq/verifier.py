"""Verification of mediated profiles.

The verifier never trusts the solver's answer: it builds its own
separation oracles (`equilibrium.make_oracle`) and asks them about each
player's and deviation's gain vector, through the solver's deviation loop
(`equilibrium.deviation_hits`).  It does not trust the order and CNF
oracles unchecked either.  A total or partial order's oracle returns, with
its answer, a flow on the order's pairs, and `check_flow` proves with it,
in O(|O| + |pairs|) exact multiply-adds, that the answer is the largest
gain over the whole order space, for any number of outcomes.  A preference
CNF's maximum, a coNP-type claim with no short certificate, is compared
with the finite-scan oracle's maximum over its enumerated 0/1 models
whenever the outcome set is small enough.  The spaces are validated
first, as `solve` validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Optional, Sequence

from .equilibrium import Flow, Hit, deviation_hits, finite_scan_oracle, make_oracle

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

#: Up to this many outcomes the CNF oracle is cross-checked by enumerating
#: every 0/1 model (2^|O| candidates).
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
    for i, a, den, gain, hit, flow in deviation_hits(game, oracles, profile):
        spec = spaces[i]
        if isinstance(spec, (TotalOrder, PartialOrder)):
            check_flow(spec, game.outcomes, gain, hit, flow)
        elif isinstance(spec, PreferenceCnf) and len(game.outcomes) <= ENUM_CROSS_CHECK_LIMIT:
            if i != player:  # the first deviation of player i
                player = i
                extreme = FiniteTypes(tuple(enumerate_extreme_types(spec, game.outcomes)))
            _cross_check(spec, game.outcomes, gain, hit, extreme)
        if hit is not None:
            amount, witness = hit
            return VerifyReport(Violation(i, a, witness, Fraction(amount, den)))
    return VerifyReport(None)


def check_flow(
    spec: TotalOrder | PartialOrder,
    outcomes: tuple[str, ...],
    gain: Mapping[str, Rational],
    hit: Hit,
    flow: Optional[Flow],
) -> None:
    """Raise unless `hit` is the largest gain `sum_o gain[o] * u(o)` over
    every u in [0,1]^O with u(a) >= u(b) for each pair (a, b) of the order
    (a total order's pairs are its neighbours), as `flow` proves.  No hit
    means the all-zero witness, of amount 0.

    The witness must be 0/1 and upward closed on every pair, and attain
    the amount.  The flow y must be >= 0 and sit only on the order's pairs.
    Then for every such u, sum_o gain[o] u(o) is at most
    sum_o c_o u(o) <= sum_o max(0, c_o), where c_o, the net weight of o,
    is gain[o] plus the flow on the pairs (o, b) minus the flow on the
    pairs (a, o): the difference is y_ab (u(a) - u(b)) >= 0 summed over
    the pairs (weak LP duality, as in Ben-Tal & Nemirovski's robust
    counterpart).  A bound that the witness attains is the maximum, so the
    sum of the positive c_o must equal the amount.
    """
    name = type(spec).__name__
    pairs = frozenset(zip(spec.order, spec.order[1:]) if isinstance(spec, TotalOrder) else spec.pairs)
    if flow is None:
        raise AssertionError(f"{name} oracle returned no flow certificate")
    if hit is None:
        amount, witness = 0, dict.fromkeys(outcomes, 0)
    else:
        amount, witness = hit
        if amount <= 0:
            raise AssertionError(f"{name} oracle reports a gain {amount} that is not positive")
    if any(witness.get(o) not in (0, 1) for o in outcomes):
        raise AssertionError(f"{name} oracle's witness is not a 0/1 vector over the outcomes")
    if any(witness[a] < witness[b] for a, b in pairs):
        raise AssertionError(f"{name} oracle's witness is not upward closed")
    if sum(gain[o] * witness[o] for o in outcomes) != amount:
        raise AssertionError(f"{name} oracle's witness does not attain its gain {amount}")
    net = {o: gain[o] for o in outcomes}
    for (a, b), y in flow.items():
        if (a, b) not in pairs or y < 0:
            raise AssertionError(f"{name} oracle's flow {y} on ({a}, {b}) is not on a pair or negative")
        net[a] += y
        net[b] -= y
    bound = sum(c for c in net.values() if c > 0)
    if bound != amount:
        raise AssertionError(f"{name} oracle's gain {amount} differs from its flow's bound {bound}")


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
