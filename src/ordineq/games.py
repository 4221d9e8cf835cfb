"""Data model for games, type spaces, and mediated profiles.

Outcomes are first-class and shared across cells: several action profiles
may map to the same outcome, and utilities always attach to outcomes.
Type spaces are per-player and may be heterogeneous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .errors import UnknownOutcome, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

Profile = tuple[str, ...]


@dataclass(frozen=True)
class GameForm:
    action_sets: tuple[tuple[str, ...], ...]
    outcomes: tuple[str, ...]
    outcome_map: Mapping[Profile, str]

    def __post_init__(self):
        if len(self.action_sets) < 2:
            raise ValidationError("need at least 2 players")
        for i, acts in enumerate(self.action_sets):
            if not acts:
                raise ValidationError(f"player {i} has no actions")
            if len(set(acts)) != len(acts):
                raise ValidationError(f"player {i} has duplicate action names")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValidationError("duplicate outcome names")
        known = set(self.outcomes)
        for prof in itertools.product(*self.action_sets):
            o = self.outcome_map.get(prof)
            if o is None:
                raise ValidationError(f"outcome_map missing profile {prof}")
            if o not in known:
                raise ValidationError(f"profile {prof} maps to unknown outcome {o!r}")

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    def outcome_of(self, profile: Profile) -> str:
        return self.outcome_map[profile]

    def insert(self, i: int, action: str, opponents: Profile) -> Profile:
        """Full profile from player i's action and an A_{-i} profile."""
        return opponents[:i] + (action,) + opponents[i:]


def profiles_of(game: GameForm) -> Iterator[Profile]:
    """All full action profiles, lexicographic by player then action index."""
    return itertools.product(*game.action_sets)


def opponents_profiles_of(game: GameForm, i: int) -> Iterator[Profile]:
    """All A_{-i} profiles, lexicographic over the remaining players."""
    others = game.action_sets[:i] + game.action_sets[i + 1 :]
    return itertools.product(*others)


def outcome_distribution(game: GameForm, dist: Mapping[Profile, Fraction]) -> dict[str, Fraction]:
    """Pushforward of a distribution over profiles through the outcome map."""
    out = {o: ZERO for o in game.outcomes}
    for prof, w in dist.items():
        out[game.outcome_of(prof)] += w
    return out


@dataclass(frozen=True)
class FiniteTypes:
    """Explicit list of utility vectors, each outcome -> Fraction in [0,1]."""

    types: tuple[Mapping[str, Fraction], ...]


@dataclass(frozen=True)
class TotalOrder:
    """Strict total preference order, most-preferred outcome first."""

    order: tuple[str, ...]


@dataclass(frozen=True)
class PartialOrder:
    """Pairs (o, o') meaning o is weakly preferred to o'."""

    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DistributionOrder:
    """Pairs (r1, r2) of outcome distributions meaning r1 weakly preferred."""

    pairs: tuple[tuple[Mapping[str, Fraction], Mapping[str, Fraction]], ...]


@dataclass(frozen=True)
class PreferenceCnf:
    """Conjunction of clauses; each clause disjoins atoms (o, o') = o >= o'."""

    clauses: tuple[tuple[tuple[str, str], ...], ...]


TypeSpaceSpec = Union[FiniteTypes, TotalOrder, PartialOrder, DistributionOrder, PreferenceCnf]


def validate_spaces(game: GameForm, spaces: Sequence[TypeSpaceSpec]) -> None:
    """One valid type space per player."""
    if len(spaces) != game.num_players:
        raise ValidationError("one type space per player required")
    for spec in spaces:
        validate_space(spec, game.outcomes)


def validate_space(spec: TypeSpaceSpec, outcomes: tuple[str, ...]) -> None:
    known = set(outcomes)
    if isinstance(spec, FiniteTypes):
        # Key sets and integer ranges only: listed spaces can hold thousands
        # of types, and this runs on every solve and verify.
        for t in spec.types:
            if t.keys() != known:
                for o in t:
                    if o not in known:
                        raise UnknownOutcome(f"type references unknown outcome {o!r}")
                raise ValidationError(f"type missing outcomes {sorted(known - t.keys())}")
            for o, u in t.items():
                try:
                    ok = 0 <= u.numerator <= u.denominator
                except AttributeError:
                    raise ValidationError(f"utility {u!r} for {o!r} is not rational") from None
                if not ok:
                    raise ValidationError(f"utility {u} for {o!r} outside [0,1]")
    elif isinstance(spec, TotalOrder):
        if sorted(spec.order) != sorted(outcomes):
            raise ValidationError("total order must be an exact permutation of the outcomes")
    elif isinstance(spec, PartialOrder):
        for a, b in spec.pairs:
            if a not in known or b not in known:
                raise UnknownOutcome(f"pair ({a},{b}) references unknown outcome")
    elif isinstance(spec, DistributionOrder):
        for r1, r2 in spec.pairs:
            for r in (r1, r2):
                total = ZERO
                for o, w in r.items():
                    if o not in known:
                        raise UnknownOutcome(f"distribution references unknown outcome {o!r}")
                    if w < 0:
                        raise ValidationError("negative probability in distribution pair")
                    total += w
                if total != 1:
                    raise ValidationError("distribution in pair does not sum to 1")
    elif isinstance(spec, PreferenceCnf):
        for clause in spec.clauses:
            for a, b in clause:
                if a not in known or b not in known:
                    raise UnknownOutcome(f"atom ({a},{b}) references unknown outcome")
    else:
        raise ValidationError(f"unknown type space kind {type(spec).__name__}")


@dataclass(frozen=True)
class MediatedProfile:
    """On-path distribution p over full profiles, plus one correlated
    punishment distribution q[i] over A_{-i} per player i."""

    p: Mapping[Profile, Fraction]
    q: tuple[Mapping[Profile, Fraction], ...]


def validate_profile(game: GameForm, profile: MediatedProfile) -> None:
    if len(profile.q) != game.num_players:
        raise ValidationError("one punishment distribution per player required")
    valid = set(profiles_of(game))
    _check_dist(profile.p, valid, "p")
    for i, qi in enumerate(profile.q):
        _check_dist(qi, set(opponents_profiles_of(game, i)), f"q[{i}]")


def _check_dist(dist: Mapping[Profile, Fraction], support: set[Profile], name: str) -> None:
    total = ZERO
    for key, w in dist.items():
        if key not in support:
            raise ValidationError(f"{name} has weight on unknown profile {key}")
        if w < 0:
            raise ValidationError(f"{name} has negative weight on {key}")
        total += w
    if total != 1:
        raise ValidationError(f"{name} sums to {total}, expected 1")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective g over action profiles with a target threshold."""

    g: Mapping[Profile, Fraction]
    threshold: Fraction

    def validate(self, game: GameForm) -> None:
        valid = set(profiles_of(game))
        for prof, v in self.g.items():
            if prof not in valid:
                raise ValidationError(f"objective references unknown profile {prof}")
            if not (ZERO <= v <= ONE):
                raise ValidationError("objective values must lie in [0,1]")
