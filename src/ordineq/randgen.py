"""Seeded random games and spaces for the equivalence property suites.

Everything is derived from the seed so any failing trial is replayable.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .games import (
    DistributionOrder,
    FiniteTypes,
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    opponents_profiles_of,
    profiles_of,
)


def random_game(
    seed: int,
    num_players: int = 2,
    max_actions: int = 3,
    max_outcomes: int = 6,
    kind: str = "partial_order",
):
    """Deterministic (GameForm, spaces) with the given type-space kind."""
    rng = random.Random(seed)
    action_sets = tuple(
        tuple(f"a{i}_{k}" for k in range(rng.randint(2, max_actions)))
        for i in range(num_players)
    )
    cells = 1
    for acts in action_sets:
        cells *= len(acts)
    n_out = rng.randint(2, min(max_outcomes, cells))
    outcomes = tuple(f"w{k}" for k in range(n_out))

    profiles = list(itertools.product(*action_sets))
    rng.shuffle(profiles)
    mapping = {}
    # Every outcome is hit at least once; remaining cells are random.
    for k, prof in enumerate(profiles):
        if k < n_out:
            mapping[prof] = outcomes[k]
        else:
            mapping[prof] = rng.choice(outcomes)
    game = GameForm(action_sets, outcomes, mapping)

    spaces = tuple(_random_space(rng, outcomes, kind) for _ in range(num_players))
    return game, spaces


def _random_space(rng: random.Random, outcomes, kind: str):
    n = len(outcomes)
    if kind == "total_order":
        order = list(outcomes)
        rng.shuffle(order)
        return TotalOrder(tuple(order))
    if kind == "partial_order":
        max_pairs = n * (n - 1) // 2
        count = rng.randint(0, max_pairs)
        pairs = []
        for _ in range(count):
            a, b = rng.sample(outcomes, 2)
            pairs.append((a, b))
        return PartialOrder(tuple(pairs))
    if kind == "distribution_order":
        pairs = []
        for _ in range(rng.randint(0, 3)):
            pairs.append((_random_dist(rng, outcomes), _random_dist(rng, outcomes)))
        return DistributionOrder(tuple(pairs))
    if kind == "preference_cnf":
        # Atoms are drawn with replacement, so clauses may repeat an atom or
        # hold a tautology (o, o); one clause in twenty is empty.
        clauses = []
        for _ in range(rng.randint(0, n)):
            size = 0 if rng.random() < 0.05 else rng.randint(1, 3)
            clauses.append(
                tuple((rng.choice(outcomes), rng.choice(outcomes)) for _ in range(size))
            )
        return PreferenceCnf(tuple(clauses))
    if kind == "finite":
        types = tuple(
            {o: Fraction(rng.randint(0, 4), 4) for o in outcomes}
            for _ in range(rng.randint(1, 3))
        )
        return FiniteTypes(types)
    raise ValueError(f"unknown kind {kind!r}")


def _random_dist(rng: random.Random, outcomes) -> dict[str, Fraction]:
    support = rng.sample(outcomes, rng.randint(1, min(3, len(outcomes))))
    weights = [rng.randint(1, 4) for _ in support]
    total = sum(weights)
    return {o: Fraction(w, total) for o, w in zip(support, weights)}


def random_profile_point(rng: random.Random, game: GameForm):
    """Random exact (p, q) pair for oracle-equivalence trials."""
    p = _random_profile_dist(rng, list(profiles_of(game)))
    q = tuple(
        _random_profile_dist(rng, list(opponents_profiles_of(game, i)))
        for i in range(game.num_players)
    )
    return MediatedProfile(p, q)


def _random_profile_dist(rng: random.Random, keys: list) -> dict:
    support = rng.sample(keys, rng.randint(1, len(keys)))
    weights = [rng.randint(1, 5) for _ in support]
    total = sum(weights)
    return {k: Fraction(w, total) for k, w in zip(support, weights)}
