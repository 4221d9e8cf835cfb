"""`solve`'s pivots and profiles, pinned to recorded values.

A change to how `linprog` stores or updates its tableau must take the same
pivots to the same vertices.  These cases pin, per query, the number of
`linprog._pivot` calls `solve` makes and the first 16 hex digits of the
sha256 of its serialized profile ("no" for no profile).  A change that
means to move pivots, such as a new pivot rule (ROADMAP item 1),
re-records `PINS` with `python tests/test_pivot_pins.py`, which prints
them, and says so in `CHANGES.md`.
"""

import hashlib
import random
from fractions import Fraction
from unittest import mock

from ordineq import equilibrium as eq
from ordineq import linprog
from ordineq.fixture_suite import GAME_NAMES, load_game, load_profile
from ordineq.gamedoc import serialize_profile
from ordineq.games import ObjectiveSpec, profiles_of
from ordineq.randgen import random_game

HALF = Fraction(1, 2)
KINDS = ("total_order", "partial_order", "distribution_order", "preference_cnf", "finite")

#: The bundled profile whose p is a fixture game's AARE path.
PATHS = {
    "coordination_ordinal": "coordination_eq",
    "matching_pennies_symmetric": "matching_pennies_symmetric_eq",
    "prisoners_dilemma_rich": "prisoners_dilemma_rich_eq",
}


def _cases():
    """(name, game, spaces, query): every bundled game under EORE, and under
    AARE on its bundled profile's path; then 30 seeded random games of 2
    players with up to 4 actions and of 3 players with up to 3, over all
    five space kinds, each under EORE, SIRE, AARE and OMIRE."""
    cases = []
    for name in GAME_NAMES:
        game, spaces, _ = load_game(name)
        cases.append((f"{name} eore", game, spaces, eq.Eore()))
        if name in PATHS:
            path = dict(load_profile(PATHS[name], game).p)
            cases.append((f"{name} aare", game, spaces, eq.Aare(path)))
    rng = random.Random(26)
    for k in range(30):
        players = 3 if k % 3 == 2 else 2
        kind = KINDS[k % len(KINDS)]
        actions = 4 if players == 2 else 3
        game, spaces = random_game(rng.randint(0, 10**9), players, actions, max_outcomes=8, kind=kind)
        profiles = list(profiles_of(game))
        a, b = rng.sample(profiles, 2)
        g = {prof: Fraction(rng.randint(0, 2), 2) for prof in profiles}
        queries = {
            "eore": eq.Eore(),
            "sire": eq.Sire(rng.choice(profiles)),
            "aare": eq.Aare({a: HALF, b: HALF}),
            "omire": eq.Omire(ObjectiveSpec(g, HALF)),
        }
        for q, query in queries.items():
            cases.append((f"random {k} {players}p {kind} {q}", game, spaces, query))
    return cases


def _pinned(game, spaces, query) -> tuple[int, str]:
    """The `_pivot` calls of one `solve`, and its profile's digest."""
    pivots = [0]
    pivot = linprog._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    with mock.patch.object(linprog, "_pivot", counted):
        res = eq.solve(game, spaces, query)
    if res.profile is None:
        return pivots[0], "no"
    return pivots[0], hashlib.sha256(serialize_profile(res.profile).encode()).hexdigest()[:16]


def _record() -> None:
    """Print `PINS` for the tree on the import path."""
    for name, game, spaces, query in _cases():
        pivots, digest = _pinned(game, spaces, query)
        print(f'    "{name}": ({pivots}, "{digest}"),')


#: (pivots, digest) per case, as `_record()` prints them.
PINS = {
    "coordination_ordinal eore": (1, "c4e29d42fbda94c1"),
    "coordination_ordinal aare": (0, "c4e29d42fbda94c1"),
    "coordination_cardinal_a eore": (1, "871be6c6ffeafc71"),
    "coordination_cardinal_b eore": (1, "68811d83c667de79"),
    "matching_pennies_asymmetric eore": (5, "no"),
    "matching_pennies_symmetric eore": (3, "84103ca09a894b41"),
    "matching_pennies_symmetric aare": (2, "6874a482ef53520d"),
    "prisoners_dilemma_rich eore": (12, "50a465e558d7b068"),
    "prisoners_dilemma_rich aare": (8, "50a465e558d7b068"),
    "distribution_preference eore": (12, "no"),
    "preference_cnf_example eore": (1, "no"),
    "random 0 2p total_order eore": (1, "5ffb0e88511256b4"),
    "random 0 2p total_order sire": (5, "no"),
    "random 0 2p total_order aare": (1, "no"),
    "random 0 2p total_order omire": (2, "5ffb0e88511256b4"),
    "random 1 2p partial_order eore": (4, "8c563112ee3dc90f"),
    "random 1 2p partial_order sire": (5, "no"),
    "random 1 2p partial_order aare": (0, "no"),
    "random 1 2p partial_order omire": (1, "8c563112ee3dc90f"),
    "random 2 3p distribution_order eore": (1, "be4eff96859375b5"),
    "random 2 3p distribution_order sire": (1, "be4eff96859375b5"),
    "random 2 3p distribution_order aare": (5, "d033031716c11ff4"),
    "random 2 3p distribution_order omire": (1, "be4eff96859375b5"),
    "random 3 2p preference_cnf eore": (5, "no"),
    "random 3 2p preference_cnf sire": (4, "no"),
    "random 3 2p preference_cnf aare": (2, "no"),
    "random 3 2p preference_cnf omire": (3, "no"),
    "random 4 2p finite eore": (3, "605a31d4ae026cf4"),
    "random 4 2p finite sire": (2, "605a31d4ae026cf4"),
    "random 4 2p finite aare": (3, "2026775a93bdcc24"),
    "random 4 2p finite omire": (7, "3dc7750941d70e45"),
    "random 5 3p total_order eore": (4, "553e20cb0f91d0db"),
    "random 5 3p total_order sire": (8, "d0bc7c0ba55370c1"),
    "random 5 3p total_order aare": (5, "no"),
    "random 5 3p total_order omire": (6, "741d89f27b9a27da"),
    "random 6 2p partial_order eore": (10, "no"),
    "random 6 2p partial_order sire": (8, "no"),
    "random 6 2p partial_order aare": (0, "no"),
    "random 6 2p partial_order omire": (10, "no"),
    "random 7 2p distribution_order eore": (5, "no"),
    "random 7 2p distribution_order sire": (6, "no"),
    "random 7 2p distribution_order aare": (4, "no"),
    "random 7 2p distribution_order omire": (5, "no"),
    "random 8 3p preference_cnf eore": (29, "no"),
    "random 8 3p preference_cnf sire": (18, "no"),
    "random 8 3p preference_cnf aare": (12, "no"),
    "random 8 3p preference_cnf omire": (27, "no"),
    "random 9 2p finite eore": (0, "e54708c06abb68de"),
    "random 9 2p finite sire": (1, "019ef3c5781d924c"),
    "random 9 2p finite aare": (0, "258478be6619845e"),
    "random 9 2p finite omire": (0, "e54708c06abb68de"),
    "random 10 2p total_order eore": (3, "748aad2c080b3d98"),
    "random 10 2p total_order sire": (2, "748aad2c080b3d98"),
    "random 10 2p total_order aare": (1, "no"),
    "random 10 2p total_order omire": (3, "748aad2c080b3d98"),
    "random 11 3p partial_order eore": (7, "7457612b7bff5f20"),
    "random 11 3p partial_order sire": (10, "eda3c6eaaaa93ec8"),
    "random 11 3p partial_order aare": (4, "no"),
    "random 11 3p partial_order omire": (9, "6d15747c8f86856f"),
    "random 12 2p distribution_order eore": (12, "no"),
    "random 12 2p distribution_order sire": (18, "no"),
    "random 12 2p distribution_order aare": (4, "no"),
    "random 12 2p distribution_order omire": (10, "no"),
    "random 13 2p preference_cnf eore": (0, "e54708c06abb68de"),
    "random 13 2p preference_cnf sire": (1, "d28bf0f63c82ffa8"),
    "random 13 2p preference_cnf aare": (1, "no"),
    "random 13 2p preference_cnf omire": (2, "d78f42546912fa7d"),
    "random 14 3p finite eore": (5, "42310d7196e97513"),
    "random 14 3p finite sire": (10, "ec292deb097bb078"),
    "random 14 3p finite aare": (5, "1f68f206f5f2b122"),
    "random 14 3p finite omire": (2, "2376944d1bd1708d"),
    "random 15 2p total_order eore": (2, "605a31d4ae026cf4"),
    "random 15 2p total_order sire": (7, "no"),
    "random 15 2p total_order aare": (2, "no"),
    "random 15 2p total_order omire": (11, "no"),
    "random 16 2p partial_order eore": (2, "f3b3419b6191cfec"),
    "random 16 2p partial_order sire": (3, "no"),
    "random 16 2p partial_order aare": (0, "no"),
    "random 16 2p partial_order omire": (3, "bdfbd5405b72d15d"),
    "random 17 3p distribution_order eore": (48, "no"),
    "random 17 3p distribution_order sire": (58, "no"),
    "random 17 3p distribution_order aare": (16, "no"),
    "random 17 3p distribution_order omire": (25, "no"),
    "random 18 2p preference_cnf eore": (6, "no"),
    "random 18 2p preference_cnf sire": (7, "no"),
    "random 18 2p preference_cnf aare": (2, "no"),
    "random 18 2p preference_cnf omire": (6, "no"),
    "random 19 2p finite eore": (7, "ba16dda5f70a519f"),
    "random 19 2p finite sire": (8, "c3700a076581e495"),
    "random 19 2p finite aare": (4, "no"),
    "random 19 2p finite omire": (3, "33a84b64db1b0d4d"),
    "random 20 3p total_order eore": (3, "519ee319c1982af8"),
    "random 20 3p total_order sire": (13, "no"),
    "random 20 3p total_order aare": (1, "ae9da493573199e6"),
    "random 20 3p total_order omire": (4, "519ee319c1982af8"),
    "random 21 2p partial_order eore": (5, "f3b3419b6191cfec"),
    "random 21 2p partial_order sire": (6, "no"),
    "random 21 2p partial_order aare": (3, "no"),
    "random 21 2p partial_order omire": (8, "f84a6bf7ad6a299f"),
    "random 22 2p distribution_order eore": (9, "no"),
    "random 22 2p distribution_order sire": (9, "no"),
    "random 22 2p distribution_order aare": (3, "no"),
    "random 22 2p distribution_order omire": (9, "no"),
    "random 23 3p preference_cnf eore": (17, "no"),
    "random 23 3p preference_cnf sire": (20, "no"),
    "random 23 3p preference_cnf aare": (10, "no"),
    "random 23 3p preference_cnf omire": (16, "no"),
    "random 24 2p finite eore": (5, "249ea357a4b3329e"),
    "random 24 2p finite sire": (9, "df33d70d0f8db677"),
    "random 24 2p finite aare": (5, "no"),
    "random 24 2p finite omire": (4, "249ea357a4b3329e"),
    "random 25 2p total_order eore": (0, "e54708c06abb68de"),
    "random 25 2p total_order sire": (4, "0e68fd5c89093da3"),
    "random 25 2p total_order aare": (5, "no"),
    "random 25 2p total_order omire": (6, "570ff891ea1593e1"),
    "random 26 3p partial_order eore": (10, "a084a38554a35d33"),
    "random 26 3p partial_order sire": (3, "a084a38554a35d33"),
    "random 26 3p partial_order aare": (10, "no"),
    "random 26 3p partial_order omire": (12, "ee9c2e184642d2a9"),
    "random 27 2p distribution_order eore": (29, "no"),
    "random 27 2p distribution_order sire": (20, "no"),
    "random 27 2p distribution_order aare": (4, "no"),
    "random 27 2p distribution_order omire": (22, "no"),
    "random 28 2p preference_cnf eore": (3, "56d08d9a9186fdd6"),
    "random 28 2p preference_cnf sire": (4, "511d60c2f9d34c17"),
    "random 28 2p preference_cnf aare": (1, "no"),
    "random 28 2p preference_cnf omire": (3, "56d08d9a9186fdd6"),
    "random 29 3p finite eore": (6, "ee68ccf659623933"),
    "random 29 3p finite sire": (8, "ca0a81e0f6dbe874"),
    "random 29 3p finite aare": (7, "no"),
    "random 29 3p finite omire": (6, "fb1218ebcb5da1ea"),
}


def test_pivots_and_profiles_match_the_recorded_pins():
    got = {name: _pinned(game, spaces, query) for name, game, spaces, query in _cases()}
    assert set(got) == set(PINS)
    moved = {name: (PINS[name], value) for name, value in got.items() if value != PINS[name]}
    assert not moved, moved


if __name__ == "__main__":
    _record()
