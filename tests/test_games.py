import math
import random
from fractions import Fraction

import pytest

from conftest import partial_order_closure
from ordineq.errors import UnknownOutcome, ValidationError
from ordineq.fixture_suite import GAME_NAMES, fixture_text, load_game
from ordineq.gamedoc import parse_game, serialize_game
from ordineq.games import (
    FiniteTypes,
    GameForm,
    MediatedProfile,
    check_distribution,
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
    validate_profile,
    validate_space,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def small_game(actions, mapping):
    outcomes = tuple(dict.fromkeys(mapping.values()))
    return GameForm(tuple(map(tuple, actions)), outcomes, mapping)


TWO_BY_TWO = small_game(
    [["a1", "a2"], ["b1", "b2"]],
    {
        ("a1", "b1"): "w",
        ("a1", "b2"): "x",
        ("a2", "b1"): "y",
        ("a2", "b2"): "z",
    },
)


def test_profiles_lexicographic_order():
    assert list(profiles_of(TWO_BY_TWO)) == [
        ("a1", "b1"),
        ("a1", "b2"),
        ("a2", "b1"),
        ("a2", "b2"),
    ]


def test_profiles_count_four_by_four():
    game, _, _ = load_game("prisoners_dilemma_rich")
    assert len(list(profiles_of(game))) == 16


def test_profiles_three_players():
    game = small_game(
        [["a", "A"], ["b", "B"], ["c", "C"]],
        {p: "o" for p in __import__("itertools").product("aA", "bB", "cC")},
    )
    assert len(list(profiles_of(game))) == 8
    assert len(list(opponents_profiles_of(game, 1))) == 4


def test_opponents_profiles_two_by_three():
    game = small_game(
        [["a1", "a2"], ["b1", "b2", "b3"]],
        {
            (a, b): "o"
            for a in ("a1", "a2")
            for b in ("b1", "b2", "b3")
        },
    )
    assert list(opponents_profiles_of(game, 0)) == [("b1",), ("b2",), ("b3",)]
    assert list(opponents_profiles_of(game, 1)) == [("a1",), ("a2",)]


def test_outcome_distribution_uniform():
    game, _, _ = load_game("matching_pennies_symmetric")
    p = {prof: Fraction(1, 4) for prof in profiles_of(game)}
    assert outcome_distribution(game, p) == {
        "o1": Fraction(1, 2),
        "o2": Fraction(1, 2),
    }


def test_outcome_distribution_point_mass():
    game, _, _ = load_game("matching_pennies_asymmetric")
    assert outcome_distribution(game, {("Top", "Left"): ONE})["o11"] == ONE


def test_outcome_distribution_preserves_mass():
    rng = random.Random(3)
    game, _, _ = load_game("prisoners_dilemma_rich")
    profs = list(profiles_of(game))
    for _ in range(50):
        weights = [Fraction(rng.randint(0, 5)) for _ in profs]
        total = sum(weights) or ONE
        p = {prof: w / total for prof, w in zip(profs, weights)}
        dist = outcome_distribution(game, p)
        assert sum(dist.values()) == ONE


def test_closure_transitivity():
    closure = partial_order_closure((("a", "b"), ("b", "c")), ("a", "b", "c"))
    assert ("a", "c") in closure


def test_closure_empty_is_identity():
    closure = partial_order_closure((), ("a", "b"))
    assert closure == frozenset({("a", "a"), ("b", "b")})


def test_closure_of_eight_element_chain():
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    order = spaces[0].order
    chain = tuple(zip(order, order[1:]))  # 7 edges
    closure = partial_order_closure(chain, game.outcomes)
    # all comparable ordered pairs including reflexive: 8+7+...+1
    assert len(closure) == 36


def test_closure_idempotent():
    rng = random.Random(5)
    outcomes = tuple("abcdef")
    for _ in range(50):
        pairs = tuple(
            tuple(rng.sample(outcomes, 2)) for _ in range(rng.randint(0, 10))
        )
        closure = partial_order_closure(pairs, outcomes)
        assert partial_order_closure(tuple(closure), outcomes) == closure


def test_round_trip_on_all_fixtures():
    for name in GAME_NAMES:
        text = fixture_text(name + ".game")
        game, spaces, doc_name = parse_game(text)
        again, spaces2, name2 = parse_game(serialize_game(game, spaces, doc_name))
        assert again == game
        assert spaces2 == spaces
        assert name2 == doc_name


def test_missing_outcome_map_cell_rejected():
    with pytest.raises(ValidationError):
        small_game(
            [["a1", "a2"], ["b1"]],
            {("a1", "b1"): "w"},
        )


def test_duplicate_outcome_names_rejected():
    with pytest.raises(ValidationError):
        GameForm(
            (("a1",), ("b1",)),
            ("w", "w"),
            {("a1", "b1"): "w"},
        )


def test_profile_masses_validated():
    game = TWO_BY_TWO
    good = MediatedProfile(
        {("a1", "b1"): ONE},
        ({("b1",): ONE}, {("a1",): ONE}),
    )
    validate_profile(game, good)
    bad = MediatedProfile(
        {("a1", "b1"): Fraction(1, 2)},
        ({("b1",): ONE}, {("a1",): ONE}),
    )
    with pytest.raises(ValidationError):
        validate_profile(game, bad)
    negative = MediatedProfile(
        {("a1", "b1"): Fraction(3, 2), ("a2", "b2"): Fraction(-1, 2)},
        ({("b1",): ONE}, {("a1",): ONE}),
    )
    with pytest.raises(ValidationError):
        validate_profile(game, negative)


def test_a_sum_off_by_one_over_the_lcm_is_rejected_exactly():
    """Weights over coprime and shared denominators that sum to 1 pass;
    moving one weight by 1/lcm of the denominators is rejected, and the
    message gives the exact total.  Unknown keys, inexact and negative
    weights keep their own errors."""
    rng = random.Random(29)
    support = {f"k{j}" for j in range(6)}
    checked = 0
    while checked < 200:
        dens = [rng.choice((2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 16)) for _ in range(rng.randint(1, 5))]
        dist = {f"k{j}": Fraction(rng.randint(0, d), d) for j, d in enumerate(dens)}
        last = 1 - sum(dist.values())
        if last < 0:
            continue
        dist["k5"] = last
        check_distribution(dist, support, "d")
        lcm = math.lcm(*(w.denominator for w in dist.values()))
        for off in (Fraction(1, lcm), Fraction(-1, lcm)):
            key = rng.choice([k for k, w in dist.items() if w + off >= 0])
            wrong = {**dist, key: dist[key] + off}
            with pytest.raises(ValidationError, match=f"^d sums to {1 + off}, expected 1$"):
                check_distribution(wrong, support, "d")
            checked += 1
    cases = {
        "has weight on unknown profile x": {"x": ONE},
        "weight 0.5 on k0 is not rational": {"k0": 0.5, "k1": ONE / 2},
        "has negative weight on k1": {"k0": ONE + ONE, "k1": -ONE},
        "sums to 0, expected 1": {},
        "sums to 7/6, expected 1": {"k0": ONE / 2, "k1": Fraction(2, 3)},
    }
    for message, dist in cases.items():
        with pytest.raises(ValidationError, match=f"^d {message}$"):
            check_distribution(dist, support, "d")


def test_finite_types_validated():
    outcomes = ("a", "b")
    validate_space(FiniteTypes(({"a": ZERO, "b": ONE}, {"b": ONE / 2, "a": 1})), outcomes)
    with pytest.raises(UnknownOutcome):
        validate_space(FiniteTypes(({"a": ZERO, "b": ONE, "c": ONE},)), outcomes)
    for bad in (
        {"a": ZERO},
        {"a": ZERO, "b": Fraction(3, 2)},
        {"a": -ONE / 2, "b": ZERO},
        {"a": ZERO, "b": 0.5},
        {"a": "1", "b": ZERO},
    ):
        with pytest.raises(ValidationError):
            validate_space(FiniteTypes((bad,)), outcomes)
