import json
from fractions import Fraction

import pytest

from ordineq.cli import EXIT_BAD_INPUT, run_cli
from ordineq.errors import ParseError, ValidationError
from ordineq.fixture_suite import fixture_text, load_game
from ordineq.gamedoc import (
    parse_game,
    parse_profile,
    serialize_profile,
)
from ordineq.games import GameForm, MediatedProfile, TotalOrder

ONE = Fraction(1)


def test_parse_total_order_game():
    game, spaces, name = parse_game(
        fixture_text("matching_pennies_asymmetric.game")
    )
    assert name == "matching_pennies_asymmetric"
    assert len(game.action_sets[0]) == 2 and len(game.action_sets[1]) == 2
    assert all(isinstance(s, TotalOrder) for s in spaces)


def test_parse_distribution_pair_exact_rationals():
    _, spaces, _ = parse_game(fixture_text("distribution_preference.game"))
    (_, r2) = spaces[0].pairs[1]
    assert r2 == {"o22": Fraction(3, 5), "o23": Fraction(2, 5)}


def test_missing_outcome_map_cell_is_validation_error():
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    del doc["outcome_map"]["Top,Left"]
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


def test_outcome_map_entry_outside_the_action_sets_is_validation_error(tmp_path):
    """A key that is no profile of the action sets is rejected, not ignored,
    by the parser, by the CLI (exit 65) and by `GameForm` itself."""
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    doc["outcome_map"]["Nope,Never"] = "no_such_outcome"
    with pytest.raises(ValidationError, match="Nope"):
        parse_game(json.dumps(doc))
    path = tmp_path / "stray.game"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", "--game", str(path), "--problem", "eore"]) == EXIT_BAD_INPUT
    game, _, _ = load_game("matching_pennies_symmetric")
    stray = dict(game.outcome_map)
    stray["Top", "Never"] = game.outcomes[0]
    with pytest.raises(ValidationError):
        GameForm(game.action_sets, game.outcomes, stray)


def test_distribution_not_summing_to_one_rejected():
    doc = json.loads(fixture_text("distribution_preference.game"))
    doc["type_spaces"][0]["pairs"][0][1] = {"o22": "1/2"}
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


def test_unknown_space_kind_rejected():
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    doc["type_spaces"][0] = {"kind": "cardinal", "order": []}
    with pytest.raises(ParseError):
        parse_game(json.dumps(doc))


def test_decimal_literals_rejected_everywhere():
    doc = json.loads(fixture_text("distribution_preference.game"))
    doc["type_spaces"][0]["pairs"][1][1] = {"o22": "0.6", "o23": "0.4"}
    with pytest.raises(ParseError):
        parse_game(json.dumps(doc))


def test_profile_round_trip_drops_zeros():
    game, _, _ = load_game("matching_pennies_symmetric")
    profile = MediatedProfile(
        {("Top", "Left"): ONE, ("Top", "Right"): Fraction(0)},
        ({("Left",): ONE}, {("Top",): ONE}),
    )
    text = serialize_profile(profile)
    assert "Top,Right" not in text
    again = parse_profile(text, game)
    assert again.p == {("Top", "Left"): ONE}
    assert again.q == profile.q


def test_profile_must_sum_to_one():
    game, _, _ = load_game("matching_pennies_symmetric")
    bad = json.dumps(
        {"p": {"Top,Left": "1/2"}, "q": [{"Left": "1"}, {"Top": "1"}]}
    )
    with pytest.raises(ValidationError):
        parse_profile(bad, game)


def test_profile_unknown_action_rejected():
    game, _, _ = load_game("matching_pennies_symmetric")
    bad = json.dumps(
        {"p": {"Up,Left": "1"}, "q": [{"Left": "1"}, {"Top": "1"}]}
    )
    with pytest.raises((ParseError, ValidationError)):
        parse_profile(bad, game)
