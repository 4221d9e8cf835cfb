"""Bundled example games and profiles, read from the package's
`fixtures` directory."""

from __future__ import annotations

from importlib import resources

from .gamedoc import parse_game, parse_profile

GAME_NAMES = (
    "coordination_ordinal",
    "coordination_cardinal_a",
    "coordination_cardinal_b",
    "matching_pennies_asymmetric",
    "matching_pennies_symmetric",
    "prisoners_dilemma_rich",
    "distribution_preference",
    "preference_cnf_example",
)


def _read(filename: str) -> str:
    return resources.files("ordineq").joinpath("fixtures", filename).read_text()


def load_game(name: str):
    """Return (GameForm, spaces, name) for a bundled game."""
    game, spaces, doc_name = parse_game(_read(name + ".game"))
    return game, spaces, doc_name or name


def load_profile(name: str, game):
    return parse_profile(_read(name + ".profile"), game)


def fixture_text(filename: str) -> str:
    return _read(filename)
