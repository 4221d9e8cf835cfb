"""The bundled game catalog is consistent."""

from ordineq import fixture_suite


def test_every_cataloged_game_loads():
    for name in fixture_suite.GAME_NAMES:
        game, spaces, loaded_name = fixture_suite.load_game(name)
        assert loaded_name == name
        assert len(spaces) == len(game.action_sets)
