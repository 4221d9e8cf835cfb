import json

import pytest

from ordineq.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO,
    EXIT_NON_DEFINITIVE,
    EXIT_USAGE,
    EXIT_YES,
    run_cli,
)
from ordineq.fixture_suite import fixture_text


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / name
        path.write_text(fixture_text(name))
        return str(path)

    return write


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_no_equilibrium(fixture_file, capsys):
    game = fixture_file("matching_pennies_asymmetric.game")
    code, out, _ = run(capsys, ["solve", "--game", game, "--problem", "eore"])
    assert code == EXIT_NO
    assert json.loads(out) == {"answer": "no"}


def test_solve_yes_includes_profile(fixture_file, capsys):
    game = fixture_file("matching_pennies_symmetric.game")
    code, out, _ = run(capsys, ["solve", "--game", game, "--problem", "eore"])
    assert code == EXIT_YES
    doc = json.loads(out)
    assert doc["answer"] == "yes"
    assert set(doc["profile"]) == {"p", "q"}


def test_verify_equilibrium_profile(fixture_file, capsys):
    game = fixture_file("matching_pennies_symmetric.game")
    profile = fixture_file("matching_pennies_symmetric_eq.profile")
    code, out, _ = run(
        capsys, ["verify", "--game", game, "--profile", profile]
    )
    assert code == EXIT_YES
    assert json.loads(out) == {"verdict": "robust_equilibrium"}


def test_verify_reports_violation(fixture_file, tmp_path, capsys):
    game = fixture_file("distribution_preference.game")
    profile = tmp_path / "candidate.profile"
    profile.write_text(
        json.dumps(
            {
                "p": {"Top,Left": "1"},
                "q": [
                    {"Center": "1/2", "Right": "1/2"},
                    {"Top": "1"},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, ["verify", "--game", game, "--profile", str(profile)]
    )
    assert code == EXIT_NO
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    assert doc["player"] == 0
    assert "witness" in doc and "gap" in doc


def test_pure_lists_coordination_equilibrium(fixture_file, capsys):
    game = fixture_file("coordination_ordinal.game")
    code, out, _ = run(capsys, ["pure", "--game", game])
    assert code == EXIT_YES
    assert ["Bottom", "Right"] in json.loads(out)["profiles"]


def test_reduce_sat_round_trip_unsat(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 1 2\n1 0\n-1 0\n")
    out_game = tmp_path / "g.game"
    code, _, _ = run(
        capsys,
        ["reduce-sat", "--dimacs", str(dimacs), "--out", str(out_game)],
    )
    assert code == EXIT_YES
    code, out, _ = run(
        capsys, ["solve", "--game", str(out_game), "--problem", "eore"]
    )
    assert code == EXIT_YES  # UNSAT formula: existence is definitive
    assert json.loads(out)["answer"] == "yes"


def test_reduce_sat_round_trip_satisfiable(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 2 2\n1 -2 0\n-1 0\n")
    out_game = tmp_path / "g.game"
    run(capsys, ["reduce-sat", "--dimacs", str(dimacs), "--out", str(out_game)])
    code, out, _ = run(
        capsys, ["solve", "--game", str(out_game), "--problem", "eore"]
    )
    assert code == EXIT_NO
    assert json.loads(out)["answer"] == "no"


def test_cnf_game_non_existence_problems_are_usage_errors(
    fixture_file, capsys
):
    game = fixture_file("preference_cnf_example.game")
    code, _, err = run(
        capsys,
        ["solve", "--game", game, "--problem", "sire", "--target", "row_o0,col_1"],
    )
    assert code == EXIT_USAGE
    assert err


def test_enumerate_types_threshold_count(fixture_file, capsys):
    game = fixture_file("matching_pennies_symmetric.game")
    code, out, _ = run(
        capsys, ["enumerate-types", "--game", game, "--player", "0"]
    )
    assert code == EXIT_YES
    assert len(json.loads(out)["types"]) == 3


def test_fixtures_lists_bundled_games(capsys):
    code, out, _ = run(capsys, ["fixtures"])
    assert code == EXIT_YES
    names = json.loads(out)["fixtures"]
    assert "matching_pennies_asymmetric" in names
    assert len(names) >= 6


def test_usage_error_missing_subcommand_flag(capsys):
    code, _, _ = run(capsys, ["solve", "--problem", "eore"])
    assert code == EXIT_USAGE


def test_usage_error_sire_without_target(fixture_file, capsys):
    game = fixture_file("matching_pennies_symmetric.game")
    code, _, _ = run(capsys, ["solve", "--game", game, "--problem", "sire"])
    assert code == EXIT_USAGE


def test_bad_input_malformed_game(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("{ not json")
    code, _, err = run(capsys, ["solve", "--game", str(bad), "--problem", "eore"])
    assert code == EXIT_BAD_INPUT
    assert err


def test_bad_input_decimal_rational(tmp_path, capsys):
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    doc["type_spaces"][0] = {"kind": "finite", "types": [{"o1": "0.5", "o2": "0"}]}
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["solve", "--game", str(bad), "--problem", "eore"])
    assert code == EXIT_BAD_INPUT


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("actions",), 3),
        (("actions",), [[1, 2], [3, 4]]),
        (("outcome_map",), []),
        (("outcomes",), 5),
        (("type_spaces",), 5),
        (("type_spaces", 0), {"kind": "finite", "types": ["x"]}),
        (("type_spaces", 0), {"kind": "partial_order", "pairs": [["o1"]]}),
        (("type_spaces", 0, "order"), 5),
    ],
    ids=[
        "actions-int",
        "action-names-int",
        "outcome_map-list",
        "outcomes-int",
        "type_spaces-int",
        "finite-type-str",
        "partial-pair-short",
        "order-int",
    ],
)
def test_bad_input_wrong_field_type(tmp_path, capsys, path, value):
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    _set(doc, path, value)
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["solve", "--game", str(bad), "--problem", "eore"])
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "field, value",
    [("p", []), ("q", 5), ("q", [[], {}])],
    ids=["p-list", "q-int", "q-entry-list"],
)
def test_bad_profile_wrong_field_type(fixture_file, tmp_path, capsys, field, value):
    game = fixture_file("matching_pennies_symmetric.game")
    doc = json.loads(fixture_text("matching_pennies_symmetric_eq.profile"))
    doc[field] = value
    bad = tmp_path / "bad.profile"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--game", game, "--profile", str(bad)])
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")


def test_output_is_deterministic(fixture_file, capsys):
    game = fixture_file("prisoners_dilemma_rich.game")
    argv = ["solve", "--game", game, "--problem", "eore"]
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, argv)
        outputs.add(out)
    assert len(outputs) == 1


def test_non_definitive_exit_code_for_generic_cnf_game(tmp_path, capsys):
    # a hand-made preference-CNF game that is not reduction-shaped: the yes
    # verdict is only over extreme types and must be flagged as such
    doc = {
        "name": "generic_cnf",
        "players": 2,
        "actions": [["r1", "r2"], ["c1", "c2"]],
        "outcomes": ["w1", "w2"],
        "outcome_map": {
            "r1,c1": "w1",
            "r1,c2": "w2",
            "r2,c1": "w2",
            "r2,c2": "w1",
        },
        "type_spaces": [
            {"kind": "preference_cnf", "clauses": [[["w1", "w2"]]]},
            {"kind": "total_order", "order": ["w1", "w2"]},
        ],
    }
    path = tmp_path / "generic.game"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["solve", "--game", str(path), "--problem", "eore"])
    assert code in (EXIT_NON_DEFINITIVE, EXIT_NO)
    if code == EXIT_NON_DEFINITIVE:
        assert json.loads(out)["answer"] == "yes_over_extreme_types"
