import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordineq.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO,
    EXIT_USAGE,
    EXIT_YES,
    run_cli,
)
from ordineq.equilibrium import Aare, Omire, Sire, solve
from ordineq.fixture_suite import GAME_NAMES, fixture_text, load_game
from ordineq.gamedoc import serialize_game, serialize_profile
from ordineq.games import GameForm, ObjectiveSpec, PreferenceCnf
from ordineq.rational import rational_render

ONE = Fraction(1)
HALF = Fraction(1, 2)


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


def _zero_one(outcomes: str, ones: str) -> dict:
    """A 0/1 witness as the CLI renders it: each outcome of `outcomes`,
    space-separated, maps to "1" if it is in `ones` and to "0" if not."""
    return {o: "1" if o in ones.split() else "0" for o in outcomes.split()}


COORDINATION = "o11 o12 o13 o21 o22 o23 o31 o32 o33"


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
    assert json.loads(out) == {
        "verdict": "violated",
        "player": 0,
        "deviation": "Top",
        "gap": "1",
        "witness": _zero_one("o11 o12 o13 o21 o22 o23", "o12 o13"),
    }


@pytest.mark.parametrize(
    "game, profile, expected",
    [
        (
            "coordination_ordinal",
            "matching_pennies_symmetric_eq",
            ("Middle", "1/4", _zero_one(COORDINATION, "o11 o12 o21 o22 o23 o31 o32 o33")),
        ),
        (
            "matching_pennies_asymmetric",
            "matching_pennies_symmetric_eq",
            ("Top", "1/4", _zero_one("o11 o12 o21 o22", "o11")),
        ),
        (
            "coordination_cardinal_a",
            "matching_pennies_symmetric_eq",
            (
                "Middle",
                "9/80",
                dict(
                    zip(COORDINATION.split(), "4/5 9/10 0 39/50 91/100 3/5 81/100 22/25 7/10".split())
                ),
            ),
        ),
    ],
    ids=["total-order", "total-order-4", "finite"],
)
def test_verify_prints_exact_gap_and_witness(fixture_file, capsys, game, profile, expected):
    """A bundled profile on another bundled game is violated by player 0;
    the gap and the witness print as exact rationals, 0/1 witnesses as
    "0" and "1"."""
    game, profile = fixture_file(game + ".game"), fixture_file(profile + ".profile")
    code, out, _ = run(capsys, ["verify", "--game", game, "--profile", profile])
    deviation, gap, witness = expected
    assert code == EXIT_NO
    assert json.loads(out) == {
        "verdict": "violated",
        "player": 0,
        "deviation": deviation,
        "gap": gap,
        "witness": witness,
    }


def test_enumerate_types_prints_cnf_models_as_zero_one_strings(fixture_file, capsys):
    """The 0/1 models of a CNF print as "0" and "1", in enumeration order."""
    game = fixture_file("preference_cnf_example.game")
    code, out, _ = run(capsys, ["enumerate-types", "--game", game, "--player", "1"])
    assert code == EXIT_YES
    assert json.loads(out) == {
        "player": 1,
        "types": [
            _zero_one("o0 o1 o_x1 o_x2", ones)
            for ones in ("", "o0", "o0 o1", "o0 o1 o_x1", "o0 o1 o_x1 o_x2")
        ],
    }


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


def test_cnf_game_answers_every_problem_as_solve_does(tmp_path, capsys):
    """On the CNF fixture, which has no equilibrium, and on it with the
    clause (o0 >= o1) added, `ordineq solve` gives the answer, value and
    profile of `equilibrium.solve` for SIRE, AARE and OMIRE."""
    game, (cnf, order), _ = load_game("preference_cnf_example")
    target = ("row_o0", "col_1")
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"row_o0,col_1": "1"}))
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"row_o0,col_1": "1", "row_o1,col_2": "1/2"}))
    queries = (
        (Sire(target), ["--problem", "sire", "--target", "row_o0,col_1"]),
        (Aare({target: ONE}), ["--problem", "aare", "--path", str(path)]),
        (
            Omire(ObjectiveSpec({target: ONE, ("row_o1", "col_2"): HALF}, HALF)),
            ["--problem", "omire", "--objective", str(objective), "--threshold", "1/2"],
        ),
    )
    answers = set()
    for k, spec in enumerate((cnf, PreferenceCnf(cnf.clauses + ((("o0", "o1"),),)))):
        game_path = tmp_path / f"cnf{k}.game"
        game_path.write_text(serialize_game(game, (spec, order)))
        for query, argv in queries:
            res = solve(game, (spec, order), query)
            want = {"answer": "yes" if res.answer else "no"}
            if res.profile is not None:
                want["profile"] = json.loads(serialize_profile(res.profile))
            if res.value is not None:
                want["value"] = rational_render(res.value)
            code, out, _ = run(capsys, ["solve", "--game", str(game_path), *argv])
            assert (code, json.loads(out)) == (EXIT_YES if res.answer else EXIT_NO, want)
            answers.add(res.answer)
    assert answers == {False, True}


def test_a_cnf_game_with_1200_outcomes_ends_in_an_exit_code(tmp_path, capsys):
    """Matching pennies with 1,198 more outcomes that no profile reaches,
    and one CNF clause over two of them for each player, which leaves the
    players' views of o1 and o2 open.  The CNF oracle's search goes one
    level deeper per outcome; `ordineq solve` still ends in an exit code
    with the answer, the uniform profile being robust, and prints no
    traceback."""
    outcomes = ("o1", "o2") + tuple(f"x{k}" for k in range(1198))
    cells = {("Top", "Left"): "o1", ("Top", "Right"): "o2", ("Bottom", "Left"): "o2", ("Bottom", "Right"): "o1"}
    game = GameForm((("Top", "Bottom"), ("Left", "Right")), outcomes, cells)
    space = PreferenceCnf(((("x0", "x1"),),))
    path = tmp_path / "big_cnf.game"
    path.write_text(serialize_game(game, (space, space), name="big_cnf"))
    code, out, err = run(capsys, ["solve", "--game", str(path), "--problem", "eore"])
    assert (code, json.loads(out)["answer"]) == (EXIT_YES, "yes")
    assert "Traceback" not in err


def test_enumerate_types_threshold_count(fixture_file, capsys):
    game = fixture_file("matching_pennies_symmetric.game")
    code, out, _ = run(
        capsys, ["enumerate-types", "--game", game, "--player", "0"]
    )
    assert code == EXIT_YES
    assert json.loads(out) == {
        "player": 0,
        "types": [_zero_one("o1 o2", ones) for ones in ("", "o1", "o1 o2")],
    }


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


@pytest.mark.parametrize("key", ["Nope,Nada", "Heads", "Heads,Heads,Heads"])
def test_aare_path_on_an_unknown_profile_is_bad_input(fixture_file, tmp_path, capsys, key):
    game = fixture_file("matching_pennies_symmetric.game")
    path = tmp_path / "path.json"
    path.write_text(json.dumps({key: "1"}))
    code, out, err = run(capsys, ["solve", "--game", game, "--problem", "aare", "--path", str(path)])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ")


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


def test_bad_input_rational_with_a_trailing_newline(tmp_path, capsys):
    doc = json.loads(fixture_text("matching_pennies_symmetric.game"))
    doc["type_spaces"][0] = {"kind": "finite", "types": [{"o1": "1/2\n", "o2": "0"}]}
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["solve", "--game", str(bad), "--problem", "eore"])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ")


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


#: The file flag under test -> the rest of a command that reads it.
FILE_FLAGS = {
    "--game": ["solve", "--problem", "eore"],
    "--profile": ["verify", "--game", "{game}"],
    "--path": ["solve", "--game", "{game}", "--problem", "aare"],
    "--objective": ["solve", "--game", "{game}", "--problem", "omire", "--threshold", "1/2"],
    "--dimacs": ["reduce-sat", "--out", "{tmp}/out.game"],
}


@pytest.mark.parametrize("flag", sorted(FILE_FLAGS))
@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
def test_unreadable_input_file_is_bad_input(fixture_file, tmp_path, capsys, flag, bad):
    """A directory or a file that is not UTF-8, given to any file flag, ends
    in exit 65 with one error line, not a traceback."""
    if bad == "directory":
        path = tmp_path / "a_directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"Top,Left": "1", "caf\xe9": "0"}')
    game = fixture_file("matching_pennies_symmetric.game")
    rest = [arg.format(game=game, tmp=tmp_path) for arg in FILE_FLAGS[flag]]
    code, out, err = run(capsys, rest + [flag, str(path)])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", sorted(set(FILE_FLAGS) - {"--dimacs"}))
@pytest.mark.parametrize("nesting", ["array", "object"])
def test_deeply_nested_json_is_bad_input(fixture_file, tmp_path, capsys, flag, nesting):
    """A JSON document nested 5,000 deep, past what the JSON parser
    recurses into, given to any JSON file flag, ends in exit 65 with one
    error line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000 if nesting == "array" else '{"a": ' * 5000 + "1" + "}" * 5000)
    game = fixture_file("matching_pennies_symmetric.game")
    rest = [arg.format(game=game, tmp=tmp_path) for arg in FILE_FLAGS[flag]]
    code, out, err = run(capsys, rest + [flag, str(path)])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


NINES = "9" * 5000


@pytest.mark.parametrize(
    "weight, threshold, expected",
    [("1", "1/" + NINES, (EXIT_YES, "1")), ("1", NINES, (EXIT_NO, "1")), ("1/" + NINES, "0", (EXIT_YES, "1/" + NINES))],
    ids=["long-threshold-yes", "long-threshold-no", "long-value"],
)
def test_numbers_past_the_int_str_digit_limit_get_an_exact_answer(
    fixture_file, tmp_path, capsys, weight, threshold, expected
):
    """Python converts at most 4,300 digits between `int` and `str` by
    default.  A threshold of 5,000 digits is still read exactly, and an
    optimum of 5,000 digits is still printed exactly."""
    game = fixture_file("coordination_ordinal.game")
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"Top,Left": weight}))
    argv = ["solve", "--game", game, "--problem", "omire", "--objective", str(objective), "--threshold", threshold]
    code, out, _ = run(capsys, argv)
    assert (code, json.loads(out)["value"]) == expected


@pytest.mark.parametrize("flag", ["--game", "--profile"])
def test_a_document_number_past_the_int_str_digit_limit_is_bad_input(fixture_file, tmp_path, capsys, flag):
    """A JSON integer literal of 5,000 digits in a game, and profile weights
    that sum to a rational of 5,000 digits, end in exit 65 with one error
    line, not a traceback."""
    files = {
        "--game": fixture_file("matching_pennies_symmetric.game"),
        "--profile": fixture_file("matching_pennies_symmetric_eq.profile"),
    }
    bad = tmp_path / "bad.json"
    if flag == "--game":
        bad.write_text(fixture_text("matching_pennies_symmetric.game").replace('"players": 2', '"players": ' + NINES))
    else:
        bad.write_text(fixture_text("matching_pennies_symmetric_eq.profile").replace('"1/4"', '"1/' + NINES + '"'))
    files[flag] = str(bad)
    code, out, err = run(capsys, ["verify", *(arg for item in files.items() for arg in item)])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]


def test_reduce_sat_into_a_directory_is_bad_input(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 1 1\n1 0\n")
    code, out, err = run(capsys, ["reduce-sat", "--dimacs", str(dimacs), "--out", str(tmp_path)])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_output_is_deterministic(fixture_file, capsys):
    game = fixture_file("prisoners_dilemma_rich.game")
    argv = ["solve", "--game", game, "--problem", "eore"]
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, argv)
        outputs.add(out)
    assert len(outputs) == 1


def test_generic_cnf_game_answer_is_definitive(tmp_path, capsys):
    # a hand-made preference-CNF game that is not reduction-shaped: its yes
    # holds for every utility vector consistent with the CNF, and the
    # verifier accepts the profile
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
    assert code == EXIT_YES
    answer = json.loads(out)
    assert answer["answer"] == "yes"
    profile = tmp_path / "generic.profile"
    profile.write_text(json.dumps(answer["profile"]))
    code, out, _ = run(capsys, ["verify", "--game", str(path), "--profile", str(profile)])
    assert code == EXIT_YES
    assert json.loads(out) == {"verdict": "robust_equilibrium"}


# ---------------------------------------------------------------------------
# one-field mutations of the bundled documents

#: The bundled profile that goes with a bundled game.
PROFILE_OF = {
    "coordination_ordinal": "coordination_eq",
    "matching_pennies_symmetric": "matching_pennies_symmetric_eq",
    "prisoners_dilemma_rich": "prisoners_dilemma_rich_eq",
}
JSON_VALUES = (None, True, 0, -1, 2, 0.5, "", "x", [], ["x"], [[]], {}, {"x": "1"})


def _value_paths(doc, prefix=()):
    """The path of every value inside a JSON document, the root excepted."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """`doc` with one field changed: an object key dropped, a list
    truncated, or a value replaced by one of another JSON type."""
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for k in parents:
        parent = parent[k]
    value = parent[key]
    ops = ["replace"]
    if isinstance(parent, dict):
        ops.append("drop")
    if isinstance(value, list) and value:
        ops.append("truncate")
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "truncate":
        parent[key] = value[: draw(st.integers(0, len(value) - 1))]
    else:
        parent[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(value)]))
    return doc


@st.composite
def _mutated_docs(draw):
    """A bundled game, its profile (if one is bundled), an AARE path
    (uniform over the cells) and an OMIRE objective, one of them mutated."""
    name = draw(st.sampled_from(GAME_NAMES))
    game = json.loads(fixture_text(f"{name}.game"))
    cells = sorted(game["outcome_map"])
    docs = {
        "game": game,
        "path": {cell: f"1/{len(cells)}" for cell in cells},
        "objective": {cell: "1/2" for cell in cells},
    }
    if name in PROFILE_OF:
        docs["profile"] = json.loads(fixture_text(f"{PROFILE_OF[name]}.profile"))
    mutated = draw(st.sampled_from(sorted(docs)))
    docs[mutated] = draw(_mutated(docs[mutated]))
    return docs


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(docs=_mutated_docs())
def test_mutated_documents_end_in_an_exit_code(tmp_path, capsys, docs):
    """`solve` (EORE, AARE and OMIRE), `verify`, `pure` and
    `enumerate-types` answer a bundled game, profile, path or objective
    with one field mutated with an exit code, never an exception."""
    files = {}
    for kind, doc in docs.items():
        files[kind] = str(tmp_path / f"mutated.{kind}")
        Path(files[kind]).write_text(json.dumps(doc))
    solve = ["solve", "--game", files["game"], "--problem"]
    commands = [
        solve + ["eore"],
        solve + ["aare", "--path", files["path"]],
        solve + ["omire", "--objective", files["objective"], "--threshold", "1/2"],
        ["pure", "--game", files["game"]],
        ["enumerate-types", "--game", files["game"], "--player", "0"],
    ]
    if "profile" in docs:
        commands.append(["verify", "--game", files["game"], "--profile", files["profile"]])
    for argv in commands:
        code, _, _ = run(capsys, argv)
        assert code in (EXIT_YES, EXIT_NO, EXIT_USAGE, EXIT_BAD_INPUT), argv


# ---------------------------------------------------------------------------
# arbitrary bytes through every file flag, and near-DIMACS text

#: Every command that reads a file, once per file flag it reads: FILE is
#: the generated file, and GAME and PROFILE are the bundled matching
#: pennies documents.
FILE, GAME, PROFILE = "{file}", "{game}", "{profile}"
FILE_FLAG_COMMANDS = (
    ["solve", "--game", FILE, "--problem", "eore"],
    ["verify", "--game", FILE, "--profile", PROFILE],
    ["pure", "--game", FILE],
    ["enumerate-types", "--game", FILE, "--player", "0"],
    ["verify", "--game", GAME, "--profile", FILE],
    ["solve", "--game", GAME, "--problem", "aare", "--path", FILE],
    ["solve", "--game", GAME, "--problem", "omire", "--objective", FILE, "--threshold", "1/2"],
    ["reduce-sat", "--dimacs", FILE, "--out", "{out}"],
)

_JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.binary(max_size=200) | st.text(max_size=200).map(str.encode) | _JSON_TEXTS.map(str.encode))
def test_arbitrary_bytes_through_every_file_flag_end_in_an_exit_code(tmp_path, capsys, data):
    """Bytes, text or a JSON document of any shape, given to each of
    `--game`, `--profile`, `--path`, `--objective` and `--dimacs`, end in
    exit 0, 3, 64 or 65, never an exception."""
    path = tmp_path / "generated"
    path.write_bytes(data)
    names = {"file": str(path), "out": str(tmp_path / "out.game")}
    for kind in ("game", "profile"):
        names[kind] = str(tmp_path / f"bundled.{kind}")
        Path(names[kind]).write_text(fixture_text(f"matching_pennies_symmetric{'' if kind == 'game' else '_eq'}.{kind}"))
    for template in FILE_FLAG_COMMANDS:
        argv = [arg.format(**names) for arg in template]
        code, _, _ = run(capsys, argv)
        assert code in (0, EXIT_YES, EXIT_NO, EXIT_USAGE, EXIT_BAD_INPUT), argv


_DIMACS_LINES = st.one_of(
    st.builds("p cnf {} {}".format, st.integers(-2, 50), st.integers(-2, 50)),
    st.lists(st.integers(-60, 60), max_size=6).map(lambda lits: " ".join(map(str, lits))),
    st.sampled_from(["c a comment", "", "0", "p", "p cnf", "p cnf 1 x", "p dnf 1 1", "1 - 2 0", "1 2", "%"]),
)


@st.composite
def _near_dimacs(draw):
    """A DIMACS formula over at most 50 variables, with literals up to one
    past the variable count and a clause count that may be one off, then up
    to two edits: a line from `_DIMACS_LINES` inserted, a line dropped, or
    a line's last token cut."""
    m = draw(st.integers(0, 8) | st.integers(0, 50))
    literal = st.integers(-m - 1, m + 1).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=8))
    declared = len(clauses) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    lines = [f"p cnf {m} {declared}"] + [" ".join(map(str, [*c, 0])) for c in clauses]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "drop", "cut")))
        if edit == "insert":
            lines.insert(k, draw(_DIMACS_LINES))
        elif k < len(lines):
            lines[k : k + 1] = [] if edit == "drop" else [lines[k].rpartition(" ")[0]]
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_near_dimacs())
def test_near_dimacs_text_ends_in_an_exit_code(tmp_path, capsys, text):
    """DIMACS text near the format (`_near_dimacs`), with headers missing,
    repeated or malformed, clause counts off by one and clauses
    unterminated or out of range, ends `reduce-sat` in exit 0, 64 or 65.
    A formula it reduces, if it has at most 8 variables, is solved (exit 0
    or 3)."""
    dimacs = tmp_path / "near.cnf"
    dimacs.write_text(text)
    out = str(tmp_path / "reduced.game")
    code, text, _ = run(capsys, ["reduce-sat", "--dimacs", str(dimacs), "--out", out])
    assert code in (EXIT_YES, EXIT_USAGE, EXIT_BAD_INPUT)
    if code == EXIT_YES and json.loads(text)["variables"] <= 8:
        code, _, _ = run(capsys, ["solve", "--game", out, "--problem", "eore"])
        assert code in (EXIT_YES, EXIT_NO)
