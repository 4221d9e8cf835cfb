"""Command-line interface.

Machine-readable JSON goes to stdout; human diagnostics to stderr.
Exit codes: 0 = yes/verified, 3 = no/violated, 64 = usage error,
65 = bad input.  Every answer is exact for every utility vector consistent
with the type spaces, preference CNFs included.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import equilibrium, fixture_suite, hardness, verifier
from .errors import OrdineqError, UnsupportedSpace
from .gamedoc import (
    PROFILE_KEY_SEP,
    parse_game,
    parse_profile,
    parse_profile_map,
    serialize_game,
    serialize_profile,
)
from .games import ObjectiveSpec
from .rational import rational_parse, rational_render
from .typespaces import enumerate_extreme_types

EXIT_YES = 0
EXIT_NO = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _profile_obj(profile) -> dict:
    return json.loads(serialize_profile(profile))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _cmd_solve(args) -> int:
    game, spaces, _ = parse_game(_read(args.game))

    if args.problem == "eore":
        query = equilibrium.Eore()
    elif args.problem == "sire":
        if not args.target:
            sys.stderr.write("--target is required for sire\n")
            return EXIT_USAGE
        query = equilibrium.Sire(tuple(args.target.split(PROFILE_KEY_SEP)))
    elif args.problem == "aare":
        if not args.path:
            sys.stderr.write("--path is required for aare\n")
            return EXIT_USAGE
        query = equilibrium.Aare(parse_profile_map(_read(args.path), "--path"))
    else:
        if not args.objective or args.threshold is None:
            sys.stderr.write("--objective and --threshold are required for omire\n")
            return EXIT_USAGE
        query = equilibrium.Omire(
            ObjectiveSpec(
                parse_profile_map(_read(args.objective), "--objective"),
                rational_parse(args.threshold),
            )
        )

    res = equilibrium.solve(game, spaces, query)
    if res.answer:
        out = {"answer": "yes", "profile": _profile_obj(res.profile)}
        if res.value is not None:
            out["value"] = rational_render(res.value)
        _emit(out)
        return EXIT_YES
    out = {"answer": "no"}
    if res.value is not None:
        out["value"] = rational_render(res.value)
    _emit(out)
    return EXIT_NO


def _cmd_verify(args) -> int:
    game, spaces, _ = parse_game(_read(args.game))
    profile = parse_profile(_read(args.profile), game)
    report = verifier.verify(game, spaces, profile)
    if report.is_equilibrium:
        _emit({"verdict": "robust_equilibrium"})
        return EXIT_YES
    v = report.violation
    _emit(
        {
            "verdict": "violated",
            "player": v.player,
            "deviation": v.deviation,
            "gap": rational_render(v.amount),
            "witness": {o: rational_render(u) for o, u in sorted(v.witness.items())},
        }
    )
    return EXIT_NO


def _cmd_pure(args) -> int:
    game, spaces, _ = parse_game(_read(args.game))
    profiles = equilibrium.find_pure_unmediated(game, spaces)
    _emit({"profiles": [list(p) for p in profiles]})
    return EXIT_YES


def _cmd_reduce_sat(args) -> int:
    formula = hardness.parse_dimacs(_read(args.dimacs))
    game, spaces = hardness.reduce_sat(formula)
    doc = serialize_game(game, spaces, name="sat_reduction")
    with open(args.out, "w") as f:
        f.write(doc)
    _emit(
        {
            "written": args.out,
            "variables": formula.num_vars,
            "clauses": len(formula.clauses),
            "outcomes": list(game.outcomes),
        }
    )
    return EXIT_YES


def _cmd_enumerate_types(args) -> int:
    game, spaces, _ = parse_game(_read(args.game))
    if not (0 <= args.player < game.num_players):
        sys.stderr.write(f"no player {args.player}\n")
        return EXIT_USAGE
    types = enumerate_extreme_types(spaces[args.player], game.outcomes)
    _emit(
        {
            "player": args.player,
            "types": [
                {o: rational_render(v) for o, v in sorted(t.items())} for t in types
            ],
        }
    )
    return EXIT_YES


def _cmd_fixtures(args) -> int:
    _emit({"fixtures": list(fixture_suite.GAME_NAMES)})
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordineq",
        description="Solve and verify robust mediated equilibria of ordinal games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="answer an existence/support/attainability query")
    p.add_argument("--game", required=True)
    p.add_argument("--problem", required=True, choices=["eore", "sire", "aare", "omire"])
    p.add_argument("--target", help="comma-joined action profile (sire)")
    p.add_argument("--path", help="JSON file with the on-path distribution (aare)")
    p.add_argument("--objective", help="JSON file mapping profile keys to values (omire)")
    p.add_argument("--threshold", help="rational threshold (omire)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a mediated profile against a game")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("pure", help="list pure unmediated equilibria")
    p.add_argument("--game", required=True)
    p.set_defaults(fn=_cmd_pure)

    p = sub.add_parser("reduce-sat", help="build the preference-CNF game for a DIMACS formula")
    p.add_argument("--dimacs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_reduce_sat)

    p = sub.add_parser("enumerate-types", help="list a player's extreme 0/1 types")
    p.add_argument("--game", required=True)
    p.add_argument("--player", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate_types)

    p = sub.add_parser("fixtures", help="list bundled example games")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UnsupportedSpace as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except (OrdineqError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run_cli())
