"""JSON game and profile documents.

A game document:

    {"name": "...",                      # optional
     "players": 2,
     "actions": [["Top","Bottom"], ["Left","Right"]],
     "outcomes": ["o1","o2"],
     "outcome_map": {"Top,Left": "o1", ...},   # comma-joined action names
     "type_spaces": [{"kind": "total_order", "order": [...]}, ...]}

A profile document:

    {"p": {"Top,Left": "1/2", ...},
     "q": [{"Left": "1/2", "Right": "1/2"}, {"Top": "1"}]}

All rationals are strings in the shared textual form; decimal literals are
rejected.  Omitted keys in distributions mean probability zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from .errors import ParseError, ValidationError
from .games import (
    DistributionOrder,
    FiniteTypes,
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    Profile,
    TotalOrder,
    TypeSpaceSpec,
    profiles_of,
    validate_profile,
    validate_space,
)
from .rational import rational_parse, rational_render

PROFILE_KEY_SEP = ","


def _profile_key(profile: Profile) -> str:
    return PROFILE_KEY_SEP.join(profile)


def _rat(value: Any, where: str) -> Fraction:
    try:
        return rational_parse(value)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {value!r}")
    return value


def _names(value: Any, where: str) -> tuple[str, ...]:
    if not all(isinstance(x, str) for x in _list(value, where)):
        raise ParseError(f"{where}: expected a list of strings, got {value!r}")
    return tuple(value)


def _pair(value: Any, where: str) -> tuple[str, str]:
    pair = _names(value, where)
    if len(pair) != 2:
        raise ParseError(f"{where}: expected a pair of outcomes, got {value!r}")
    return pair


def _rat_map(value: Any, where: str) -> dict[str, Fraction]:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object of outcome -> rational, got {value!r}")
    return {o: _rat(v, where) for o, v in value.items()}


def _space_from_obj(obj: Any, k: int) -> TypeSpaceSpec:
    where = f"type_spaces[{k}]"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "finite":
        types = tuple(
            _rat_map(entry, f"{where}.types[{t}]")
            for t, entry in enumerate(_list(obj.get("types", []), f"{where}.types"))
        )
        return FiniteTypes(types)
    if kind == "total_order":
        return TotalOrder(_names(obj.get("order", []), f"{where}.order"))
    if kind == "partial_order":
        pairs = _list(obj.get("pairs", []), f"{where}.pairs")
        return PartialOrder(
            tuple(_pair(pair, f"{where}.pairs[{t}]") for t, pair in enumerate(pairs))
        )
    if kind == "distribution_order":
        pairs = []
        for t, pair in enumerate(_list(obj.get("pairs", []), f"{where}.pairs")):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{where}.pairs[{t}]: expected a pair of distributions")
            pairs.append(
                tuple(_rat_map(r, f"{where}.pairs[{t}][{s}]") for s, r in enumerate(pair))
            )
        return DistributionOrder(tuple(pairs))
    if kind == "preference_cnf":
        clauses = _list(obj.get("clauses", []), f"{where}.clauses")
        return PreferenceCnf(
            tuple(
                tuple(
                    _pair(atom, f"{where}.clauses[{c}][{t}]")
                    for t, atom in enumerate(_list(clause, f"{where}.clauses[{c}]"))
                )
                for c, clause in enumerate(clauses)
            )
        )
    raise ParseError(f"{where}: unknown kind {kind!r}")


def _space_to_obj(spec: TypeSpaceSpec) -> dict:
    if isinstance(spec, FiniteTypes):
        return {
            "kind": "finite",
            "types": [
                {o: rational_render(v) for o, v in sorted(t.items())} for t in spec.types
            ],
        }
    if isinstance(spec, TotalOrder):
        return {"kind": "total_order", "order": list(spec.order)}
    if isinstance(spec, PartialOrder):
        return {"kind": "partial_order", "pairs": [list(p) for p in spec.pairs]}
    if isinstance(spec, DistributionOrder):
        return {
            "kind": "distribution_order",
            "pairs": [
                [
                    {o: rational_render(v) for o, v in sorted(r1.items())},
                    {o: rational_render(v) for o, v in sorted(r2.items())},
                ]
                for r1, r2 in spec.pairs
            ],
        }
    if isinstance(spec, PreferenceCnf):
        return {
            "kind": "preference_cnf",
            "clauses": [[list(atom) for atom in clause] for clause in spec.clauses],
        }
    raise ValidationError(f"unknown space kind {type(spec).__name__}")


def _json(text: str) -> Any:
    """The document, or ParseError: for malformed JSON, for an integer
    literal past Python's int/str digit limit (both `ValueError`), and for
    nesting too deep for the parser (`RecursionError`)."""
    try:
        return json.loads(text)
    except ValueError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def parse_game(text: str) -> tuple[GameForm, tuple[TypeSpaceSpec, ...], Optional[str]]:
    doc = _json(text)
    if not isinstance(doc, dict):
        raise ParseError("game document must be a JSON object")
    for field in ("players", "actions", "outcomes", "outcome_map", "type_spaces"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    players = doc["players"]
    actions = _list(doc["actions"], "actions")
    if not isinstance(players, int) or players != len(actions):
        raise ParseError("'players' must equal the number of action lists")
    action_sets = tuple(_names(a, f"actions[{i}]") for i, a in enumerate(actions))
    for acts in action_sets:
        for a in acts:
            if PROFILE_KEY_SEP in a:
                raise ParseError(f"action name {a!r} may not contain {PROFILE_KEY_SEP!r}")
    outcomes = _names(doc["outcomes"], "outcomes")

    if not isinstance(doc["outcome_map"], dict):
        raise ParseError("outcome_map: expected an object of profile -> outcome")
    mapping = {}
    for key, val in doc["outcome_map"].items():
        parts = tuple(key.split(PROFILE_KEY_SEP))
        if len(parts) != players:
            raise ParseError(f"outcome_map key {key!r} is not a {players}-player profile")
        if not isinstance(val, str):
            raise ParseError(f"outcome_map[{key!r}]: expected an outcome name, got {val!r}")
        mapping[parts] = val
    game = GameForm(action_sets, outcomes, mapping)  # raises ValidationError

    raw_spaces = _list(doc["type_spaces"], "type_spaces")
    if len(raw_spaces) != players:
        raise ParseError("one type space per player required")
    spaces = tuple(_space_from_obj(obj, k) for k, obj in enumerate(raw_spaces))
    for spec in spaces:
        validate_space(spec, outcomes)
    return game, spaces, doc.get("name")


def serialize_game(
    game: GameForm, spaces: Sequence[TypeSpaceSpec], name: Optional[str] = None
) -> str:
    doc: dict[str, Any] = {}
    if name is not None:
        doc["name"] = name
    doc["players"] = game.num_players
    doc["actions"] = [list(a) for a in game.action_sets]
    doc["outcomes"] = list(game.outcomes)
    doc["outcome_map"] = {
        _profile_key(prof): game.outcome_of(prof) for prof in profiles_of(game)
    }
    doc["type_spaces"] = [_space_to_obj(s) for s in spaces]
    return json.dumps(doc, indent=2) + "\n"


def _distribution(value: Any, where: str) -> dict[Profile, Fraction]:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object of profile -> rational, got {value!r}")
    return {
        tuple(key.split(PROFILE_KEY_SEP)): _rat(val, f"{where}[{key}]")
        for key, val in value.items()
    }


def parse_profile_map(text: str, where: str) -> dict[Profile, Fraction]:
    """An AARE path or OMIRE objective: {"Top,Left": "1/2", ...}."""
    return _distribution(_json(text), where)


def parse_profile(text: str, game: GameForm) -> MediatedProfile:
    doc = _json(text)
    if not isinstance(doc, dict) or "p" not in doc or "q" not in doc:
        raise ParseError("profile document needs 'p' and 'q' fields")
    q_docs = _list(doc["q"], "q")
    if len(q_docs) != game.num_players:
        raise ParseError("'q' must have one distribution per player")
    p = _distribution(doc["p"], "p")
    q = tuple(_distribution(entry, f"q[{i}]") for i, entry in enumerate(q_docs))
    profile = MediatedProfile(p, q)
    validate_profile(game, profile)  # raises ValidationError
    return profile


def serialize_profile(profile: MediatedProfile) -> str:
    doc = {
        "p": {
            _profile_key(prof): rational_render(w)
            for prof, w in sorted(profile.p.items())
            if w != 0
        },
        "q": [
            {
                _profile_key(prof): rational_render(w)
                for prof, w in sorted(qi.items())
                if w != 0
            }
            for qi in profile.q
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
