"""SAT-to-preference-CNF reduction and the existence check for games with
a preference-CNF type space.

The reduction maps a CNF over m boolean variables to a (m+2) x 2 game with
outcomes {o0, o1, o_x1..o_xm}: literal +x_i becomes the atom
(o_xi >= o1) and literal -x_i becomes (o0 >= o_xi).  The reduced game has
a robust equilibrium exactly when the formula is unsatisfiable.

The existence check solves the game over the CNF space itself.  The
space's witness family is its 0/1 models, which the CNF separation oracle
searches by branch and bound instead of listing all 2^|O| candidates; the
problem stays coNP-hard, but an instance no longer costs 2^|O| up front.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .equilibrium import Eore, best_cnf_model, solve
from .errors import CapExceeded, ParseError, UnsupportedSpace, ValidationError
from .games import (
    GameForm,
    MediatedProfile,
    PreferenceCnf,
    TotalOrder,
    TypeSpaceSpec,
)

ONE = Fraction(1)

SAT_BRUTE_CAP = 20


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]  # signed 1-based literals

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValidationError("negative variable count")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValidationError(f"literal {lit} out of range")


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS cnf: "p cnf <m> <k>" header, 0-terminated clause lines,
    "c" comment lines ignored."""
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: bad problem line {line!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad problem line {line!r}")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before problem line")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer literal in {line!r}")
        for lit in lits:
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ParseError("unterminated clause (missing trailing 0)")
    if num_vars is None:
        raise ParseError("missing problem line")
    if declared is not None and declared != len(clauses):
        raise ParseError(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def sat_brute(f: CnfFormula) -> bool:
    """Exhaustive satisfiability check; ground truth for the reduction tests."""
    if f.num_vars > SAT_BRUTE_CAP:
        raise CapExceeded(f"{f.num_vars} variables exceed brute-force cap {SAT_BRUTE_CAP}")
    if any(not clause for clause in f.clauses):
        return False
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in f.clauses
        ):
            return True
    return False


def outcome_for_var(i: int) -> str:
    return f"o_x{i}"


def reduce_sat(f: CnfFormula) -> tuple[GameForm, tuple[TypeSpaceSpec, ...]]:
    """Build the reduction game and spaces for a CNF formula.

    Row player: m+2 actions; column player: 2 actions.  Row 1 yields o0 in
    both columns, row 2 yields o1 in both, and row 2+i yields o1 in column 1
    and o_xi in column 2.  The column player's space is an arbitrary fixed
    total order; the construction works regardless of it.
    """
    m = f.num_vars
    rows = ["row_o0", "row_o1"] + [f"row_x{i}" for i in range(1, m + 1)]
    cols = ["col_1", "col_2"]
    outcomes = ["o0", "o1"] + [outcome_for_var(i) for i in range(1, m + 1)]
    mapping = {}
    for c in cols:
        mapping[("row_o0", c)] = "o0"
        mapping[("row_o1", c)] = "o1"
    for i in range(1, m + 1):
        mapping[(f"row_x{i}", "col_1")] = "o1"
        mapping[(f"row_x{i}", "col_2")] = outcome_for_var(i)

    clauses = []
    for clause in f.clauses:
        atoms = []
        for lit in clause:
            if lit > 0:
                atoms.append((outcome_for_var(lit), "o1"))
            else:
                atoms.append(("o0", outcome_for_var(-lit)))
        clauses.append(tuple(atoms))
    row_space = PreferenceCnf(tuple(clauses))
    col_space = TotalOrder(tuple(outcomes))

    game = GameForm(
        action_sets=(tuple(rows), tuple(cols)),
        outcomes=tuple(outcomes),
        outcome_map=mapping,
    )
    return game, (row_space, col_space)


@dataclass(frozen=True)
class CnfExistenceResult:
    """`answer` is "yes_over_extreme_types" or "no".

    A "no" is definitive: the finitely many 0/1 models that the solver added
    as cuts already block every profile.  A yes certifies that no 0/1 model
    of the CNF blocks the profile; it is marked `definitive` when the game
    has the reduction shape and no model prefers o1 to o0 (making the
    top-left cell a pure unmediated equilibrium).
    """

    answer: str
    profile: Optional[MediatedProfile] = None
    definitive: bool = False


def _is_reduction_shape(game: GameForm, cnf: PreferenceCnf) -> bool:
    if game.num_players != 2 or len(game.action_sets[1]) != 2:
        return False
    rows, cols = game.action_sets
    if len(rows) != len(game.outcomes) or len(rows) < 2:
        return False
    outs = game.outcomes
    if outs[0] != "o0" or outs[1] != "o1":
        return False
    for c in cols:
        if game.outcome_of((rows[0], c)) != "o0":
            return False
        if game.outcome_of((rows[1], c)) != "o1":
            return False
    for k, row in enumerate(rows[2:], start=2):
        if game.outcome_of((row, cols[0])) != "o1":
            return False
        if game.outcome_of((row, cols[1])) != outs[k]:
            return False
    var_outcomes = set(outs[2:])
    for clause in cnf.clauses:
        for a, b in clause:
            if not (
                (b == "o1" and a in var_outcomes) or (a == "o0" and b in var_outcomes)
            ):
                return False
    return True


def check_cnf_existence(
    game: GameForm, spaces: Sequence[TypeSpaceSpec]
) -> CnfExistenceResult:
    """Existence check over the 0/1 models of a preference-CNF space.

    Exactly one player's space must be a PreferenceCnf; the game is solved
    for existence over the spaces as given.
    """
    cnf_players = [i for i, s in enumerate(spaces) if isinstance(s, PreferenceCnf)]
    if len(cnf_players) != 1:
        raise UnsupportedSpace("exactly one preference-CNF space expected")
    cnf = spaces[cnf_players[0]]
    result = solve(game, spaces, Eore())
    if not result.answer:
        # Finitely many consistent types already block every profile, so
        # nonexistence over the 0/1 models is nonexistence outright.
        return CnfExistenceResult("no", definitive=True)

    definitive = False
    if _is_reduction_shape(game, cnf):
        # Over the reduction, UNSAT <=> no satisfying 0/1 vector prefers o1
        # to o0 <=> no consistent vector at all does, and then the top-left
        # cell is a pure unmediated equilibrium.
        definitive = best_cnf_model(cnf, game.outcomes, {"o1": ONE, "o0": -ONE}) is None
    return CnfExistenceResult(
        "yes_over_extreme_types", profile=result.profile, definitive=definitive
    )
