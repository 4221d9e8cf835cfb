"""SAT-to-preference-CNF reduction and the existence check for games with
a preference-CNF type space.

The reduction maps a CNF over m boolean variables to a (m+2) x 2 game with
outcomes {o0, o1, o_x1..o_xm}: literal +x_i becomes the atom
(o_xi >= o1) and literal -x_i becomes (o0 >= o_xi).  The reduced game has
a robust equilibrium exactly when the formula is unsatisfiable.

The existence check is `solve` over the CNF space itself, whose separation
oracle searches the 0/1 models by branch and bound instead of listing all
2^|O| candidates; the problem stays coNP-hard, but an instance no longer
costs 2^|O| up front.  Both of its answers are exact for every utility
vector consistent with the CNF, not only for the 0/1 models: a gain vector
sums to zero, because the on-path and the punishment distributions both
do, and for such weights the models attain the largest gain over every
consistent vector (`equilibrium.best_cnf_model` has the proof).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .equilibrium import Eore, solve
from .errors import CapExceeded, ParseError, ValidationError
from .games import (
    GameForm,
    MediatedProfile,
    PreferenceCnf,
    TotalOrder,
    TypeSpaceSpec,
)

SAT_BRUTE_CAP = 20

#: The most variables `reduce_sat` takes.  Its game has a row, an outcome
#: and a type-space atom per variable, about 1.5 KB each, so a DIMACS
#: header alone could otherwise ask for any amount of memory.
REDUCE_SAT_CAP = 100_000


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


_INTS_RE = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*")

#: The most digits a DIMACS integer may have: the lowest int/str digit
#: limit a process can set (`sys.set_int_max_str_digits`), so `int` reads
#: every shorter token whatever the process's limit, and far more than any
#: variable index or count needs.
_MAX_DIGITS = 640

#: Error messages quote at most this many characters of a line.
_QUOTED = 40


def _quote(line: str) -> str:
    return repr(line if len(line) <= _QUOTED else line[:_QUOTED] + "...")


def _ints(text: str) -> list[int]:
    """The whitespace-separated integers of text, each ASCII `-?[0-9]+`:
    `int` alone would also take `1_0`, `+1` and non-ASCII digits.
    ValueError otherwise, and OverflowError, before any conversion, for a
    token of more than `_MAX_DIGITS` digits."""
    if not _INTS_RE.fullmatch(text):
        raise ValueError("not a list of integers")
    tokens = text.split()
    if any(len(tok.lstrip("-")) > _MAX_DIGITS for tok in tokens):
        raise OverflowError(f"more than {_MAX_DIGITS} digits")
    return [int(tok) for tok in tokens]


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS cnf: one "p cnf <m> <k>" header, 0-terminated clause
    lines, "c" comment lines ignored."""
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"line {lineno}: second problem line {_quote(line)}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: bad problem line {_quote(line)}")
            try:
                num_vars, declared = _ints(" ".join(parts[2:]))
            except OverflowError as e:
                raise ParseError(f"line {lineno}: count too long ({e}) in problem line {_quote(line)}")
            except ValueError:
                raise ParseError(f"line {lineno}: bad problem line {_quote(line)}")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before problem line")
        try:
            lits = _ints(line)
        except OverflowError as e:
            raise ParseError(f"line {lineno}: literal too long ({e}) in {_quote(line)}")
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer literal in {_quote(line)}")
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
    total order; the construction works regardless of it.  A formula over
    more than `REDUCE_SAT_CAP` variables raises CapExceeded before anything
    is built.
    """
    m = f.num_vars
    if m > REDUCE_SAT_CAP:
        raise CapExceeded(f"{m} variables exceed the reduction cap {REDUCE_SAT_CAP}")
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
    """`answer` is "yes_over_extreme_types" or "no"; `profile` is the
    equilibrium of a yes.

    Both answers are definitive (see the module docstring): a yes profile is
    robust against every utility vector consistent with the CNF, so
    `definitive` is always True.  The answer string and the field are kept
    because benchmark digests record them.
    """

    answer: str
    profile: Optional[MediatedProfile] = None
    definitive: bool = True


def check_cnf_existence(
    game: GameForm, spaces: Sequence[TypeSpaceSpec]
) -> CnfExistenceResult:
    """Existence check for a game with preference-CNF spaces: `solve` for
    `Eore`, as its result."""
    result = solve(game, spaces, Eore())
    if not result.answer:
        return CnfExistenceResult("no")
    return CnfExistenceResult("yes_over_extreme_types", profile=result.profile)
