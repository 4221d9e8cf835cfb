"""Exact linear programming over rationals.

Every variable is nonnegative; an upper bound or any other limit is a row.
A dense two-phase simplex with Bland's rule for both the entering and the
leaving variable, so termination is unconditional (no cycling) and no
epsilon appears anywhere.  Every feasible answer is a basic (vertex)
solution of the feasible polyhedron; the cutting-plane loop in
`equilibrium` relies on that to bound the number of distinct witnesses.

The tableau is dense and exact: each row, with its right-hand side last,
is a list of integer numerators over one positive row denominator, and the
objective row being minimized is the tableau's last row.  One integer pivot
serves the simplex loop, the drive-out of artificials and the objective
update, so the arithmetic is plain integer work with one gcd reduction per
row.  Fractions appear only where a `LinearProgram` is read and where the
`LpOutcome` is built.  Problems here are desk-scale (tens of variables, at
most a few hundred rows), so a dense tableau is entirely adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import MalformedLp

ZERO = Fraction(0)

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

MAX = "max"
MIN = "min"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _frac_tuple(values: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


def constraint(coeffs: Sequence, rel: str, rhs) -> Constraint:
    return Constraint(_frac_tuple(coeffs), rel, Fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """num_vars variables, each >= 0.

    objective is (coefficient vector, "max" | "min") or None for pure
    feasibility problems.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: Optional[tuple[tuple[Fraction, ...], str]] = None


@dataclass(frozen=True)
class LpOutcome:
    status: str
    assignment: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None


def _validate(lp: LinearProgram) -> None:
    n = lp.num_vars
    if n < 0:
        raise MalformedLp("negative variable count")
    for k, c in enumerate(lp.constraints):
        if len(c.coeffs) != n:
            raise MalformedLp(f"constraint {k}: {len(c.coeffs)} coefficients, expected {n}")
        if c.rel not in _RELATIONS:
            raise MalformedLp(f"constraint {k}: bad relation {c.rel!r}")
    if lp.objective is not None:
        coeffs, direction = lp.objective
        if len(coeffs) != n:
            raise MalformedLp("objective length mismatch")
        if direction not in (MAX, MIN):
            raise MalformedLp(f"bad objective direction {direction!r}")


def _int_row(values) -> tuple[list[int], int]:
    """A list of rationals as (numerators, shared positive denominator)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduce_row(nums: list[int], den: int) -> tuple[list[int], int]:
    g = den
    for v in nums:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return nums, den
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    return nums, den


def _pivot(T, basis, r, c) -> None:
    """Make column c basic in row r: scale row r so its entry there is one
    and eliminate the column from every other row of T, objective rows
    included."""
    nums, den = T[r]
    pn = nums[c]
    if pn > 0:
        sr, sd = _reduce_row(nums, pn)
    else:
        sr, sd = _reduce_row([-v for v in nums], -pn)
    T[r] = (sr, sd)
    for i, (row, d) in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            T[i] = _reduce_row([v * sd - f * s for v, s in zip(row, sr)], d * sd)
    basis[r] = c


def _simplex_min(T, basis) -> bool:
    """Minimize the objective in the last row of T; False if unbounded.

    The first len(basis) rows are the constraint rows; any rows between
    them and the objective are carried along by every pivot.  The
    objective row holds reduced costs and, last, minus the current value.
    Bland's rule: entering = lowest-index column with negative reduced
    cost; leaving = lowest basis index among minimum-ratio rows.
    """
    m = len(basis)
    w = len(T[-1][0]) - 1
    while True:
        on = T[-1][0]
        c = None
        for j in range(w):
            if on[j] < 0:
                c = j
                break
        if c is None:
            return True
        r = None
        for i in range(m):
            row = T[i][0]
            if row[c] > 0:
                if r is None:
                    r, best = i, row
                else:
                    # compare b_i/a_ic with b_r/a_rc; denominators cancel
                    lhs = row[w] * best[c]
                    rhs = best[w] * row[c]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r, best = i, row
        if r is None:
            return False
        _pivot(T, basis, r, c)


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve an exact LP: feasibility, or optimization when an objective is set."""
    _validate(lp)
    ncols = lp.num_vars

    # Each row, right-hand side last, as integers; rows with a negative
    # right-hand side are negated, so rhs >= 0.
    rows: list[tuple[list[int], int, str]] = []
    for c in lp.constraints:
        nums, den = _int_row([*c.coeffs, c.rhs])
        rel = c.rel
        if nums[-1] < 0:
            nums = [-v for v in nums]
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append((nums, den, rel))

    # Standard form: slack for <=, surplus + artificial for >=, artificial
    # for =.  Identity entries are the row denominator, i.e. one.
    m = len(rows)
    n_struct = ncols + sum(1 for _, _, rel in rows if rel != EQ)
    total = n_struct + sum(1 for _, _, rel in rows if rel != LE)
    pad = [0] * (total - ncols)
    T = []
    basis = [-1] * m
    s = ncols
    a = n_struct
    for i, (nums, den, rel) in enumerate(rows):
        row = nums[:ncols] + pad + nums[ncols:]
        if rel == LE:
            row[s] = den
            basis[i] = s
            s += 1
        elif rel == GE:
            row[s] = -den
            row[a] = den
            basis[i] = a
            s += 1
            a += 1
        else:
            row[a] = den
            basis[i] = a
            a += 1
        T.append((row, den))

    # Internal objective: minimize.  Its row rides along through phase 1
    # and the drive-out; the initial basis of slacks and artificials has
    # zero cost in it, so it starts out priced.
    negate_value = False
    if lp.objective is not None:
        coeffs, direction = lp.objective
        negate_value = direction == MAX
        nums, den = _int_row([*coeffs, ZERO])
        if negate_value:
            nums = [-v for v in nums]
        T.append((nums[:ncols] + pad + nums[ncols:], den))

    # Phase 1: drive artificials to zero.
    if total > n_struct:
        T.append(([0] * n_struct + [1] * (total - n_struct) + [0], 1))
        for i in range(m):
            if basis[i] >= n_struct:
                _pivot(T, basis, i, basis[i])  # price out the artificial
        if not _simplex_min(T, basis):
            raise AssertionError("phase 1 is unbounded; it is bounded below by 0")
        if T.pop()[0][-1] < 0:  # minus a positive phase-1 value
            return LpOutcome(INFEASIBLE)
        # Pivot remaining artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= n_struct:
                row = T[i][0]
                c = next((j for j in range(n_struct) if row[j] != 0), None)
                if c is None:
                    continue  # redundant row
                _pivot(T, basis, i, c)
            keep.append(i)
        basis = [basis[i] for i in keep]
        keep.extend(range(m, len(T)))
        T = [(T[i][0][:n_struct] + T[i][0][-1:], T[i][1]) for i in keep]

    value = None
    if lp.objective is not None:
        if not _simplex_min(T, basis):
            return LpOutcome(UNBOUNDED)
        on, od = T[-1]
        value = Fraction(-on[-1], od)
        if negate_value:
            value = -value

    x = [ZERO] * ncols
    for i, bi in enumerate(basis):
        if bi < ncols:
            nums, den = T[i]
            x[bi] = Fraction(nums[-1], den)
    return LpOutcome(FEASIBLE, tuple(x), value)
