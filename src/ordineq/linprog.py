"""Exact linear programming over rationals.

A dense two-phase simplex with Bland's rule for both the entering and the
leaving variable, so termination is unconditional (no cycling) and no
epsilon appears anywhere.  Every feasible answer is a basic (vertex)
solution of the feasible polyhedron; the cutting-plane loop in
`equilibrium` relies on that to bound the number of distinct witnesses.

Problems here are desk-scale (tens of variables, at most a few hundred
rows), so a dense tableau of Fractions is entirely adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import MalformedLp

ZERO = Fraction(0)
ONE = Fraction(1)

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
    """num_vars variables; per-variable bounds are optional (None = free side).

    objective is (coefficient vector, "max" | "min") or None for pure
    feasibility problems.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: Optional[tuple[tuple[Fraction, ...], str]] = None
    lower: Optional[tuple[Optional[Fraction], ...]] = None
    upper: Optional[tuple[Optional[Fraction], ...]] = None


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
    for name, bnd in (("lower", lp.lower), ("upper", lp.upper)):
        if bnd is not None and len(bnd) != n:
            raise MalformedLp(f"{name} bounds length mismatch")


def _pivot(A, b, basis, r, c) -> None:
    piv = A[r][c]
    inv = ONE / piv
    A[r] = [v * inv for v in A[r]]
    b[r] *= inv
    row_r = A[r]
    for i in range(len(A)):
        if i == r:
            continue
        f = A[i][c]
        if f != 0:
            A[i] = [v - f * w for v, w in zip(A[i], row_r)]
            b[i] -= f * b[r]
    basis[r] = c


def _int_row(values) -> tuple[list[int], int]:
    """A list of Fractions as (numerators, shared positive denominator)."""
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


def _simplex_min(A, b, obj, value, basis):
    """Run simplex on a min problem given reduced costs `obj`.

    Returns ("optimal" | "unbounded", value).  Bland's rule: entering =
    lowest-index column with negative reduced cost; leaving = lowest basis
    index among minimum-ratio rows.

    Internally each tableau row (with its right-hand side appended) is kept
    as integer numerators over one shared positive denominator, so the hot
    pivot loop is plain integer arithmetic with a single gcd reduction per
    row instead of a gcd inside every Fraction operation.  The arithmetic
    is still exact; A, b, obj, and basis are written back on return.
    """
    m = len(A)
    w = len(obj)
    An, Ad = [], []
    for i in range(m):
        nums, den = _int_row(list(A[i]) + [b[i]])
        An.append(nums)
        Ad.append(den)
    on, od = _int_row(list(obj) + [-value])

    while True:
        c = None
        for j in range(w):
            if on[j] < 0:
                c = j
                break
        if c is None:
            break
        r = None
        for i in range(m):
            if An[i][c] > 0:
                if r is None:
                    r = i
                else:
                    # compare b_i/a_ic with b_r/a_rc; denominators cancel
                    lhs = An[i][w] * An[r][c]
                    rhs = An[r][w] * An[i][c]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r = i
        if r is None:
            # write back before reporting unboundedness
            for i in range(m):
                A[i] = [Fraction(v, Ad[i]) for v in An[i][:w]]
                b[i] = Fraction(An[i][w], Ad[i])
            return "unbounded", value

        # scale row r so the pivot entry becomes one
        pn = An[r][c]
        if pn > 0:
            sr, sd = An[r], pn
        else:
            sr, sd = [-v for v in An[r]], -pn
        sr, sd = _reduce_row(sr, sd)
        An[r], Ad[r] = sr, sd
        for i in range(m):
            if i == r:
                continue
            f = An[i][c]
            if f:
                row = An[i]
                An[i], Ad[i] = _reduce_row(
                    [v * sd - f * s for v, s in zip(row, sr)], Ad[i] * sd
                )
        f = on[c]
        if f:
            on, od = _reduce_row(
                [v * sd - f * s for v, s in zip(on, sr)], od * sd
            )
        basis[r] = c

    for i in range(m):
        A[i] = [Fraction(v, Ad[i]) for v in An[i][:w]]
        b[i] = Fraction(An[i][w], Ad[i])
    for j in range(w):
        obj[j] = Fraction(on[j], od)
    return "optimal", Fraction(-on[w], od)


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve an exact LP: feasibility, or optimization when an objective is set."""
    _validate(lp)
    n = lp.num_vars
    lower = lp.lower if lp.lower is not None else (None,) * n
    upper = lp.upper if lp.upper is not None else (None,) * n

    # Substitute each variable by nonnegative columns:
    #   x = shift + sum(sign * y_col) over its columns.
    col_terms: list[tuple[tuple[int, Fraction], ...]] = []
    shift: list[Fraction] = []
    extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    ncols = 0
    for j in range(n):
        lo, up = lower[j], upper[j]
        if lo is not None:
            if up is not None:
                if up < lo:
                    return LpOutcome(INFEASIBLE)
                extra_rows.append(({ncols: ONE}, LE, up - lo))
            col_terms.append(((ncols, ONE),))
            shift.append(lo)
            ncols += 1
        elif up is not None:
            col_terms.append(((ncols, -ONE),))
            shift.append(up)
            ncols += 1
        else:
            col_terms.append(((ncols, ONE), (ncols + 1, -ONE)))
            shift.append(ZERO)
            ncols += 2

    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhs: list[Fraction] = []
    for c in lp.constraints:
        row = [ZERO] * ncols
        r = c.rhs
        for j, cf in enumerate(c.coeffs):
            if cf == 0:
                continue
            r -= cf * shift[j]
            for col, sign in col_terms[j]:
                row[col] += cf * sign
        rows.append(row)
        rels.append(c.rel)
        rhs.append(r)
    for sparse, rel, r in extra_rows:
        row = [ZERO] * ncols
        for col, cf in sparse.items():
            row[col] = cf
        rows.append(row)
        rels.append(rel)
        rhs.append(r)

    # Internal objective: minimize.
    obj_coeffs = [ZERO] * ncols
    obj_offset = ZERO
    negate_value = False
    if lp.objective is not None:
        coeffs, direction = lp.objective
        negate_value = direction == MAX
        for j, cf in enumerate(coeffs):
            if cf == 0:
                continue
            if negate_value:
                cf = -cf
            obj_offset += cf * shift[j]
            for col, sign in col_terms[j]:
                obj_coeffs[col] += cf * sign

    # Standard form: rhs >= 0, slack for <=, surplus + artificial for >=,
    # artificial for =.
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]

    slack_cols = sum(1 for rel in rels if rel != EQ)
    n_struct = ncols + slack_cols
    art_rows = [i for i, rel in enumerate(rels) if rel != LE]
    total = n_struct + len(art_rows)

    A = []
    basis = [-1] * m
    s = ncols
    a = n_struct
    for i in range(m):
        row = rows[i] + [ZERO] * (total - ncols)
        if rels[i] == LE:
            row[s] = ONE
            basis[i] = s
            s += 1
        elif rels[i] == GE:
            row[s] = -ONE
            row[a] = ONE
            basis[i] = a
            s += 1
            a += 1
        else:
            row[a] = ONE
            basis[i] = a
            a += 1
        A.append(row)
    b = rhs[:]

    # Phase 1: drive artificials to zero.
    if art_rows:
        obj = [ZERO] * total
        for j in range(n_struct, total):
            obj[j] = ONE
        value = ZERO
        for i in range(m):
            if basis[i] >= n_struct:
                for j in range(total):
                    obj[j] -= A[i][j]
                value += b[i]
        status, value = _simplex_min(A, b, obj, value, basis)
        if status != "optimal":
            raise AssertionError(f"phase 1 is {status}; it is bounded below by 0")
        if value > 0:
            return LpOutcome(INFEASIBLE)
        # Pivot remaining artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= n_struct:
                c = next((j for j in range(n_struct) if A[i][j] != 0), None)
                if c is None:
                    continue  # redundant row
                _pivot(A, b, basis, i, c)
            keep.append(i)
        A = [A[i][:n_struct] for i in keep]
        b = [b[i] for i in keep]
        basis = [basis[i] for i in keep]
        total = n_struct

    value = None
    if lp.objective is not None:
        obj = obj_coeffs + [ZERO] * (total - ncols)
        value = obj_offset
        for i in range(len(A)):
            cb = obj_coeffs[basis[i]] if basis[i] < ncols else ZERO
            if cb != 0:
                row_i = A[i]
                for j in range(total):
                    if row_i[j] != 0:
                        obj[j] -= cb * row_i[j]
                value += cb * b[i]
        status, value = _simplex_min(A, b, obj, value, basis)
        if status == "unbounded":
            return LpOutcome(UNBOUNDED)

    y = [ZERO] * ncols
    for i, bi in enumerate(basis):
        if bi < ncols:
            y[bi] = b[i]
    assignment = []
    for j in range(n):
        x = shift[j]
        for col, sign in col_terms[j]:
            x += sign * y[col]
        assignment.append(x)
    if value is not None and negate_value:
        value = -value
    return LpOutcome(FEASIBLE, tuple(assignment), value)
