"""Exact linear programming over rationals, on the LPs the package builds:
nonnegative variables, some of them in disjoint blocks that each sum to
1, cut by homogeneous rows coeffs · x >= 0.

On a boxed tableau (`Tableau(..., boxed=True)`) every structural variable
also lies at most at 1, and that bound is kept on the column instead of a
row (Dantzig's upper-bounding technique, 1955): a column whose variable
x_j sits at its bound is complemented, i.e. it stands for x'_j = 1 - x_j.
A dense simplex, primal for an objective and dual for rows that join,
with Bland's rule in both, so termination is unconditional (no cycling)
and no epsilon appears anywhere.  Every feasible answer is a basic
(vertex) solution of the feasible polyhedron; the cutting-plane loop in
`equilibrium` relies on that to bound the number of distinct witnesses.

A block's row, 1 on the block and right-hand side 1, is basic on the
block's first column from the start: the blocks are disjoint, so no other
row has an entry there, and the first basis needs no pivot.  A `>= 0` row
c · x >= 0 joins as -c · x + s = 0 on a new slack column s that is basic
in it, at construction and by `add_rows` alike (`_join`).  Eliminated
against the current basis, it starts at s = c · x, negative where the
point violates the row.  The reduced costs of the last objective are
nonnegative (all zero before any objective), so a dual simplex (Lemke
1954) restores feasibility: Bland's rule on the dual takes the leaving
row of lowest basic index among the rows with a negative right-hand side,
and the entering column of minimum ratio cost_j / -a_rj over a_rj < 0,
ties to the lowest column.  A negative row with no negative entry proves
the rows infeasible, and `Tableau.feasible` turns False for good.  While
the costs are all zero, every ratio is 0, and the same loop finds a
feasible basis with no objective.  Every `>= 0` row holds at the point
0, where a boxed tableau starts; the dual simplex ignores the box, so a
boxed tableau takes no blocks and no added rows.

`optimize(coeffs)` maximizes coeffs · x with the primal simplex from the
basis the last call ended on, and returns the optimum; `point` reads the
vertex the tableau stands on.  A caller that asks many objectives over the
same rows, as a distribution order's separation oracle does, pays pivots
from the last optimum only, and the cutting-plane loop of
`equilibrium.solve` keeps one tableau per call.

Each row, with its right-hand side last, is a list of integer numerators
over one positive row denominator, and the objective row being minimized
is the tableau's last row while either simplex runs.  One integer pivot
serves both loops and the pricing, with one gcd reduction per row; ratios
are compared by cross-multiplying.  Fractions appear only where rows or
an objective are read and where the optimum or the point is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import MalformedLp

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_widths(num_vars: int, rows) -> None:
    for k, coeffs in enumerate(rows):
        if len(coeffs) != num_vars:
            raise MalformedLp(f"row {k}: {len(coeffs)} coefficients, expected {num_vars}")


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


def _flip(T, flipped, c) -> None:
    """Complement boxed column c, x_c = 1 - x'_c: negate its entry in every
    row of T, objective rows included, and subtract the old entry from
    the row's right-hand side."""
    for nums, _ in T:
        f = nums[c]
        if f:
            nums[c] = -f
            nums[-1] -= f
    flipped[c] = not flipped[c]


def _simplex_min(T, basis, flipped) -> bool:
    """Minimize the objective in the last row of T; False if unbounded.

    The other rows are the constraint rows, one per entry of the basis.
    The objective row holds reduced costs and, last, minus the current
    value.  The first len(flipped) columns are boxed in [0, 1]; flipped[j]
    says whether column j is complemented.  Bland's rule: entering =
    lowest-index column with negative reduced cost.  It rises until a
    basic variable reaches 0 (a positive entry) or, if boxed, 1 (a
    negative entry), or until it reaches its own bound 1 if it is boxed.
    The smallest of these steps wins; a tie goes to the entering bound,
    then to the row of lowest basis index.  A stop at the entering bound
    flips the column (`_flip`) and changes no basis.  A stop at a basic
    variable's 1 flips that column, where only its own row is nonzero, and
    pivots.

    Termination: a flip is a step of length 1 at a negative reduced cost,
    so it strictly lowers the objective, as a nondegenerate pivot does.
    Only degenerate pivots (step 0) keep the objective, and they follow
    Bland's rule, which cannot cycle (Bland 1977).  So no basis and
    complement pattern repeats.
    """
    m = len(basis)
    w = len(T[-1][0]) - 1
    nb = len(flipped)
    while True:
        on = T[-1][0]
        c = None
        for j in range(w):
            if on[j] < 0:
                c = j
                break
        if c is None:
            return True
        # The step is sn/sd, sd > 0: the entering bound 1/1, or b_i/a_ic
        # (to 0) or (1 - b_i)/-a_ic (to 1), whose row denominators cancel.
        r = None
        sn, sd = (1, 1) if c < nb else (None, None)
        for i in range(m):
            row, den = T[i]
            a = row[c]
            if a > 0:
                tn, td = row[w], a
            elif a < 0 and basis[i] < nb:
                tn, td = den - row[w], -a
            else:
                continue
            if sn is None:
                r, sn, sd = i, tn, td
                continue
            lhs = tn * sd
            rhs = sn * td
            if lhs < rhs or (lhs == rhs and r is not None and basis[i] < basis[r]):
                r, sn, sd = i, tn, td
        if sn is None:
            return False
        if r is None:
            _flip(T, flipped, c)
            continue
        if T[r][0][c] < 0:
            _flip(T, flipped, basis[r])
        _pivot(T, basis, r, c)


def _dual_simplex(T, basis) -> bool:
    """Make the right-hand sides nonnegative while the reduced costs in the
    last row of T stay nonnegative; False if the rows are infeasible.

    Bland's rule on the dual: leaving = lowest basis index among rows with
    a negative right-hand side; entering = minimum ratio cost_j / -a_rj over
    a_rj < 0, ties to the lowest column.
    """
    m = len(basis)
    w = len(T[-1][0]) - 1
    while True:
        r = None
        for i in range(m):
            if T[i][0][w] < 0 and (r is None or basis[i] < basis[r]):
                r = i
        if r is None:
            return True
        row = T[r][0]
        cost = T[-1][0]
        c = None
        for j in range(w):
            # cost_j/-a_rj < cost_c/-a_rc; denominators cancel
            if row[j] < 0 and (c is None or cost[j] * row[c] > cost[c] * row[j]):
                c = j
        if c is None:
            return False
        _pivot(T, basis, r, c)


def _eliminate(nums: list[int], den: int, T, basis) -> tuple[list[int], int]:
    """The row nums/den less each basic row of T (its basic entry is one)
    times the row's entry in that row's basic column: a zero in every basic
    column."""
    for (row, d), bi in zip(T, basis):
        f = nums[bi]
        if f:
            nums, den = _reduce_row([v * d - f * s for v, s in zip(nums, row)], den * d)
    return nums, den


class Tableau:
    """The rows of an LP over a feasible basis: columns are the structural
    variables, then one slack per `>= 0` row in the order the rows joined.
    `blocks` are disjoint, nonempty sequences of column indices, each
    meaning that its variables sum to 1, and join first, each as one row
    basic on its first column; `rows` are coefficient sequences, each
    meaning coeffs · x >= 0, and join as `add_rows` rows do (`_join`).
    `feasible` is False, for good, once the rows are found infeasible; it
    is the only place infeasibility is reported.

    With `boxed`, every one of the num_vars variables lies in [0, 1]
    without a row for it, and `flipped[j]` says whether column j stands
    for 1 - x_j (see `_simplex_min`).  The primal simplex honours the box,
    and `optimize` prices an objective through the flipped columns.  A
    boxed tableau starts on the point 0, its slacks basic; it takes no
    blocks and no added rows, since the dual simplex does not honour the
    box.
    """

    def __init__(
        self,
        num_vars: int,
        blocks: Sequence[Sequence[int]] = (),
        rows: Sequence[Sequence] = (),
        boxed: bool = False,
    ):
        if num_vars < 0:
            raise MalformedLp("negative variable count")
        if boxed and blocks:
            raise MalformedLp("a boxed tableau takes no blocks")
        _check_widths(num_vars, rows)
        self.num_vars = num_vars
        self.boxed = boxed
        self.flipped = [False] * num_vars if boxed else []
        self.width = num_vars
        self.rows: list[tuple[list[int], int]] = []
        self.basis: list[int] = []
        self.feasible = True
        # The reduced costs of the last objective, right-hand side last.
        self.cost = ([0] * (num_vars + 1), 1)
        taken: set[int] = set()
        for k, block in enumerate(blocks):
            if not block:
                raise MalformedLp(f"block {k} is empty")
            row = [0] * num_vars + [1]
            for j in block:
                if not 0 <= j < num_vars or j in taken:
                    raise MalformedLp(f"block {k}: column {j} is out of range or repeated")
                taken.add(j)
                row[j] = 1
            self.rows.append((row, 1))
            self.basis.append(block[0])
        self._join(rows)

    def _join(self, rows: Sequence[Sequence]) -> None:
        """Add the `>= 0` rows, in order, each on its slack column and
        eliminated against the current basis, and restore feasibility by
        the dual simplex (see the module docstring).  The objective row is
        last in T meanwhile, so every pivot keeps the reduced costs
        priced."""
        n, w = self.num_vars, self.width
        T, basis = self.rows, self.basis
        new = [0] * len(rows)
        for nums, _ in (*T, self.cost):
            nums[w:w] = new
        T.append(self.cost)
        for s, coeffs in enumerate(rows, w):
            nums, den = _int_row(coeffs)
            row = [-v for v in nums] + [0] * (w - n) + new + [0]
            row[s] = den
            T.insert(len(basis), _eliminate(row, den, T, basis))
            basis.append(s)
        self.width = w + len(rows)
        self.feasible = _dual_simplex(T, basis)
        self.cost = T.pop()

    def optimize(self, coeffs: Optional[Sequence]) -> Optional[Fraction]:
        """The maximum of coeffs · x over the rows, from the current basis;
        None for None, which stays on the basis, and on an infeasible
        tableau.  An unbounded objective raises MalformedLp and leaves the
        tableau on a feasible basis.  The basis is kept for the next call,
        and so are the reduced costs of an optimum (all zero otherwise) for
        `add_rows`.  A flipped column j prices c_j x_j as c_j - c_j x'_j."""
        n = self.num_vars
        if coeffs is not None and len(coeffs) != n:
            raise MalformedLp("objective length mismatch")
        if not self.feasible:
            return None
        T, basis = self.rows, self.basis
        self.cost = ([0] * (self.width + 1), 1)
        if coeffs is None:
            return None
        # Minimize -coeffs · x; pricing gives every basic column a zero
        # reduced cost.
        nums, den = _int_row(coeffs)
        on = [-v for v in nums] + [0] * (self.width - n + 1)
        for j, f in enumerate(self.flipped):
            if f and on[j]:
                on[-1] -= on[j]
                on[j] = -on[j]
        T.append(_eliminate(on, den, T, basis))
        bounded = _simplex_min(T, basis, self.flipped)
        on, den = T.pop()
        if not bounded:
            raise MalformedLp("unbounded objective")
        self.cost = (on, den)
        # The last entry is minus the minimum of -coeffs · x.
        return Fraction(on[-1], den)

    def point(self) -> Optional[tuple[Fraction, ...]]:
        """The basic solution the tableau stands on, a vertex of the rows'
        polyhedron, or None once the rows are infeasible.  A nonbasic
        variable is 0, or 1 if its column is flipped; a basic one reads its
        row's right-hand side b, or 1 - b if its column is flipped."""
        if not self.feasible:
            return None
        flipped = self.flipped
        x = [ONE if f else ZERO for f in flipped] if flipped else [ZERO] * self.num_vars
        for (nums, den), bi in zip(self.rows, self.basis):
            if bi < self.num_vars:
                b = nums[-1]
                x[bi] = Fraction(den - b if flipped and flipped[bi] else b, den)
        return tuple(x)

    def add_rows(self, rows: Sequence[Sequence]) -> None:
        """Add rows c · x >= 0 and restore feasibility by the dual simplex
        against the kept reduced costs (`_join`).  A boxed tableau raises
        MalformedLp."""
        if self.boxed:
            raise MalformedLp("rows cannot be added to a boxed tableau")
        _check_widths(self.num_vars, rows)
        if self.feasible:
            self._join(rows)
