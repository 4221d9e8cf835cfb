"""Exact linear programming over rationals, on the LPs the package builds:
nonnegative variables, some of them in disjoint blocks that each sum to
1, cut by homogeneous rows coeffs · x >= 0.

On a boxed tableau (`Tableau(..., boxed=True)`) every structural variable
also lies at most at 1, and that bound is kept on the variable instead of
a row (Dantzig's upper-bounding technique, 1955): a variable x_j that sits
at its bound is complemented, i.e. its column stands for x'_j = 1 - x_j.
A simplex in dictionary form, primal for an objective and dual for rows
that join, with Bland's rule in both, so termination is unconditional (no
cycling) and no epsilon appears anywhere.  Every feasible answer is a
basic (vertex) solution of the feasible polyhedron; the cutting-plane loop
in `equilibrium` relies on that to bound the number of distinct witnesses.

The tableau keeps the dictionary of its basis (Chvátal, *Linear
Programming*, 1983, ch. 2; Tucker's condensed tableau): row i expresses
its basic variable in the nonbasic ones, and holds no entry for any basic
variable.  A block's row, 1 on the block and right-hand side 1, is basic
on the block's first variable from the start: the blocks are disjoint, so
the first basis needs no pivot.  A `>= 0` row c · x >= 0 joins as
s = c · x on a new slack s that is basic in it, at construction and by
`add_rows` alike (`_join`): c · x is rewritten over the nonbasic
variables, so the row adds no column, and s starts negative where the
point violates the row.  The reduced costs of the last objective are
nonnegative (all zero before any objective), so a dual simplex (Lemke
1954) restores feasibility: Bland's rule on the dual takes the leaving
row of lowest basic label among the rows with a negative right-hand side,
and the entering variable of minimum ratio cost_j / -a_rj over a_rj < 0,
ties to the lowest label.  A negative row with no negative entry proves
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
over one positive row denominator, its basic variable's implicit
coefficient, and the objective row being minimized is the tableau's last
row while either simplex runs.  One integer pivot serves both loops, with
one gcd reduction per row touched; every choice compares labels, signs,
or ratios cross-multiplied against positive denominators.  Fractions
appear only where rows or an objective are read and where the optimum or
the point is built.
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
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduce_row(nums: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *nums)
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _pivot(T, basis, nonbasic, r, c) -> None:
    """Swap row r's basic variable with the nonbasic one at position c: solve
    row r for the entering variable, whose position the leaving one takes
    at the row's old denominator, and substitute it into every other row of
    T, objective rows included."""
    nums, den = T[r]
    pn = nums[c]
    nums[c] = den
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
            row[c] = 0
            T[i] = _reduce_row([v * sd - f * s for v, s in zip(row, sr)], d * sd)
    basis[r], nonbasic[c] = nonbasic[c], basis[r]


def _flip(T, flipped, nonbasic, c) -> None:
    """Complement the boxed variable at nonbasic position c, x = 1 - x':
    negate its entry in every row of T, objective rows included, and
    subtract the old entry from the row's right-hand side."""
    for nums, _ in T:
        f = nums[c]
        if f:
            nums[c] = -f
            nums[-1] -= f
    flipped[nonbasic[c]] = not flipped[nonbasic[c]]


def _simplex_min(T, basis, nonbasic, flipped) -> bool:
    """Minimize the objective in the last row of T; False if unbounded.

    The other rows are the constraint rows, one per entry of the basis.
    The objective row holds reduced costs and, last, minus the current
    value.  The variables below len(flipped) are boxed in [0, 1];
    flipped[j] says whether variable j is complemented.  Bland's rule:
    entering = the nonbasic variable of lowest label with a negative
    reduced cost.  It rises until a basic variable reaches 0 (a positive
    entry) or, if boxed, 1 (a negative entry), or until it reaches its own
    bound 1 if it is boxed.  The smallest of these steps wins; a tie goes
    to the entering bound, then to the row of lowest basic label.  A stop
    at the entering bound flips it (`_flip`) and changes no basis.  A stop
    at a basic variable's 1 complements that variable in its own row,
    negating the row and taking den - rhs for its right-hand side, which
    keeps the implicit basic entry den, and pivots.

    Termination: a flip is a step of length 1 at a negative reduced cost,
    so it strictly lowers the objective, as a nondegenerate pivot does.
    Only degenerate pivots (step 0) keep the objective, and they follow
    Bland's rule, which cannot cycle (Bland 1977).  So no basis and
    complement pattern repeats.
    """
    m = len(basis)
    w = len(nonbasic)
    nb = len(flipped)
    while True:
        on = T[-1][0]
        c = None
        for k in range(w):
            if on[k] < 0 and (c is None or nonbasic[k] < nonbasic[c]):
                c = k
        if c is None:
            return True
        # The step is sn/sd, sd > 0: the entering bound 1/1, or b_i/a_ic
        # (to 0) or (1 - b_i)/-a_ic (to 1), whose row denominators cancel.
        r = None
        sn, sd = (1, 1) if nonbasic[c] < nb else (None, None)
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
            _flip(T, flipped, nonbasic, c)
            continue
        row, den = T[r]
        if row[c] < 0:
            row = [-v for v in row]
            row[w] += den
            T[r] = (row, den)
            flipped[basis[r]] = not flipped[basis[r]]
        _pivot(T, basis, nonbasic, r, c)


def _dual_simplex(T, basis, nonbasic) -> bool:
    """Make the right-hand sides nonnegative while the reduced costs in the
    last row of T stay nonnegative; False if the rows are infeasible.

    Bland's rule on the dual: leaving = lowest basic label among rows with
    a negative right-hand side; entering = minimum ratio cost_j / -a_rj over
    a_rj < 0, ties to the lowest label.
    """
    m = len(basis)
    w = len(nonbasic)
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
            if row[j] < 0:
                if c is None:
                    c = j
                    continue
                # cost_j/-a_rj against cost_c/-a_rc; denominators cancel
                lhs = cost[j] * row[c]
                rhs = cost[c] * row[j]
                if lhs > rhs or (lhs == rhs and nonbasic[j] < nonbasic[c]):
                    c = j
        if c is None:
            return False
        _pivot(T, basis, nonbasic, r, c)


def _eliminate(nums: list[int], den: int, T, basis, nonbasic) -> tuple[list[int], int]:
    """The row nums/den over the structural variables, right-hand side last,
    over the nonbasic positions of T instead: each basic structural
    variable with a nonzero entry is replaced by its row, all at once over
    the lcm of those rows' denominators.  A row read by `_int_row` is
    already reduced, so one with nothing to replace is only moved."""
    n = len(nums) - 1
    used = [(T[i], nums[b]) for i, b in enumerate(basis) if b < n and nums[b]]
    if not used:
        return [nums[j] if j < n else 0 for j in nonbasic] + [nums[n]], den
    lcm = math.lcm(*[d for (_, d), _ in used])
    out = [nums[j] * lcm if j < n else 0 for j in nonbasic]
    out.append(nums[n] * lcm)
    for (row, d), f in used:
        f *= lcm // d
        out = [o - f * v for o, v in zip(out, row)]
    return _reduce_row(out, den * lcm)


class Tableau:
    """The rows of an LP over a feasible basis, in dictionary form.  The
    variables are labelled by index: the structural ones, then one slack
    per `>= 0` row in the order the rows joined; `width` counts them.
    `basis[i]` is row i's variable and `nonbasic[k]` the variable at
    position k, together every label once.  Row i, `(nums, den)`, reads
    den x_basis[i] + sum_k nums[k] x_nonbasic[k] = nums[-1], so every row
    has len(nonbasic) + 1 entries, for the tableau's whole life.
    `blocks` are disjoint, nonempty sequences of labels, each meaning that
    its variables sum to 1, and join first, each as one row basic on its
    first label; `rows` are coefficient sequences, each meaning
    coeffs · x >= 0, and join as `add_rows` rows do (`_join`).  `feasible`
    is False, for good, once the rows are found infeasible; it is the only
    place infeasibility is reported.

    With `boxed`, every one of the num_vars variables lies in [0, 1]
    without a row for it, and `flipped[j]` says whether variable j stands
    for 1 - x_j (see `_simplex_min`).  The primal simplex honours the box,
    and `optimize` prices an objective through the flipped variables.  A
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
        self.basis: list[int] = []
        self.feasible = True
        owner: dict[int, int] = {}
        for k, block in enumerate(blocks):
            if not block:
                raise MalformedLp(f"block {k} is empty")
            for j in block:
                if not 0 <= j < num_vars or j in owner:
                    raise MalformedLp(f"block {k}: column {j} is out of range or repeated")
                owner[j] = k
            self.basis.append(block[0])
        first = set(self.basis)
        self.nonbasic = [j for j in range(num_vars) if j not in first]
        self.rows = [([int(owner.get(j) == k) for j in self.nonbasic] + [1], 1) for k in range(len(blocks))]
        # The reduced costs of the last objective, right-hand side last.
        self.cost = ([0] * (len(self.nonbasic) + 1), 1)
        self._join(rows)

    def _join(self, rows: Sequence[Sequence]) -> None:
        """Add the `>= 0` rows, in order, each basic on its new slack and
        rewritten over the nonbasic positions (`_eliminate`), and restore
        feasibility by the dual simplex (see the module docstring).  The
        objective row is last in T meanwhile, so every pivot keeps the
        reduced costs priced."""
        T, basis, nonbasic = self.rows, self.basis, self.nonbasic
        for coeffs in rows:
            nums, den = _int_row(coeffs)
            T.append(_eliminate([-v for v in nums] + [0], den, T, basis, nonbasic))
            basis.append(self.width)
            self.width += 1
        T.append(self.cost)
        self.feasible = _dual_simplex(T, basis, nonbasic)
        self.cost = T.pop()

    def optimize(self, coeffs: Optional[Sequence]) -> Optional[Fraction]:
        """The maximum of coeffs · x over the rows, from the current basis;
        None for None, which stays on the basis, and on an infeasible
        tableau.  An unbounded objective raises MalformedLp and leaves the
        tableau on a feasible basis.  The basis is kept for the next call,
        and so are the reduced costs of an optimum (all zero otherwise) for
        `add_rows`.  A flipped variable j prices c_j x_j as c_j - c_j x'_j."""
        n = self.num_vars
        if coeffs is not None and len(coeffs) != n:
            raise MalformedLp("objective length mismatch")
        if not self.feasible:
            return None
        T, basis, nonbasic = self.rows, self.basis, self.nonbasic
        self.cost = ([0] * (len(nonbasic) + 1), 1)
        if coeffs is None:
            return None
        # Minimize -coeffs · x, priced over the nonbasic positions.
        nums, den = _int_row(coeffs)
        on = [-v for v in nums] + [0]
        for j, f in enumerate(self.flipped):
            if f and on[j]:
                on[-1] -= on[j]
                on[j] = -on[j]
        T.append(_eliminate(on, den, T, basis, nonbasic))
        bounded = _simplex_min(T, basis, nonbasic, self.flipped)
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
