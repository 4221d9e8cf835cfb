import random
from fractions import Fraction

import pytest

from conftest import (
    EQ,
    FEASIBLE,
    GE,
    INFEASIBLE,
    LE,
    MAX,
    MIN,
    LinearProgram,
    LpSolution,
    StandardForm,
    constraint,
    lp_brute_force,
    lp_solve,
    lp_vertices,
    optimum,
    random_boxed_lp,
)
from ordineq import linprog
from ordineq.errors import MalformedLp
from ordineq.linprog import Tableau

ZERO = Fraction(0)
ONE = Fraction(1)


def test_single_variable_box_max():
    lp = LinearProgram(
        num_vars=1,
        constraints=(constraint([1], LE, 1),),
        objective=((ONE,), MAX),
    )
    out = lp_solve(lp)
    assert out.status == FEASIBLE
    assert out.assignment == (ONE,)
    assert out.objective_value == ONE


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(
        num_vars=1,
        constraints=(constraint([1], GE, 1), constraint([1], LE, 0)),
    )
    assert lp_solve(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram(
        num_vars=1,
        constraints=(),
        objective=((ONE,), MAX),
    )
    with pytest.raises(MalformedLp, match="unbounded"):
        lp_solve(lp)


def test_equality_constraint():
    cases = [
        ((constraint([1, 1], EQ, 1),), (ONE, -ONE)),
        # the second row repeats the first, scaled
        (
            (
                constraint([1, 1], EQ, 1),
                constraint([2, 2], EQ, 2),
                constraint([1, 0], LE, 1),
                constraint([0, 1], LE, 1),
            ),
            (ONE, ZERO),
        ),
    ]
    for constraints, objective in cases:
        lp = LinearProgram(num_vars=2, constraints=constraints, objective=(objective, MAX))
        out = lp_solve(lp)
        assert out.status == FEASIBLE
        assert out.assignment == (ONE, ZERO)
        assert out.objective_value == ONE


def test_dimension_mismatch_rejected():
    with pytest.raises(MalformedLp):
        lp_solve(
            LinearProgram(num_vars=2, constraints=(constraint([1], LE, 1),))
        )
    with pytest.raises(MalformedLp):
        lp_solve(
            LinearProgram(
                num_vars=1, constraints=(), objective=((ONE, ONE), MAX)
            )
        )
    for blocks, rows in (([], [[1, 0, 0]]), ([[0, 1]], [[1]])):
        with pytest.raises(MalformedLp):
            Tableau(2, blocks, rows)


def _check_assignment(lp, x):
    for c in lp.constraints:
        lhs = sum(a * v for a, v in zip(c.coeffs, x))
        if c.rel == LE:
            assert lhs <= c.rhs
        elif c.rel == GE:
            assert lhs >= c.rhs
        else:
            assert lhs == c.rhs
    assert all(v >= 0 for v in x)


def test_agrees_with_vertex_enumeration_on_random_lps():
    """1000 random small bounded LPs: status and optimal value must
    match a brute force that enumerates candidate vertices, and every
    feasible answer must be one of those vertices."""
    rng = random.Random(20260826)
    for trial in range(1000):
        lp = random_boxed_lp(rng)
        out = lp_solve(lp)
        status, best = lp_brute_force(lp)
        assert out.status == status, f"trial {trial}: {out.status} != {status}"
        if status == FEASIBLE:
            _check_assignment(lp, out.assignment)
            assert out.assignment in lp_vertices(lp), f"trial {trial}: not a vertex"
            if lp.objective is not None:
                assert out.objective_value == best, f"trial {trial}"
                coeffs, _ = lp.objective
                val = sum(a * v for a, v in zip(coeffs, out.assignment))
                assert val == out.objective_value, f"trial {trial}"


def test_optimize_reprices_one_tableau_for_many_objectives():
    """One tableau of a random bounded LP, optimized for 50 objectives in a
    row, each from the basis the last one ended on: every value matches a
    fresh `lp_solve`, and every point, with or without an objective, is a
    vertex of the feasible region."""
    rng = random.Random(20261019)
    feasible = 0
    for trial in range(120):
        lp = random_boxed_lp(rng, max_vars=4, max_rows=6)
        tableau = StandardForm(lp.num_vars, lp.constraints)
        vertices = lp_vertices(lp)
        assert tableau.feasible == bool(vertices), f"trial {trial}"
        if not vertices:
            assert tableau.optimize(None) is None
            continue
        feasible += 1
        for k in range(50):
            objective = None
            if k % 10:
                coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(lp.num_vars))
                objective = (coeffs, rng.choice((MAX, MIN)))
            value = optimum(tableau, objective)
            point = tableau.point()
            fresh = lp_solve(LinearProgram(lp.num_vars, lp.constraints, objective))
            assert tableau.feasible and fresh.status == FEASIBLE, f"trial {trial}"
            assert value == fresh.objective_value, f"trial {trial}, objective {k}"
            assert point in vertices, f"trial {trial}, objective {k}: not a vertex"
            _check_assignment(lp, point)
            if objective is not None:
                val = sum(a * v for a, v in zip(objective[0], point))
                assert val == value, f"trial {trial}, objective {k}"
    assert feasible >= 40


def test_optimize_after_an_unbounded_objective():
    """An unbounded objective leaves the tableau on a feasible basis, from
    which the next objective is optimized."""
    tableau = StandardForm(2, (constraint([1, -1], LE, 1),))
    with pytest.raises(MalformedLp, match="unbounded"):
        tableau.optimize((ONE, ZERO))
    assert tableau.feasible
    assert optimum(tableau, ((ONE, ONE), MIN)) == ZERO
    assert tableau.point() == (ZERO, ZERO)
    assert optimum(tableau, ((-ONE, ONE), MIN)) == -ONE


def _random_cut(rng, n):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))


def test_add_rows_in_batches_matches_a_fresh_solve():
    """Random feasible bounded LPs, with and without an objective, gain
    `>= 0` rows in batches on one tableau.  After each batch, `optimize`
    answers as a fresh `lp_solve` over every row so far, and its point is a
    vertex of their feasible region, as is the point the dual simplex ends
    on, which is already optimal.  A batch can make the rows infeasible,
    and the tableau stays so."""
    rng = random.Random(20261020)
    seen = {"objective": 0, "none": 0, "made infeasible": 0}
    for trial in range(150):
        lp = random_boxed_lp(rng)
        n = lp.num_vars
        tableau = StandardForm(n, lp.constraints)
        optimum(tableau, lp.objective)
        if not tableau.feasible:
            continue
        rows = list(lp.constraints)
        feasible = True
        for batch_no in range(3):
            batch = [_random_cut(rng, n) for _ in range(rng.randint(1, 3))]
            tableau.add_rows(batch)
            rows += (constraint(c, GE, 0) for c in batch)
            so_far = LinearProgram(n, tuple(rows), lp.objective)
            fresh = lp_solve(so_far)
            where = f"trial {trial}, batch {batch_no}"
            assert tableau.feasible == (fresh.status == FEASIBLE), where
            if not tableau.feasible:
                assert optimum(tableau, lp.objective) is None, where
                seen["made infeasible"] += feasible
                feasible = False
                continue
            assert feasible, where
            # The dual simplex ends on an optimum of the last objective.
            vertices = lp_vertices(so_far)
            assert tableau.optimize(None) is None and tableau.feasible, where
            point = tableau.point()
            assert point in vertices, f"{where}: not a vertex"
            if lp.objective is not None:
                value = sum(a * v for a, v in zip(lp.objective[0], point))
                assert value == fresh.objective_value, where
            assert optimum(tableau, lp.objective) == fresh.objective_value, where
            assert tableau.feasible, where
            assert tableau.point() in vertices, f"{where}: not a vertex"
            _check_assignment(so_far, tableau.point())
            seen["none" if lp.objective is None else "objective"] += 1
    assert min(seen.values()) >= 10, seen


def test_an_infeasible_batch_answers_infeasible_for_good():
    """The block x1 + x2 = 1 with x1 <= 0 and x2 <= 0 added as `>= 0` rows
    has no point; the tableau stays infeasible, and every later call
    returns None."""
    tableau = Tableau(2, [[0, 1]])
    tableau.optimize((ONE, ZERO))
    assert tableau.point() == (ONE, ZERO)
    tableau.add_rows(([-1, 0],))
    tableau.optimize((ONE, ZERO))
    assert tableau.point() == (ZERO, ONE)
    tableau.add_rows(([0, -1],))
    assert not tableau.feasible
    assert tableau.optimize(None) is None and tableau.point() is None
    tableau.add_rows(([1, 0],))
    assert optimum(tableau, ((ONE, ONE), MIN)) is None
    assert not tableau.feasible


@pytest.mark.parametrize("row", [[1], [1, 0, 0]], ids=["short", "long"])
def test_add_rows_takes_only_ge_zero_rows_of_the_right_length(row):
    """A row of the wrong width is rejected, by a feasible tableau and by
    one whose rows are infeasible."""
    for rows in ((), ([-1, 0], [0, -1])):
        tableau = Tableau(2, [[0, 1]], rows)
        assert tableau.feasible == (not rows)
        with pytest.raises(MalformedLp):
            tableau.add_rows(([1, -1], row))


def test_rows_at_construction_join_as_added_rows_do():
    """`>= 0` rows handed to the constructor give the tableau that the
    same rows added by `add_rows` give: the same rows, basis, nonbasic
    columns and feasibility."""
    rng = random.Random(20261103)
    for trial in range(200):
        n = rng.randint(1, 4)
        blocks = _random_blocks(rng, n)
        rows = [_random_cut(rng, n) for _ in range(rng.randint(0, 4))]
        built = Tableau(n, blocks, rows)
        added = Tableau(n, blocks)
        added.add_rows(rows)
        assert built.feasible == added.feasible, f"trial {trial}"
        if built.feasible:
            layout = lambda t: (t.rows, t.basis, t.nonbasic, t.width)
            assert layout(built) == layout(added), f"trial {trial}"


def _assert_dictionary_form(tableau, width, where):
    """Every row, and the reduced costs, span the nonbasic columns and the
    right-hand side; basis and nonbasic hold each variable once."""
    assert len(tableau.nonbasic) == width, where
    assert all(len(nums) == width + 1 for nums, _ in (*tableau.rows, tableau.cost)), where
    assert sorted(tableau.basis + tableau.nonbasic) == list(range(tableau.width)), where
    assert len(tableau.rows) == len(tableau.basis), where


def test_no_row_is_ever_widened():
    """Across random `add_rows` batches and `optimize` calls, every row of
    a tableau stays num_vars - len(blocks) + 1 entries long, or
    num_vars + 1 when boxed: a joining row brings its own basic slack and
    no column."""
    rng = random.Random(20261105)
    for trial in range(150):
        n = rng.randint(1, 5)
        where = f"trial {trial}"
        if trial % 3 == 0:
            tableau = Tableau(n, rows=_random_box_rows(rng, n), boxed=True)
            width = n
        else:
            blocks = _random_blocks(rng, n)
            tableau = Tableau(n, blocks, [_random_cut(rng, n) for _ in range(rng.randint(0, 3))])
            width = n - len(blocks)
        # An unboxed column in no block weighs at most 0: no objective is
        # unbounded.
        free = set() if tableau.boxed else set(range(n)).difference(*blocks)
        _assert_dictionary_form(tableau, width, where)
        for step in range(8):
            if tableau.boxed or step % 2:
                tableau.optimize([Fraction(rng.randint(-3, 0 if j in free else 3), 2) for j in range(n)])
            else:
                tableau.add_rows([_random_cut(rng, n) for _ in range(rng.randint(1, 3))])
            if not tableau.feasible:
                break
            _assert_dictionary_form(tableau, width, f"{where}, step {step}")


def _random_box_rows(rng, n):
    """`>= 0` rows over n variables in [0, 1], all degenerate at the vertex
    0: some repeated or scaled, and some all-zero."""
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            k = rng.choice((1, 2, Fraction(1, 3)))
            rows.append([k * v for v in rng.choice(rows)])
        elif kind < 0.25:
            rows.append([0] * n)
        else:
            rows.append([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)])
    return rows


def _limit_steps(monkeypatch, limit):
    """Make the simplex fail, instead of looping, once it has taken more
    than `limit` pivots and column flips since the returned counter was
    last set to zero."""
    steps = [0]

    def counted(step):
        def run(*args):
            steps[0] += 1
            if steps[0] > limit:
                raise AssertionError(f"more than {limit} simplex steps")
            return step(*args)

        return run

    monkeypatch.setattr(linprog, "_pivot", counted(linprog._pivot))
    monkeypatch.setattr(linprog, "_flip", counted(linprog._flip))
    return steps


def test_boxed_tableau_matches_explicit_unit_rows(monkeypatch):
    """A boxed tableau, which keeps every x_j <= 1 on its columns, answers
    as `lp_solve` over the same rows with an explicit x_j <= 1 row per
    variable: for each of 20 objectives asked in a row of one tableau, the
    same value, at a point that lies in [0, 1]^n, satisfies every row,
    attains the value and is a vertex of the explicit LP's polytope.  The
    `>= 0` rows include repeated and zero rows.  No construction or
    optimization takes more than 200 steps, so a simplex that cycles
    fails here instead of hanging."""
    rng = random.Random(20261101)
    steps = _limit_steps(monkeypatch, 200)
    seen = {"flipped": 0, "optima": 0}
    for trial in range(160):
        n = rng.randint(1, 4)
        rows = _random_box_rows(rng, n)
        units = [constraint([int(k == j) for k in range(n)], LE, 1) for j in range(n)]
        explicit = LinearProgram(n, tuple(constraint(c, GE, 0) for c in rows) + tuple(units))
        steps[0] = 0
        tableau = Tableau(n, rows=rows, boxed=True)
        vertices = lp_vertices(explicit)
        where = f"trial {trial}"
        assert tableau.feasible and vertices, where
        for k in range(20):
            objective = None
            if k % 7:
                coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                objective = (coeffs, rng.choice((MAX, MIN)))
            steps[0] = 0
            value = optimum(tableau, objective)
            point = tableau.point()
            fresh = lp_solve(LinearProgram(n, explicit.constraints, objective))
            assert tableau.feasible and fresh.status == FEASIBLE, f"{where}, objective {k}"
            assert value == fresh.objective_value, f"{where}, objective {k}"
            assert all(0 <= v <= 1 for v in point), f"{where}, objective {k}: {point}"
            _check_assignment(explicit, point)
            assert point in vertices, f"{where}, objective {k}: not a vertex"
            if objective is not None:
                attained = sum(a * v for a, v in zip(objective[0], point))
                assert attained == value, f"{where}, objective {k}"
                seen["optima"] += 1
            seen["flipped"] += any(tableau.flipped)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("blocks", [[[0, 1]], [[0], [1]]], ids=["one-block", "two-blocks"])
def test_a_boxed_tableau_takes_only_rows_that_zero_satisfies(blocks):
    """A boxed tableau starts on the point 0, where every `>= 0` row holds
    and no block sums to 1; it takes no block."""
    with pytest.raises(MalformedLp, match="boxed"):
        Tableau(2, blocks, ([1, 0],), boxed=True)
    with pytest.raises(MalformedLp, match="boxed"):
        Tableau(2, blocks, boxed=True)


def test_a_boxed_tableau_takes_no_added_rows():
    tableau = Tableau(2, rows=([1, -1],), boxed=True)
    with pytest.raises(MalformedLp):
        tableau.add_rows(([1, 0],))
    with pytest.raises(MalformedLp):
        tableau.add_rows(())
    assert tableau.optimize((ONE, ONE)) == 2
    assert tableau.point() == (ONE, ONE)


def test_inconsistent_repeated_equations_are_infeasible():
    """x + y = 1 and 2x + 2y = 3 have no common point, whatever the
    objective."""
    for objective in (None, ((ONE, ZERO), MAX)):
        lp = LinearProgram(2, (constraint([1, 1], EQ, 1), constraint([2, 2], EQ, 3)), objective)
        assert lp_solve(lp) == LpSolution(INFEASIBLE)


def test_a_zero_equals_zero_row_is_dropped():
    """A 0 = 0 row, before and after x + y = 1, holds at every point: the
    LP answers as x + y = 1 alone does."""
    zero = constraint([0, 0], EQ, 0)
    lp = LinearProgram(2, (zero, constraint([1, 1], EQ, 1), zero), ((ZERO, ONE), MAX))
    assert lp_solve(lp) == LpSolution(FEASIBLE, (ZERO, ONE), ONE)


def test_an_all_zero_row_with_a_negative_bound_is_infeasible():
    """0 <= -1, homogenized to -t >= 0 on the block t = 1, joins with its
    slack at -1: the dual simplex finds a negative row with no negative
    entry."""
    tableau = StandardForm(2, (constraint([1, 1], LE, 1), constraint([0, 0], LE, -1)))
    assert not tableau.feasible
    assert tableau.optimize(None) is None


def _random_blocks(rng, n):
    """Disjoint blocks over a random part of range(n), in random order."""
    cols = rng.sample(range(n), rng.randint(0, n))
    blocks = []
    while cols:
        k = rng.randint(1, len(cols))
        blocks.append(cols[:k])
        cols = cols[k:]
    return blocks


@pytest.mark.parametrize(
    "blocks",
    [[[]], [[0, 0]], [[0], [1, 0]], [[2]], [[-1]]],
    ids=["empty", "repeated", "in-two-blocks", "past-the-end", "negative"],
)
def test_a_block_is_a_nonempty_set_of_columns_no_other_block_has(blocks):
    with pytest.raises(MalformedLp, match="block"):
        Tableau(2, blocks)


def test_blocks_start_basic_on_their_first_columns_with_no_pivot(monkeypatch):
    """Each block's row is basic on the block's first column with no pivot:
    over the nonbasic columns, 1 on the block's other columns, right-hand
    side 1 and denominator 1.  The tableau stands on the point that puts 1
    there.  An objective then reaches the optimum that `lp_solve` finds
    with the blocks written as `=` rows, at a vertex."""
    pivots = []
    pivot = linprog._pivot
    monkeypatch.setattr(linprog, "_pivot", lambda *args: (pivots.append(args), pivot(*args)))
    rng = random.Random(20261104)
    for trial in range(100):
        n = rng.randint(1, 5)
        blocks = _random_blocks(rng, n)
        pivots.clear()
        tableau = Tableau(n, blocks)
        where = f"trial {trial}"
        assert tableau.feasible and not pivots, where
        first = {b[0] for b in blocks}
        assert tableau.basis == [b[0] for b in blocks], where
        assert tableau.nonbasic == [j for j in range(n) if j not in first], where
        assert tableau.rows == [([int(j in b) for j in tableau.nonbasic] + [1], 1) for b in blocks], where
        assert tableau.point() == tuple(ONE if j in first else ZERO for j in range(n)), where
        # A column in no block is bounded by the objective alone: weigh it
        # at most 0, and bound it by 1 for the vertex enumeration.
        free = [j for j in range(n) if not any(j in b for b in blocks)]
        coeffs = tuple(Fraction(rng.randint(-3, 0 if j in free else 3)) for j in range(n))
        rows = tuple(constraint([int(j in b) for j in range(n)], EQ, 1) for b in blocks)
        rows += tuple(constraint([int(j == k) for j in range(n)], LE, 1) for k in free)
        fresh = lp_solve(LinearProgram(n, rows, (coeffs, MAX)))
        assert tableau.optimize(coeffs) == fresh.objective_value, where
        assert tableau.point() in lp_vertices(LinearProgram(n, rows)), where
