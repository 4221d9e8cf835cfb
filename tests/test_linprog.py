import random
from fractions import Fraction

import pytest

from conftest import lp_brute_force, lp_vertices, random_boxed_lp
from ordineq.errors import MalformedLp
from ordineq.linprog import (
    EQ,
    FEASIBLE,
    GE,
    INFEASIBLE,
    LE,
    MAX,
    UNBOUNDED,
    LinearProgram,
    constraint,
    lp_solve,
)

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
    assert lp_solve(lp).status == UNBOUNDED


def test_equality_constraint():
    cases = [
        ((constraint([1, 1], EQ, 1),), (ONE, -ONE)),
        # the second row repeats the first: phase 1 leaves its artificial
        # basic in an all-zero structural row, which must be dropped
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


def _check_assignment(lp, out):
    x = out.assignment
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
            _check_assignment(lp, out)
            assert out.assignment in lp_vertices(lp), f"trial {trial}: not a vertex"
            if lp.objective is not None:
                assert out.objective_value == best, f"trial {trial}"
                coeffs, _ = lp.objective
                val = sum(a * v for a, v in zip(coeffs, out.assignment))
                assert val == out.objective_value, f"trial {trial}"
