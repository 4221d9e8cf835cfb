"""Shared brute-force oracles for the property suites.

Every oracle here is deliberately independent of the implementation it
checks: vertex enumeration for LPs, subset enumeration for closures and
extreme types, and a direct type-by-type scan for equilibrium checking.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ordineq.games import (
    DistributionOrder,
    GameForm,
    MediatedProfile,
    PartialOrder,
    TotalOrder,
    opponents_profiles_of,
    profiles_of,
)
from ordineq.errors import UnknownOutcome
from ordineq.linprog import (
    EQ,
    GE,
    LE,
    FEASIBLE,
    INFEASIBLE,
    MAX,
    MIN,
    LinearProgram,
    constraint as make_constraint,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_square_system(rows, rhs):
    """Solve A x = b exactly; return the unique solution or None if A is
    singular (no or infinitely many solutions)."""
    n = len(rhs)
    A = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = ONE / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return tuple(A[r][n] for r in range(n))


# ---------------------------------------------------------------------------
# LP brute force by vertex enumeration (valid for bounded programs, where
# the feasible region is a polytope and hence has a vertex iff it is
# nonempty).


def lp_vertices(lp: LinearProgram) -> list[tuple[Fraction, ...]]:
    """Every feasible point where n linearly independent constraint or
    nonnegativity hyperplanes are tight, i.e. every vertex of the feasible
    region.

    Requires the rows to bound every variable.
    """
    n = lp.num_vars
    hyperplanes = []  # (coeffs, rhs) rows whose tightness can define a vertex
    for c in lp.constraints:
        hyperplanes.append((c.coeffs, c.rhs))
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        hyperplanes.append((unit, ZERO))

    def feasible(x):
        for c in lp.constraints:
            lhs = sum(a * v for a, v in zip(c.coeffs, x))
            if c.rel == LE and lhs > c.rhs:
                return False
            if c.rel == GE and lhs < c.rhs:
                return False
            if c.rel == EQ and lhs != c.rhs:
                return False
        return all(v >= 0 for v in x)

    vertices = []
    for combo in itertools.combinations(range(len(hyperplanes)), n):
        rows = [hyperplanes[k][0] for k in combo]
        rhs = [hyperplanes[k][1] for k in combo]
        x = solve_square_system(rows, rhs)
        if x is not None and feasible(x):
            vertices.append(x)
    return vertices


def lp_brute_force(lp: LinearProgram):
    """Return (status, best_value) by enumerating candidate vertices.

    Requires the rows to bound every variable.
    """
    vertices = lp_vertices(lp)
    status = FEASIBLE if vertices else INFEASIBLE
    if lp.objective is None or not vertices:
        return status, None
    coeffs, direction = lp.objective
    values = [sum(a * v for a, v in zip(coeffs, x)) for x in vertices]
    return status, max(values) if direction == MAX else min(values)


def random_boxed_lp(rng: random.Random, max_vars=3, max_rows=5) -> LinearProgram:
    """Small random LP whose last rows are x_j <= b_j, one per variable."""
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    constraints = []
    for _ in range(m):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        rel = rng.choice((LE, GE, EQ))
        constraints.append(make_constraint(coeffs, rel, Fraction(rng.randint(-4, 4))))
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        constraints.append(make_constraint(unit, LE, rng.randint(0, 3)))
    objective = None
    if rng.random() < 0.7:
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        objective = (coeffs, rng.choice((MAX, MIN)))
    return LinearProgram(num_vars=n, constraints=tuple(constraints), objective=objective)


# ---------------------------------------------------------------------------
# Closure brute force


def partial_order_closure(pairs, outcomes: tuple[str, ...]) -> frozenset[tuple[str, str]]:
    """Smallest reflexive-transitive relation over `outcomes` containing
    `pairs`.  Cycles are legal (they entail utility equality)."""
    known = set(outcomes)
    succ: dict[str, set[str]] = {o: set() for o in outcomes}
    for a, b in pairs:
        if a not in known or b not in known:
            raise UnknownOutcome(f"pair ({a},{b}) references unknown outcome")
        succ[a].add(b)  # a >= b
    closure = set()
    for start in outcomes:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        for v in seen:
            closure.add((start, v))
    return frozenset(closure)


def closure_brute_force(items, values, implications):
    """Max-value implication-closed subset by enumerating all subsets."""
    index = {it: k for k, it in enumerate(items)}
    n = len(items)
    best_set, best_val = frozenset(), ZERO
    for mask in range(1 << n):
        ok = True
        for a, b in implications:
            if mask >> index[a] & 1 and not mask >> index[b] & 1:
                ok = False
                break
        if not ok:
            continue
        val = sum(
            (values[items[k]] for k in range(n) if mask >> k & 1), ZERO
        )
        if val > best_val:
            best_val = val
            best_set = frozenset(items[k] for k in range(n) if mask >> k & 1)
    return best_set, best_val


# ---------------------------------------------------------------------------
# Up-set enumeration and direct deviation-gain brute force


def upward_closed_vectors(outcomes, pairs):
    """All 0/1 vectors whose 1-set is upward closed: u(o) >= u(o2)
    whenever the pair (o, o2) is entailed."""
    closure = partial_order_closure(pairs, outcomes)
    result = []
    for bits in itertools.product((ZERO, ONE), repeat=len(outcomes)):
        u = dict(zip(outcomes, bits))
        if all(u[o] >= u[o2] for o, o2 in closure):
            result.append(u)
    return result


def deviation_gain(game: GameForm, i, deviation, u, p, q_i):
    """RHS - LHS of the incentive constraint for utility vector u."""
    on_path = sum(
        (w * u[game.outcome_of(prof)] for prof, w in p.items()), ZERO
    )
    deviate = ZERO
    for opp, w in q_i.items():
        deviate += w * u[game.outcome_of(game.insert(i, deviation, opp))]
    return deviate - on_path


def gain_vector(game: GameForm, i, deviation, p, q_i):
    """Per-outcome weights of the deviation gain: `deviation_gain` at each
    outcome's unit vector, which by linearity determines it everywhere."""
    return {
        o: deviation_gain(
            game, i, deviation, {o2: ONE if o2 == o else ZERO for o2 in game.outcomes}, p, q_i
        )
        for o in game.outcomes
    }


def brute_verify(game: GameForm, spaces, profile: MediatedProfile):
    """Independent equilibrium check: scan every extreme type of every
    player against every deviation.  Supports the space kinds for which
    0/1 extreme types are exhaustive witnesses."""
    from ordineq.games import FiniteTypes
    from ordineq.typespaces import enumerate_extreme_types

    for i, spec in enumerate(spaces):
        if isinstance(spec, FiniteTypes):
            types = list(spec.types)
        else:
            types = enumerate_extreme_types(spec, game.outcomes)
        q_i = {
            opp: profile.q[i].get(opp, ZERO)
            for opp in opponents_profiles_of(game, i)
        }
        for u in types:
            for a in game.action_sets[i]:
                if deviation_gain(game, i, a, u, profile.p, q_i) > 0:
                    return False
    return True


def distribution_shadow_partial(spec: DistributionOrder) -> PartialOrder:
    """Pure-outcome shadow of distribution constraints for the 0/1 oracle.

    A pair (delta_o, r2) restricted to 0/1 utilities says: u(o) = 0 forces
    u = 0 on the support of r2, i.e. the partial-order pairs (o, o') for
    every o' in supp(r2).  Pairs whose left side is not a point mass have no
    closure representation and are dropped; the 0/1 check is then a strict
    relaxation, which is exactly the property the LP oracle exists to fix.
    """
    pairs = []
    for r1, r2 in spec.pairs:
        support1 = [o for o, w in r1.items() if w != 0]
        if len(support1) != 1:
            continue
        o = support1[0]
        for o2, w in r2.items():
            if w != 0 and o2 != o:
                pairs.append((o, o2))
    return PartialOrder(tuple(pairs))


# ---------------------------------------------------------------------------
# Stochastic dominance, best responses and the averaging lemma


def stochastic_dominance(order: TotalOrder, d1, d2) -> bool:
    """d1 dominates d2: every upper-set prefix of the order gets at least as
    much mass under d1 as under d2."""
    acc1 = acc2 = ZERO
    for o in order.order:
        acc1 += d1.get(o, ZERO)
        acc2 += d2.get(o, ZERO)
        if acc1 < acc2:
            return False
    return True


def best_response_value(game: GameForm, i, u, q_i):
    """Best expected utility player i can get against punishment q_{-i}."""
    best = None
    for a in game.action_sets[i]:
        val = sum(
            (w * u[game.outcome_of(game.insert(i, a, opp))] for opp, w in q_i.items()),
            ZERO,
        )
        if best is None or val > best:
            best = val
    return best


def averaging_dominates(game: GameForm, i, u, rounds):
    """Compare punishing with the round-average distribution vs. the original
    round sequence: (value vs average, mean of per-round values, lhs <= rhs).

    The comparison always holds: the best-response value is a maximum of
    linear functions of q, hence convex.  This is the convexity step of the
    folk theorem: averaged punishments are never weaker.
    """
    m = len(rounds)
    avg = {}
    for q in rounds:
        for opp, w in q.items():
            avg[opp] = avg.get(opp, ZERO) + w
    avg = {opp: w / m for opp, w in avg.items()}
    lhs = best_response_value(game, i, u, avg)
    rhs = sum((best_response_value(game, i, u, q) for q in rounds), ZERO) / m
    return lhs, rhs, lhs <= rhs


def point_profile(game: GameForm, cell) -> MediatedProfile:
    """Point mass on one cell with q_{-i} equal to the others' part of it."""
    p = {tuple(cell): ONE}
    q = []
    for i in range(game.num_players):
        opp = tuple(a for j, a in enumerate(cell) if j != i)
        q.append({opp: ONE})
    return MediatedProfile(p, tuple(q))


@pytest.fixture
def rng():
    return random.Random(0)
