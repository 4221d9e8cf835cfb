"""Consistency, extreme-type enumeration and entailment for the five
type-space kinds.

A 0/1 utility vector is an "extreme type".  For total orders these are the
threshold vectors; for partial orders, indicator vectors of upward-closed
sets; for preference-CNF, the 0/1 models of the formula, where the atom
(a >= b) reads as the Boolean clause u_a or not u_b.  The enumeration is
exhaustive within the 0/1 class or raises CapExceeded -- silent truncation
would break soundness downstream.  The solver never enumerates: its
oracles search these families lazily, and the enumeration serves the
verifier's cross-check, `ordineq enumerate-types` and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import linprog
from .errors import CapExceeded, UnknownOutcome, UnsupportedSpace
from .games import (
    DistributionOrder,
    FiniteTypes,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    TypeSpaceSpec,
    partial_order_closure,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_CAP = 2**20

UtilityVector = Mapping[str, Fraction]


def satisfies_space(u: UtilityVector, spec: TypeSpaceSpec, outcomes: tuple[str, ...]) -> bool:
    """Is the utility vector consistent with the space's constraints?"""
    for o in outcomes:
        if o not in u:
            raise UnknownOutcome(f"utility vector missing outcome {o!r}")
    if isinstance(spec, FiniteTypes):
        return any(all(t[o] == u[o] for o in outcomes) for t in spec.types)
    if isinstance(spec, (TotalOrder, PartialOrder)):
        pairs = _order_pairs(spec)
        return all(u[a] >= u[b] for a, b in pairs)
    if isinstance(spec, DistributionOrder):
        return all(_expected(r1, u) >= _expected(r2, u) for r1, r2 in spec.pairs)
    if isinstance(spec, PreferenceCnf):
        return all(any(u[a] >= u[b] for a, b in clause) for clause in spec.clauses)
    raise UnsupportedSpace(type(spec).__name__)


def _expected(r: Mapping[str, Fraction], u: UtilityVector) -> Fraction:
    return sum((w * u[o] for o, w in r.items()), ZERO)


def _order_pairs(spec) -> tuple[tuple[str, str], ...]:
    if isinstance(spec, TotalOrder):
        return tuple(
            (spec.order[k], spec.order[k + 1]) for k in range(len(spec.order) - 1)
        )
    return spec.pairs


def enumerate_extreme_types(
    spec: TypeSpaceSpec, outcomes: tuple[str, ...]
) -> list[dict[str, Fraction]]:
    """All 0/1 utility vectors consistent with the space.

    TotalOrder yields the |O|+1 threshold vectors directly; PartialOrder and
    PreferenceCnf filter the 2^|O| candidates, at most DEFAULT_CAP of them.
    """
    if isinstance(spec, TotalOrder):
        vectors = []
        for k in range(len(spec.order) + 1):
            top = set(spec.order[:k])
            vectors.append({o: (ONE if o in top else ZERO) for o in outcomes})
        return vectors
    if not isinstance(spec, (PartialOrder, PreferenceCnf)):
        raise UnsupportedSpace(f"cannot enumerate extreme types for {type(spec).__name__}")
    if 2 ** len(outcomes) > DEFAULT_CAP:
        raise CapExceeded(f"2^{len(outcomes)} candidate vectors exceed cap {DEFAULT_CAP}")
    if isinstance(spec, PartialOrder):
        # u(o) >= u(o') for o >= o': the 1-set must be upward closed.  The
        # test runs on the candidate's bit mask over `outcomes`, so only
        # accepted candidates become vectors.
        bit = {o: 1 << k for k, o in enumerate(outcomes)}
        links = [(bit[a], bit[b]) for a, b in spec.pairs]
        return [
            {o: (ONE if mask >> k & 1 else ZERO) for k, o in enumerate(outcomes)}
            for mask in range(2 ** len(outcomes))
            if all(mask & hi or not mask & lo for hi, lo in links)
        ]

    def ok(u):
        return all(any(u[a] >= u[b] for a, b in clause) for clause in spec.clauses)

    vectors = []
    for mask in range(2 ** len(outcomes)):
        u = {o: (ONE if mask >> k & 1 else ZERO) for k, o in enumerate(outcomes)}
        if ok(u):
            vectors.append(u)
    return vectors


def entails_preference(
    spec: TypeSpaceSpec, o: str, o2: str, outcomes: tuple[str, ...]
) -> bool:
    """True iff every utility vector consistent with the space has u(o) >= u(o2)."""
    known = set(outcomes)
    if o not in known or o2 not in known:
        raise UnknownOutcome(f"unknown outcome in ({o!r}, {o2!r})")
    if isinstance(spec, FiniteTypes):
        return all(t[o] >= t[o2] for t in spec.types)
    if isinstance(spec, (TotalOrder, PartialOrder)):
        closure = partial_order_closure(_order_pairs(spec), outcomes)
        return (o, o2) in closure
    if isinstance(spec, DistributionOrder):
        # Minimize u(o) - u(o2) over the constraint polytope; entailed iff min >= 0.
        objective = [ZERO] * len(outcomes)
        objective[outcomes.index(o)] = ONE
        objective[outcomes.index(o2)] -= ONE
        out = optimize_over_distribution_order(spec, outcomes, tuple(objective), linprog.MIN)
        return out.objective_value >= 0
    raise UnsupportedSpace("entailment for preference-CNF spaces is out of scope")


def optimize_over_distribution_order(
    spec: DistributionOrder,
    outcomes: tuple[str, ...],
    objective: tuple[Fraction, ...],
    direction: str,
) -> linprog.LpOutcome:
    """Optimize `objective` (indexed by `outcomes`) over the utility vectors
    u in [0,1]^O that satisfy the space: one row r1·u - r2·u >= 0 per pair.
    The polytope contains 0 and is bounded, so the optimum always exists."""
    idx = {name: k for k, name in enumerate(outcomes)}
    n = len(outcomes)
    rows = []
    for r1, r2 in spec.pairs:
        row = [ZERO] * n
        for name, w in r1.items():
            row[idx[name]] += w
        for name, w in r2.items():
            row[idx[name]] -= w
        rows.append(linprog.constraint(row, linprog.GE, ZERO))
    lp = linprog.LinearProgram(
        num_vars=n,
        constraints=tuple(rows),
        objective=(objective, direction),
        lower=(ZERO,) * n,
        upper=(ONE,) * n,
    )
    out = linprog.lp_solve(lp)
    if out.status != linprog.FEASIBLE:
        raise AssertionError(f"distribution-order LP is {out.status}; 0 is always feasible")
    return out
