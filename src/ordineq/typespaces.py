"""Consistency and extreme-type enumeration for the five type-space kinds.

A 0/1 utility vector is an "extreme type".  For total orders these are the
threshold vectors; for partial orders, indicator vectors of upward-closed
sets; for preference-CNF, the 0/1 models of the formula, where the atom
(a >= b) reads as the Boolean clause u_a or not u_b.  The enumeration is
exhaustive within the 0/1 class or raises CapExceeded -- silent truncation
would break soundness downstream.  The solver never enumerates: its
oracles search these families lazily, and the enumeration serves the
verifier's cross-check, `ordineq enumerate-types` and the tests.  The
largest value of a linear function of u over a space, which also decides
entailment, is `equilibrium.separate`'s question.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import CapExceeded, UnknownOutcome, UnsupportedSpace
from .games import (
    DistributionOrder,
    FiniteTypes,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    TypeSpaceSpec,
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
    # A partial-order pair is a unit clause.  Over a candidate's bit mask,
    # a clause holds iff one of its atoms (a, b) has a's bit set or b's bit
    # clear: iff the mask meets the OR of its left bits, or misses part of
    # the OR of its right bits.  An empty clause never holds.
    clauses = spec.clauses if isinstance(spec, PreferenceCnf) else tuple((p,) for p in spec.pairs)
    bit = {o: 1 << k for k, o in enumerate(outcomes)}
    masks = []
    for clause in clauses:
        left = right = 0
        for a, b in clause:
            left |= bit[a]
            right |= bit[b]
        masks.append((left, right))
    return [
        {o: (ONE if mask >> k & 1 else ZERO) for k, o in enumerate(outcomes)}
        for mask in range(2 ** len(outcomes))
        if all(mask & left or mask & right != right for left, right in masks)
    ]
