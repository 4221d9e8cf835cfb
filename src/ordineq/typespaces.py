"""Extreme-type enumeration for the type-space kinds with 0/1 witnesses.

A 0/1 utility vector is an "extreme type".  For total orders these are the
threshold vectors; for partial orders, indicator vectors of upward-closed
sets; for preference-CNF, the 0/1 models of the formula, where the atom
(a >= b) reads as the Boolean clause u_a or not u_b.  The enumeration is
exhaustive within the 0/1 class or raises CapExceeded -- silent truncation
would break soundness downstream.  The solver never enumerates: its
oracles search these families lazily.  Nor does the verifier for orders,
whose oracles' answers carry flow certificates; the enumeration serves
the verifier's cross-check of preference CNFs, `ordineq enumerate-types`,
`scripts/oracle_agreement.py` and the tests.  The
largest value of a linear function of u over a space, which also decides
entailment, is the question of `equilibrium.make_oracle`'s oracles.
"""

from __future__ import annotations

from .errors import CapExceeded, UnsupportedSpace
from .games import PartialOrder, PreferenceCnf, TotalOrder, TypeSpaceSpec, validate_space

DEFAULT_CAP = 2**20


def enumerate_extreme_types(
    spec: TypeSpaceSpec, outcomes: tuple[str, ...]
) -> list[dict[str, int]]:
    """All 0/1 `int` utility vectors consistent with the (validated) space.

    TotalOrder yields the |O|+1 threshold vectors directly; PartialOrder and
    PreferenceCnf filter the 2^|O| candidates, at most DEFAULT_CAP of them.
    """
    validate_space(spec, outcomes)
    if isinstance(spec, TotalOrder):
        vectors = []
        for k in range(len(spec.order) + 1):
            top = set(spec.order[:k])
            vectors.append({o: int(o in top) for o in outcomes})
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
        {o: mask >> k & 1 for k, o in enumerate(outcomes)}
        for mask in range(2 ** len(outcomes))
        if all(mask & left or mask & right != right for left, right in masks)
    ]
