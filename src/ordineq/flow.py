"""Max-flow / min-cut and maximum-weight closure on small networks.

Edmonds-Karp (BFS shortest augmenting path) with exact rational
capacities.  Networks here have a handful of nodes, so asymptotics are
irrelevant; exactness and the min-cut certificate are what matter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ValidationError

ZERO = Fraction(0)

#: Capacity marker for +infinity edges.
INF = None


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    source: int
    sink: int
    edges: tuple[tuple[int, int, Optional[Fraction]], ...]  # (from, to, cap); cap None = +inf


def _validate(net: FlowNetwork) -> None:
    if net.source == net.sink:
        raise ValidationError("source equals sink")
    for u, v, cap in net.edges:
        if not (0 <= u < net.num_nodes and 0 <= v < net.num_nodes):
            raise ValidationError(f"edge ({u},{v}) out of range")
        if cap is not None and cap < 0:
            raise ValidationError(f"negative capacity on ({u},{v})")


def max_flow(net: FlowNetwork) -> tuple[Fraction, frozenset[int]]:
    """Return (flow value, source side of a minimum cut).

    The returned cut's capacity equals the flow value (max-flow = min-cut
    certificate).  Raises ValidationError if the flow is unbounded, i.e.
    every s-t cut crosses an infinite-capacity edge.
    """
    _validate(net)
    finite_total = sum((cap for _, _, cap in net.edges if cap is not None), ZERO)
    big = finite_total + 1  # exceeds any finite cut, so never limiting

    # Residual capacities; parallel edges merge.
    residual: dict[tuple[int, int], Fraction] = {}
    adj: dict[int, list[int]] = {u: [] for u in range(net.num_nodes)}
    for u, v, cap in net.edges:
        c = big if cap is None else cap
        if (u, v) not in residual:
            adj[u].append(v)
            residual[(u, v)] = ZERO
        if (v, u) not in residual:
            adj[v].append(u)
            residual[(v, u)] = ZERO
        residual[(u, v)] += c

    value = ZERO
    while True:
        parent: dict[int, int] = {net.source: net.source}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if net.sink not in parent:
            break
        bottleneck = None
        v = net.sink
        while v != net.source:
            u = parent[v]
            c = residual[(u, v)]
            if bottleneck is None or c < bottleneck:
                bottleneck = c
            v = u
        v = net.sink
        while v != net.source:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        value += bottleneck

    if value > finite_total:
        raise ValidationError("flow unbounded: every s-t cut crosses an infinite edge")

    cut = frozenset(parent)
    return value, cut


@dataclass(frozen=True)
class ClosureInstance:
    """Items with values (possibly negative) and implications (a, b):
    accepting a forces accepting b."""

    items: tuple[str, ...]
    values: dict[str, Fraction]
    implications: tuple[tuple[str, str], ...]


def closure_solve(inst: ClosureInstance) -> tuple[frozenset[str], Fraction]:
    """Maximum-weight implication-closed subset, via the min-cut reduction.

    The empty set is closed, so the optimum is always >= 0.
    """
    index = {item: i for i, item in enumerate(inst.items)}
    if len(index) != len(inst.items):
        raise ValidationError("duplicate items")
    for a, b in inst.implications:
        if a not in index or b not in index:
            raise ValidationError(f"implication ({a},{b}) references unknown item")

    source = len(inst.items)
    sink = source + 1
    edges: list[tuple[int, int, Optional[Fraction]]] = []
    positive_total = ZERO
    for item in inst.items:
        v = inst.values.get(item, ZERO)
        if v > 0:
            edges.append((source, index[item], v))
            positive_total += v
        elif v < 0:
            edges.append((index[item], sink, -v))
    for a, b in inst.implications:
        if a != b:
            edges.append((index[a], index[b], INF))

    net = FlowNetwork(len(inst.items) + 2, source, sink, tuple(edges))
    cut_value, source_side = max_flow(net)
    accepted = frozenset(item for item in inst.items if index[item] in source_side)
    total = sum((inst.values.get(item, ZERO) for item in accepted), ZERO)
    if total != positive_total - cut_value:
        raise AssertionError(f"closure weight {total} disagrees with the min cut")
    return accepted, total
