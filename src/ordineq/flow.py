"""Max-flow / min-cut and maximum-weight closure on small networks.

Edmonds-Karp (BFS shortest augmenting path) with exact rational
capacities.  Networks here have a handful of nodes, so asymptotics are
irrelevant; exactness and the min-cut certificate are what matter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Rational

from .errors import ValidationError


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    source: int
    sink: int
    edges: tuple[tuple[int, int, Rational], ...]  # (from, to, capacity)


def _validate(net: FlowNetwork) -> None:
    if net.source == net.sink:
        raise ValidationError("source equals sink")
    for u, v, cap in net.edges:
        if not (0 <= u < net.num_nodes and 0 <= v < net.num_nodes):
            raise ValidationError(f"edge ({u},{v}) out of range")
        if cap < 0:
            raise ValidationError(f"negative capacity on ({u},{v})")


def max_flow(net: FlowNetwork) -> tuple[Rational, frozenset[int]]:
    """Return (flow value, source side of a minimum cut).

    The returned cut's capacity equals the flow value (max-flow = min-cut
    certificate).
    """
    _validate(net)
    # Residual capacities; parallel edges merge.
    residual: dict[tuple[int, int], Rational] = {}
    adj: dict[int, list[int]] = {u: [] for u in range(net.num_nodes)}
    for u, v, cap in net.edges:
        if (u, v) not in residual:
            adj[u].append(v)
            residual[(u, v)] = 0
        if (v, u) not in residual:
            adj[v].append(u)
            residual[(v, u)] = 0
        residual[(u, v)] += cap

    value = 0
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

    return value, frozenset(parent)


def closure_solve(
    items: tuple[str, ...], values: dict[str, Rational], implications: tuple[tuple[str, str], ...]
) -> tuple[frozenset[str], Rational]:
    """Maximum-weight subset of `items` closed under the implications (a, b),
    accepting a forces accepting b, via Picard's min-cut reduction (1976).

    An implication arc outweighs every source arc together, so no minimum
    cut crosses it.  The empty set is closed, so the optimum is always >= 0.
    """
    index = {item: i for i, item in enumerate(items)}
    if len(index) != len(items):
        raise ValidationError("duplicate items")
    for a, b in implications:
        if a not in index or b not in index:
            raise ValidationError(f"implication ({a},{b}) references unknown item")

    source = len(items)
    sink = source + 1
    edges = []
    positive_total = 0
    for item in items:
        v = values.get(item, 0)
        if v > 0:
            edges.append((source, index[item], v))
            positive_total += v
        elif v < 0:
            edges.append((index[item], sink, -v))
    implication_cap = positive_total + 1
    edges += ((index[a], index[b], implication_cap) for a, b in implications if a != b)

    net = FlowNetwork(len(items) + 2, source, sink, tuple(edges))
    cut_value, source_side = max_flow(net)
    accepted = frozenset(item for item in items if index[item] in source_side)
    total = sum(values.get(item, 0) for item in accepted)
    if total != positive_total - cut_value:
        raise AssertionError(f"closure weight {total} disagrees with the min cut")
    return accepted, total
