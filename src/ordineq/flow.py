"""Max-flow / min-cut and maximum-weight closure on small networks.

Edmonds-Karp (BFS shortest augmenting path) with exact rational
capacities.  Networks here have a handful of nodes, so asymptotics are
irrelevant; exactness and the certificates are what matter: the minimum
cut, and the flow itself, whose values on a closure network's
implication arcs are the dual certificate of the closure's weight
(`closure_solve`), which the verifier checks for order spaces.
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


def max_flow(
    net: FlowNetwork,
) -> tuple[Rational, frozenset[int], dict[tuple[int, int], Rational]]:
    """Return (flow value, source side of a minimum cut, flow).

    The returned cut's capacity equals the flow value (max-flow = min-cut
    certificate).  The flow maps each node pair (u, v) to the positive net
    flow from u to v: parallel edges merge, and antiparallel ones net out,
    so at most one of (u, v) and (v, u) carries flow, and never more than
    the capacities of the edges from u to v together.
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
    capacity = dict(residual)

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

    # The residual of (u, v) is its capacity minus the net flow from u to v.
    # Augmenting only updates values, so both dicts list the arcs in one order.
    flow = {arc: c - r for (arc, c), r in zip(capacity.items(), residual.values()) if c > r}
    return value, frozenset(parent), flow


def closure_solve(
    items: tuple[str, ...], values: dict[str, Rational], implications: tuple[tuple[str, str], ...]
) -> tuple[frozenset[str], Rational, dict[tuple[str, str], Rational]]:
    """Maximum-weight subset of `items` closed under the implications (a, b),
    accepting a forces accepting b, via Picard's min-cut reduction (1976),
    with its weight and the flow y > 0 on the implication arcs (a, b).

    An implication arc outweighs every source arc together, so no minimum
    cut crosses it.  The empty set is closed, so the optimum is always >= 0.
    The flow proves the weight an upper bound over every x in [0,1]^items
    with x_a <= x_b for each implication (a, b).  Adding y_ab (x_b - x_a),
    which is >= 0, for each arc turns sum_v values[v] x_v into
    sum_v c_v x_v with c_v = values[v] + (y into v) - (y out of v), at
    most the sum of the positive c_v.  Flow conservation at v makes c_v
    the unused capacity of v's source arc, or minus that of its sink arc,
    so that sum is the positive values minus the flow value: the weight.
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
    cut_value, source_side, flow = max_flow(net)
    accepted = frozenset(item for item in items if index[item] in source_side)
    total = sum(values.get(item, 0) for item in accepted)
    if total != positive_total - cut_value:
        raise AssertionError(f"closure weight {total} disagrees with the min cut")
    # Every arc between two items is an implication arc.
    y = {(items[u], items[v]): f for (u, v), f in flow.items() if u < source and v < source}
    return accepted, total, y
