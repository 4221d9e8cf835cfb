"""Exact max-flow / min-cut, and maximum-weight closure for the
partial-order oracle: `max_flow`, Edmonds-Karp on a `FlowNetwork` compiled
once, and a `ClosureNetwork`, Picard's network of one closure problem
(1976), solved for each new set of item values on the same arcs.
"""

from __future__ import annotations

from collections import Counter
from numbers import Rational
from typing import Optional, Sequence

from .errors import ValidationError


class FlowNetwork:
    """Nodes 0..num_nodes-1 and `edges` (from, to, capacity), validated and
    compiled once.  Residual arcs 2k and 2k + 1 join the k-th node pair in
    order of first appearance, 2k in its first direction, so arc a's
    reverse is a ^ 1: parallel edges merge, and antiparallel ones share a
    pair.  `arcs[a]` is arc a's (from, to), `capacity[a]` its summed
    capacity, and `adj[u]` lists (to, arc) for the arcs out of u."""

    def __init__(self, num_nodes: int, source: int, sink: int, edges: Sequence[tuple[int, int, Rational]]):
        if source == sink:
            raise ValidationError("source equals sink")
        self.num_nodes, self.source, self.sink, self.edges = num_nodes, source, sink, tuple(edges)
        self.arcs: list[tuple[int, int]] = []
        self.arc_of: dict[tuple[int, int], int] = {}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        self.capacity: list[Rational] = []
        for u, v, cap in self.edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if cap < 0:
                raise ValidationError(f"negative capacity on ({u},{v})")
            if (u, v) not in self.arc_of:
                for arc in ((u, v), (v, u)):
                    self.arc_of[arc] = len(self.arcs)
                    self.adj[arc[0]].append((arc[1], len(self.arcs)))
                    self.arcs.append(arc)
                    self.capacity.append(0)
            self.capacity[self.arc_of[u, v]] += cap


def max_flow(
    net: FlowNetwork, capacity: Optional[Sequence[Rational]] = None
) -> tuple[Rational, frozenset[int], dict[tuple[int, int], Rational]]:
    """(flow value, source side of a minimum cut, flow) under `capacity`,
    one per residual arc, by default the network's own.  The source side is
    what the final residual network reaches from the source, the smallest
    of any minimum cut whatever the augmenting order.  The flow maps each
    arc (u, v) to its net flow where positive, so at most one of (u, v) and
    (v, u) carries flow."""
    capacity = net.capacity if capacity is None else capacity
    residual = list(capacity)
    source, sink, adj, arcs = net.source, net.sink, net.adj, net.arcs
    value = 0
    while True:
        into: list[Optional[int]] = [None] * net.num_nodes  # the arc each node was reached by
        into[source] = -1  # reached, by no arc
        queue = [source]
        for u in queue:  # the loop also takes the nodes appended to the queue
            if into[sink] is not None:
                break
            for v, a in adj[u]:
                if into[v] is None and residual[a] > 0:
                    into[v] = a
                    queue.append(v)
        if into[sink] is None:
            break
        path = []
        v = sink
        while v != source:
            path.append(into[v])
            v = arcs[into[v]][0]
        bottleneck = min(residual[a] for a in path)
        for a in path:
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
        value += bottleneck
    flow = {arc: c - r for arc, c, r in zip(arcs, capacity, residual) if c > r}
    return value, frozenset(v for v, a in enumerate(into) if a is not None), flow


class ClosureNetwork:
    """Maximum-weight subsets of `items` closed under the `implications`
    (a, b), accepting a forces accepting b, by Picard's min-cut reduction,
    built once for any number of item values (`solve`).  Of n items, item k
    is node k, the source node n and the sink n + 1.  Item k's arc from the
    source is residual arc 4k and its arc to the sink 4k + 2; an arc per
    implication a != b follows.  A positive value is its item's source
    capacity, a negative one's negation its sink capacity, and an
    implication arc carries one above the positive values' sum per time it
    is listed, more than every source arc together, so no minimum cut
    crosses it."""

    def __init__(self, items: Sequence[str], implications: Sequence[tuple[str, str]]):
        index = {item: k for k, item in enumerate(items)}
        if len(index) != len(items):
            raise ValidationError("duplicate items")
        for a, b in implications:
            if a not in index or b not in index:
                raise ValidationError(f"implication ({a},{b}) references unknown item")
        n = len(items)
        self.items = tuple(items)
        pairs = [(index[a], index[b]) for a, b in implications if a != b]
        edges = [e for k in range(n) for e in ((n, k, 0), (k, n + 1, 0))]
        self.net = FlowNetwork(n + 2, n, n + 1, edges + [(u, v, 0) for u, v in pairs])
        self.multiplicity = Counter(self.net.arc_of[pair] for pair in pairs)

    def solve(
        self, values: Sequence[Rational]
    ) -> tuple[frozenset[str], Rational, dict[tuple[str, str], Rational]]:
        """(accepted, total, y) for the values, in item order: the minimal
        maximum-weight closure, its weight, and the flow y > 0 on the
        implication arcs (a, b).

        A minimum cut's source side is the source and a closure S, of
        capacity the positive values' sum less S's weight.  `max_flow`'s is
        the smallest, so S is the minimal maximum-weight closure, which is
        unique.  The empty set is closed, so total >= 0.  y proves total an
        upper bound over every x in [0,1]^items with x_a <= x_b for each
        implication: adding y_ab (x_b - x_a) >= 0 for each arc turns
        sum_v values[v] x_v into sum_v c_v x_v, c_v = values[v] + (y into v)
        - (y out of v), at most the sum of the positive c_v.  Flow
        conservation makes c_v the unused capacity of v's source arc, or
        minus that of its sink arc, so that sum is the positive values less
        the flow value: total.
        """
        items, n = self.items, len(self.items)
        if len(values) != n:
            raise ValidationError(f"{len(values)} values for {n} items")
        capacity = [0] * len(self.net.arcs)
        positive_total = 0
        for k, v in enumerate(values):
            if v > 0:
                capacity[4 * k] = v
                positive_total += v
            elif v < 0:
                capacity[4 * k + 2] = -v
        for a, times in self.multiplicity.items():
            capacity[a] = times * (positive_total + 1)
        cut, source_side, flow = max_flow(self.net, capacity)
        accepted = [k for k in range(n) if k in source_side]
        total = sum([values[k] for k in accepted])
        if total != positive_total - cut:
            raise AssertionError(f"closure weight {total} disagrees with the min cut")
        # Every arc between two items is an implication arc.
        y = {(items[u], items[v]): f for (u, v), f in flow.items() if u < n and v < n}
        return frozenset([items[k] for k in accepted]), total, y
