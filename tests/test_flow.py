import random
from fractions import Fraction

from conftest import closure_brute_force
from ordineq.flow import FlowNetwork, closure_solve, max_flow

ZERO = Fraction(0)
ONE = Fraction(1)


def _cut_capacity(net: FlowNetwork, source_side) -> Fraction:
    total = ZERO
    for frm, to, cap in net.edges:
        if frm in source_side and to not in source_side:
            total += cap
    return total


def _check_flow(net: FlowNetwork, value, flow) -> None:
    """The flow respects the merged capacities, is conserved at every inner
    node, leaves the source at `value`, and is positive on its arcs, one
    direction per node pair."""
    capacity = {}
    for frm, to, cap in net.edges:
        capacity[(frm, to)] = capacity.get((frm, to), ZERO) + cap
    excess = [ZERO] * net.num_nodes
    for (frm, to), f in flow.items():
        assert 0 < f <= capacity.get((frm, to), ZERO)
        assert (to, frm) not in flow
        excess[frm] -= f
        excess[to] += f
    assert all(excess[v] == 0 for v in range(net.num_nodes) if v not in (net.source, net.sink))
    assert -excess[net.source] == value == excess[net.sink]


def test_single_edge():
    net = FlowNetwork(num_nodes=2, source=0, sink=1, edges=((0, 1, Fraction(5)),))
    value, cut, flow = max_flow(net)
    assert value == Fraction(5)
    assert cut == frozenset({0})
    assert flow == {(0, 1): Fraction(5)}


def test_bottleneck_path():
    net = FlowNetwork(
        num_nodes=3,
        source=0,
        sink=2,
        edges=((0, 1, Fraction(3)), (1, 2, Fraction(2))),
    )
    value, cut, flow = max_flow(net)
    assert value == Fraction(2)
    assert cut == frozenset({0, 1})
    assert flow == {(0, 1): Fraction(2), (1, 2): Fraction(2)}


def test_closure_forced_loss():
    accepted, total, flow = closure_solve(
        ("e1", "e2"),
        {"e1": Fraction(1), "e2": Fraction(-2)},
        (("e1", "e2"),),
    )
    assert accepted == frozenset()
    assert total == ZERO
    assert flow == {("e1", "e2"): ONE}


def test_closure_worthwhile_loss():
    accepted, total, flow = closure_solve(
        ("e1", "e2"),
        {"e1": Fraction(1), "e2": Fraction(-1, 2)},
        (("e1", "e2"),),
    )
    assert accepted == frozenset({"e1", "e2"})
    assert total == Fraction(1, 2)
    assert flow == {("e1", "e2"): Fraction(1, 2)}


def test_closure_all_positive():
    accepted, total, flow = closure_solve(
        ("e1", "e2"),
        {"e1": Fraction(3), "e2": Fraction(1)},
        (),
    )
    assert accepted == frozenset({"e1", "e2"})
    assert total == Fraction(4)
    assert flow == {}


def test_closure_tolerates_cycles_and_duplicates():
    """The duplicate implication merges and the antiparallel one nets out:
    one flow entry, in the direction the flow goes."""
    accepted, total, flow = closure_solve(
        ("a", "b"),
        {"a": Fraction(2), "b": Fraction(-1)},
        (("a", "b"), ("b", "a"), ("a", "b")),
    )
    assert accepted == frozenset({"a", "b"})
    assert total == Fraction(1)
    assert flow == {("a", "b"): ONE}


def _random_network(rng: random.Random) -> FlowNetwork:
    n = rng.randint(2, 7)
    edges = []
    for _ in range(rng.randint(1, 12)):
        frm, to = rng.sample(range(n), 2)
        edges.append((frm, to, Fraction(rng.randint(0, 6))))
    return FlowNetwork(num_nodes=n, source=0, sink=n - 1, edges=tuple(edges))


def test_max_flow_equals_min_cut_on_random_networks():
    """Also checks the returned flow (`_check_flow`); the random networks
    have parallel and antiparallel edges."""
    rng = random.Random(7)
    for _ in range(200):
        net = _random_network(rng)
        value, cut, flow = max_flow(net)
        assert 0 in cut and net.sink not in cut
        assert value == _cut_capacity(net, cut)
        _check_flow(net, value, flow)


def _random_closure(rng: random.Random):
    n = rng.randint(1, 12)
    items = tuple(f"e{k}" for k in range(n))
    values = {
        it: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for it in items
    }
    implications = tuple(
        tuple(rng.sample(items, 2))
        for _ in range(rng.randint(0, 2 * n) if n >= 2 else 0)
    )
    return items, values, implications


def test_closure_agrees_with_subset_enumeration():
    rng = random.Random(11)
    for trial in range(200):
        items, values, implications = _random_closure(rng)
        accepted, total, flow = closure_solve(items, values, implications)
        # accepted must itself be implication-closed and have the right value
        for a, b in implications:
            assert not (a in accepted and b not in accepted)
        assert total == sum((values[it] for it in accepted), ZERO)
        _, best = closure_brute_force(items, values, implications)
        assert total == best, f"trial {trial}"
        assert total >= ZERO
        # the flow on the implication arcs bounds the weight by `total`
        net = dict(values)
        for (a, b), y in flow.items():
            assert y > 0 and (a, b) in implications and a != b
            net[a] -= y
            net[b] += y
        assert sum(v for v in net.values() if v > 0) == total
