import random
from fractions import Fraction

import pytest

from conftest import closure_brute_force
from ordineq.errors import ValidationError
from ordineq.flow import ClosureNetwork, FlowNetwork, max_flow

ZERO = Fraction(0)
ONE = Fraction(1)


def _solve(items, values, implications):
    """A fresh closure network's (accepted, total, flow) for the values,
    given by item."""
    return ClosureNetwork(items, implications).solve([values[it] for it in items])


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
    accepted, total, flow = _solve(
        ("e1", "e2"),
        {"e1": Fraction(1), "e2": Fraction(-2)},
        (("e1", "e2"),),
    )
    assert accepted == frozenset()
    assert total == ZERO
    assert flow == {("e1", "e2"): ONE}


def test_closure_worthwhile_loss():
    accepted, total, flow = _solve(
        ("e1", "e2"),
        {"e1": Fraction(1), "e2": Fraction(-1, 2)},
        (("e1", "e2"),),
    )
    assert accepted == frozenset({"e1", "e2"})
    assert total == Fraction(1, 2)
    assert flow == {("e1", "e2"): Fraction(1, 2)}


def test_closure_all_positive():
    accepted, total, flow = _solve(
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
    accepted, total, flow = _solve(
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
        accepted, total, flow = _solve(items, values, implications)
        # accepted must itself be implication-closed and have the right value
        for a, b in implications:
            assert not (a in accepted and b not in accepted)
        assert total == sum((values[it] for it in accepted), ZERO)
        _, best = closure_brute_force(items, values, implications)
        assert total == best, f"trial {trial}"
        assert total >= ZERO
        _check_certificate(values, implications, total, flow)


def _check_certificate(values, implications, total, flow) -> None:
    """The flow on the implication arcs bounds the weight by `total`."""
    net = dict(values)
    for (a, b), y in flow.items():
        assert y > 0 and (a, b) in implications and a != b
        net[a] -= y
        net[b] += y
    assert sum(v for v in net.values() if v > 0) == total


def _values(rng: random.Random, n: int) -> list:
    """Random item values, a mix of ints and `Fraction`s; some vectors are
    all zero, all positive or all negative."""
    shape = rng.choice(("mixed", "mixed", "mixed", "zero", "positive", "negative"))
    low, high = {"mixed": (-6, 6), "zero": (0, 0), "positive": (1, 6), "negative": (-6, -1)}[shape]
    draws = (rng.randint(low, high) for _ in range(n))
    return [v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 4)) for v in draws]


def test_a_reused_network_answers_as_a_fresh_one():
    """One network per item set answers 300 value vectors in a row, each
    exactly as a network built for it alone: the same accepted set, total
    and flow.  The accepted set is the minimal maximum-weight closure, the
    first maximum of the subset enumeration, and the flow certifies the
    total.  The implications hold a cycle, a pair listed twice and a
    self-pair."""
    rng = random.Random(27)
    for n in (3, 5, 7):
        items = tuple(f"e{k}" for k in range(n))
        implications = [tuple(rng.sample(items, 2)) for _ in range(n)]
        implications += [(items[0], items[1]), (items[1], items[2]), (items[2], items[0])]
        implications += [implications[0], (items[1], items[1])]
        network = ClosureNetwork(items, implications)
        for trial in range(300):
            values = _values(rng, n)
            answer = network.solve(values)
            assert answer == ClosureNetwork(items, implications).solve(values), f"n={n}, trial {trial}"
            accepted, total, flow = answer
            by_item = dict(zip(items, values))
            assert (accepted, total) == closure_brute_force(items, by_item, implications)
            _check_certificate(by_item, implications, total, flow)


def test_networks_are_validated_when_built():
    with pytest.raises(ValidationError, match="negative capacity"):
        FlowNetwork(2, 0, 1, ((0, 1, Fraction(-1)),))
    with pytest.raises(ValidationError, match="out of range"):
        FlowNetwork(2, 0, 1, ((0, 2, ONE),))
    with pytest.raises(ValidationError, match="source equals sink"):
        FlowNetwork(2, 1, 1, ((0, 1, ONE),))
    with pytest.raises(ValidationError, match="duplicate items"):
        ClosureNetwork(("a", "b", "a"), ())
    with pytest.raises(ValidationError, match="unknown item"):
        ClosureNetwork(("a", "b"), (("a", "c"),))
    with pytest.raises(ValidationError, match="3 values for 2 items"):
        ClosureNetwork(("a", "b"), (("a", "b"),)).solve([ONE, ONE, -ONE])
