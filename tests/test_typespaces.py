import itertools
import random
from fractions import Fraction

import pytest

from conftest import entails_preference, satisfies_space, upward_closed_vectors
from ordineq import equilibrium
from ordineq.errors import CapExceeded, UnknownOutcome, UnsupportedSpace
from ordineq.fixture_suite import load_game
from ordineq.games import (
    DistributionOrder,
    FiniteTypes,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
)
from ordineq.randgen import random_game
from ordineq.typespaces import enumerate_extreme_types

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def test_total_order_accepts_consistent_cardinal_utilities():
    game, spaces, _ = load_game("matching_pennies_asymmetric")
    # strictly decreasing utilities along player 1's order, scaled into [0,1]
    u = {o: Fraction(4 - k, 4) for k, o in enumerate(spaces[0].order)}
    assert satisfies_space(u, spaces[0], game.outcomes)
    # reversing two utilities breaks the order
    worst, best = spaces[0].order[-1], spaces[0].order[0]
    u[worst], u[best] = u[best], u[worst]
    assert not satisfies_space(u, spaces[0], game.outcomes)


def test_all_zero_satisfies_any_preference_cnf():
    outcomes = ("o0", "o1", "o2", "o3")
    spec = PreferenceCnf(
        ((("o1", "o2"), ("o1", "o3")), (("o0", "o1"),))
    )
    u = {o: ZERO for o in outcomes}
    assert satisfies_space(u, spec, outcomes)


def test_preference_cnf_rejects_violating_vector():
    outcomes = ("o0", "o1", "o2", "o3")
    spec = PreferenceCnf(
        ((("o1", "o2"), ("o1", "o3")), (("o0", "o1"),))
    )
    u = {"o0": ONE, "o1": ZERO, "o2": ONE, "o3": ONE}
    # first clause fails: u(o1) < u(o2) and u(o1) < u(o3)
    assert not satisfies_space(u, spec, outcomes)


def test_finite_space_membership():
    t1 = {"a": ONE, "b": ZERO}
    spec = FiniteTypes((t1,))
    assert satisfies_space(t1, spec, ("a", "b"))
    assert not satisfies_space({"a": ZERO, "b": ZERO}, spec, ("a", "b"))


def test_distribution_pair_checked_exactly():
    spec = DistributionOrder(
        (({"a": ONE}, {"b": Fraction(3, 5), "c": Fraction(2, 5)}),)
    )
    good = {"a": ONE, "b": ONE, "c": ONE}
    assert satisfies_space(good, spec, ("a", "b", "c"))
    bad = {"a": Fraction(2, 5), "b": ONE, "c": ZERO}
    assert not satisfies_space(bad, spec, ("a", "b", "c"))


def test_threshold_vectors_for_two_outcomes():
    spec = TotalOrder(("o1", "o2"))
    vectors = enumerate_extreme_types(spec, ("o1", "o2"))
    as_tuples = {(u["o1"], u["o2"]) for u in vectors}
    assert as_tuples == {(ZERO, ZERO), (ONE, ZERO), (ONE, ONE)}


def test_chain_partial_order_has_prefix_vectors():
    spec = PartialOrder((("a", "b"), ("b", "c")))
    vectors = enumerate_extreme_types(spec, ("a", "b", "c"))
    assert len(vectors) == 4


def test_antichain_has_all_vectors():
    spec = PartialOrder(())
    vectors = enumerate_extreme_types(spec, ("a", "b"))
    assert len(vectors) == 4


def test_extreme_types_satisfy_their_space():
    rng = random.Random(13)
    outcomes = tuple("abcdef")
    for _ in range(30):
        pairs = tuple(
            tuple(rng.sample(outcomes, 2)) for _ in range(rng.randint(0, 8))
        )
        spec = PartialOrder(pairs)
        for u in enumerate_extreme_types(spec, outcomes):
            assert satisfies_space(u, spec, outcomes)


def test_extreme_type_count_matches_up_set_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 8)
        outcomes = tuple(f"w{k}" for k in range(n))
        pairs = tuple(
            tuple(rng.sample(outcomes, 2))
            for _ in range(rng.randint(0, n) if n >= 2 else 0)
        )
        spec = PartialOrder(pairs)
        got = enumerate_extreme_types(spec, outcomes)
        expected = upward_closed_vectors(outcomes, pairs)
        assert len(got) == len(expected)


@pytest.mark.parametrize("kind", ["partial_order", "preference_cnf"])
def test_enumeration_is_complete(kind):
    """The enumeration lists every 0/1 vector the space accepts, each once.
    The CNF spaces include an empty clause (no model) and repeated atoms."""
    rng = random.Random(41)
    for _ in range(30):
        game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=7, kind=kind)
        outcomes = game.outcomes
        extra = ()
        if kind == "preference_cnf":
            a, b = outcomes[:2]
            extra = (
                PreferenceCnf(spaces[0].clauses + ((),)),
                PreferenceCnf(spaces[0].clauses + (((a, b), (a, b), (b, a)), ((b, a), (b, a)))),
            )
        for spec in spaces + extra:
            got = [tuple(u[o] for o in outcomes) for u in enumerate_extreme_types(spec, outcomes)]
            expected = {
                bits
                for bits in itertools.product((ZERO, ONE), repeat=len(outcomes))
                if satisfies_space(dict(zip(outcomes, bits)), spec, outcomes)
            }
            assert len(got) == len(set(got))
            assert set(got) == expected


def test_enumeration_cap_is_hard():
    """2^21 candidates exceed DEFAULT_CAP; the enumeration raises before it
    lists any."""
    outcomes = tuple(f"w{k}" for k in range(21))
    with pytest.raises(CapExceeded):
        enumerate_extreme_types(PartialOrder(()), outcomes)


def test_enumeration_rejects_unsupported_kinds():
    with pytest.raises(UnsupportedSpace):
        enumerate_extreme_types(
            DistributionOrder(()), ("a", "b")
        )


def test_entailment_via_total_order_closure():
    game, spaces, _ = load_game("matching_pennies_asymmetric")
    assert entails_preference(spaces[0], "o11", "o21", game.outcomes)
    assert not entails_preference(spaces[0], "o21", "o11", game.outcomes)


def test_entailment_empty_partial_order():
    assert not entails_preference(PartialOrder(()), "a", "b", ("a", "b"))


def test_entailment_distribution_order_counterexample():
    # a >= 1/2 b + 1/2 c does not entail a >= b: u(a)=1/2, u(b)=1, u(c)=0
    spec = DistributionOrder((({"a": ONE}, {"b": HALF, "c": HALF}),))
    assert not entails_preference(spec, "a", "b", ("a", "b", "c"))
    witness = {"a": HALF, "b": ONE, "c": ZERO}
    assert satisfies_space(witness, spec, ("a", "b", "c"))
    assert witness["a"] < witness["b"]


def test_entailment_distribution_order_positive_case():
    spec = DistributionOrder((({"a": ONE}, {"b": ONE}),))
    assert entails_preference(spec, "a", "b", ("a", "b"))


def test_entailment_reflexive(monkeypatch):
    """o >= o holds without an oracle call, once o is known to be an outcome."""

    def no_oracle(*args):
        raise AssertionError("oracle called")

    monkeypatch.setattr(equilibrium, "make_oracle", no_oracle)
    for spec in (
        TotalOrder(("a", "b")),
        PartialOrder(()),
        DistributionOrder(()),
        FiniteTypes(({"a": ZERO, "b": ONE},)),
    ):
        assert entails_preference(spec, "a", "a", ("a", "b"))
    with pytest.raises(UnknownOutcome):
        entails_preference(PartialOrder(()), "c", "c", ("a", "b"))


def test_entailment_total_order_iff_precedes():
    order = ("w0", "w1", "w2", "w3")
    spec = TotalOrder(order)
    for o, o2 in itertools.product(order, repeat=2):
        expected = order.index(o) <= order.index(o2)
        assert entails_preference(spec, o, o2, order) == expected


def test_entailment_over_preference_cnf_equals_entailment_over_its_models():
    """On random CNFs, plus an empty clause and repeated atoms, every
    preference the CNF entails is entailed by the list of its 0/1 models,
    and no other."""
    rng = random.Random(202)
    answers = []
    for _ in range(60):
        game, spaces = random_game(
            rng.randint(0, 10**9), max_actions=2, max_outcomes=5, kind="preference_cnf"
        )
        outcomes = game.outcomes
        a, b = rng.choice(outcomes), rng.choice(outcomes)
        for spec in (
            spaces[0],
            PreferenceCnf(spaces[0].clauses + ((),)),
            PreferenceCnf((((a, b), (a, b)),)),
        ):
            models = FiniteTypes(tuple(enumerate_extreme_types(spec, outcomes)))
            for o, o2 in itertools.product(outcomes, repeat=2):
                entailed = entails_preference(spec, o, o2, outcomes)
                assert entailed == entails_preference(models, o, o2, outcomes)
                answers.append(entailed)
    assert len(answers) > 1000 and set(answers) == {False, True}


def test_unknown_outcomes_are_rejected_before_any_lookup():
    """Entailment and enumeration validate the space: an outcome the space
    names but the outcome tuple lacks is an UnknownOutcome, not a KeyError."""
    outcomes = ("o1", "o2")
    with pytest.raises(UnknownOutcome):
        entails_preference(DistributionOrder((({"o3": ONE}, {"o1": ONE}),)), "o1", "o2", outcomes)
    with pytest.raises(UnknownOutcome):
        entails_preference(FiniteTypes(({"o1": ONE, "o3": ZERO},)), "o1", "o2", outcomes)
    with pytest.raises(UnknownOutcome):
        enumerate_extreme_types(PartialOrder((("o1", "o3"),)), outcomes)
