import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    deviation_gain,
    distribution_shadow_partial,
    gain_vector,
    lp_vertices,
    partial_order_closure,
    stochastic_dominance,
    upward_closed_vectors,
)
from ordineq import equilibrium as eq
from ordineq import verifier
from ordineq.errors import UnknownOutcome, ValidationError
from ordineq.fixture_suite import load_game
from ordineq.games import (
    FiniteTypes,
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
)
from ordineq.linprog import FEASIBLE, GE, LE, LinearProgram, constraint, lp_solve
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import enumerate_extreme_types, satisfies_space

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _layout_size(game: GameForm) -> int:
    return len(list(profiles_of(game))) + sum(
        len(list(opponents_profiles_of(game, i)))
        for i in range(game.num_players)
    )


def test_variable_count_matches_contract():
    for name in ("matching_pennies_symmetric", "prisoners_dilemma_rich"):
        game, _, _ = load_game(name)
        lp, layout = eq.build_lp1(game, [])
        assert lp.num_vars == _layout_size(game)


def test_base_lp_is_always_feasible():
    game, _, _ = load_game("matching_pennies_symmetric")
    lp, _ = eq.build_lp1(game, [])
    assert lp_solve(lp).status == FEASIBLE


def test_finite_separation_none_iff_no_type_gains():
    """The finite oracle reports a violation exactly when some listed type
    gains by deviating, and then the largest such gain, with its type."""
    game, _, _ = load_game("matching_pennies_symmetric")
    space = FiniteTypes(
        (
            {"o1": ONE, "o2": ZERO},
            {"o1": ZERO, "o2": ONE},
            {"o1": HALF, "o2": HALF},
        )
    )
    rng = random.Random(5)
    hits = misses = 0
    for _ in range(60):
        i = rng.randrange(2)
        p = _random_point(rng, list(profiles_of(game)))
        q_i = _random_point(rng, list(opponents_profiles_of(game, i)))
        for a in game.action_sets[i]:
            gains = [deviation_gain(game, i, a, u, p, q_i) for u in space.types]
            v = eq.separate(space, game.outcomes, gain_vector(game, i, a, p, q_i))
            if max(gains) <= 0:
                assert v is None
                misses += 1
            else:
                amount, witness = v
                assert amount == max(gains)
                assert witness == space.types[gains.index(max(gains))]
                hits += 1
    assert hits and misses


def test_asymmetric_pennies_infeasible_with_proof_types():
    """The five-step nonexistence argument, replayed with the exact 0/1
    witness types it uses, already rules out every equilibrium."""
    game, _, _ = load_game("matching_pennies_asymmetric")

    def vec(ones):
        return {o: ONE if o in ones else ZERO for o in game.outcomes}

    player1 = FiniteTypes(
        (
            vec({"o11", "o12", "o22"}),  # utility 0 only on o21
            vec({"o11"}),  # cares only about the top outcome
            vec({"o11", "o22"}),
        )
    )
    player2 = FiniteTypes(
        (
            vec({"o12", "o21", "o22"}),  # utility 0 only on o11
            vec({"o21"}),
            vec({"o21", "o12"}),
        )
    )
    assert eq.solve(game, (player1, player2), eq.Eore()).answer is False


def test_single_outcome_game_trivially_feasible():
    game = GameForm(
        (("a1", "a2"), ("b1", "b2")),
        ("o",),
        {("a1", "b1"): "o", ("a1", "b2"): "o", ("a2", "b1"): "o", ("a2", "b2"): "o"},
    )
    space = FiniteTypes(({"o": ONE},))
    res = eq.solve(game, (space, space), eq.Eore())
    assert res.answer
    assert verifier.verify(game, (space, space), res.profile).is_equilibrium


def test_total_order_feasibility_matches_dominance():
    """The solver's yes on symmetric pennies is accepted by the verifier,
    and its on-path outcome distribution stochastically dominates every
    deviation's, checked by the reference prefix-sum test."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    res = eq.solve(game, spaces, eq.Eore())
    assert res.answer
    assert verifier.verify(game, spaces, res.profile).is_equilibrium
    on_path = outcome_distribution(game, res.profile.p)
    for i, spec in enumerate(spaces):
        for a in game.action_sets[i]:
            dev = {}
            for opp, w in res.profile.q[i].items():
                o = game.outcome_of(game.insert(i, a, opp))
                dev[o] = dev.get(o, ZERO) + w
            assert stochastic_dominance(spec, on_path, dev)


def test_total_order_constraints_infeasible_for_asymmetric_pennies():
    game, spaces, _ = load_game("matching_pennies_asymmetric")
    assert eq.solve(game, spaces, eq.Eore()).answer is False
    # With no equilibrium at all, no cell can carry on-path mass.
    for cell in profiles_of(game):
        assert eq.solve(game, spaces, eq.Sire(cell)).answer is False


# ---------------------------------------------------------------------------
# Separation oracles


def test_partial_oracle_silent_on_zero_one_shadow():
    game, spaces, _ = load_game("distribution_preference")
    p = {("Top", "Left"): ONE}
    q1 = {("Center",): HALF, ("Right",): HALF}
    shadow = distribution_shadow_partial(spaces[0])
    assert set(shadow.pairs) == {("o11", "o22"), ("o11", "o23")}
    gain = gain_vector(game, 0, "Down", p, q1)
    assert eq.separation_oracle_partial(shadow, game.outcomes, gain) is None


def test_dist_oracle_finds_the_gap():
    game, spaces, _ = load_game("distribution_preference")
    p = {("Top", "Left"): ONE}
    q1 = {("Center",): HALF, ("Right",): HALF}
    v = eq.separation_oracle_dist(spaces[0], game.outcomes, gain_vector(game, 0, "Down", p, q1))
    assert v is not None
    amount, witness = v
    assert amount >= Fraction(1, 20)
    # the reported amount is exactly the deviation gain of its witness
    assert deviation_gain(game, 0, "Down", witness, p, q1) == amount


def test_oracle_silent_when_deviation_changes_nothing():
    game, _, _ = load_game("matching_pennies_symmetric")
    # q_{-1} and p produce the same outcome distribution under the deviation
    p = {("Top", "Left"): ONE}
    q1 = {("Left",): ONE}
    gain = gain_vector(game, 0, "Top", p, q1)
    assert eq.separation_oracle_partial(PartialOrder(()), game.outcomes, gain) is None


def test_partial_oracle_reproduces_nonexistence_witness():
    game, _, _ = load_game("matching_pennies_asymmetric")
    # player 2 dislikes only o11; deviating to Right always escapes it
    p = {("Top", "Left"): ONE}
    q2 = {("Top",): ONE}
    spec = PartialOrder(
        (("o12", "o11"), ("o21", "o11"), ("o22", "o11"))
    )
    v = eq.separation_oracle_partial(spec, game.outcomes, gain_vector(game, 1, "Right", p, q2))
    assert v is not None
    amount, witness = v
    # the maximizing up-set avoids o11 and contains the escape outcome o12;
    # filling in the other two outcomes changes nothing, so both the minimal
    # witness and the all-but-o11 vector are maximizers
    assert witness["o11"] == ZERO
    assert witness["o12"] == ONE
    assert amount == ONE


def test_constant_utility_constraints_mean_no_violation():
    game, _, _ = load_game("matching_pennies_asymmetric")
    outs = game.outcomes
    pairs = tuple(
        (a, b) for a in outs for b in outs if a != b
    )
    spec = PartialOrder(pairs)
    rng = random.Random(1)
    for _ in range(10):
        p = {("Top", "Left"): HALF, ("Bottom", "Right"): HALF}
        q = {("Left",): Fraction(rng.randint(0, 4), 4)}
        q[("Right",)] = ONE - q[("Left",)]
        for a in game.action_sets[0]:
            gain = gain_vector(game, 0, a, p, q)
            assert eq.separation_oracle_partial(spec, game.outcomes, gain) is None


def test_partial_oracle_matches_up_set_brute_force():
    """200 random (game, p, q, player, deviation) tuples: the closure
    oracle's maximum violation equals the brute-force maximum over all
    upward-closed 0/1 vectors, exactly."""
    rng = random.Random(2026)
    trials = 0
    while trials < 200:
        game, spaces = random_game(
            rng.randint(0, 10**9), max_actions=3, max_outcomes=6
        )
        for i, spec in enumerate(spaces):
            p = _random_point(rng, list(profiles_of(game)))
            q_i = _random_point(rng, list(opponents_profiles_of(game, i)))
            deviation = rng.choice(game.action_sets[i])
            gain = gain_vector(game, i, deviation, p, q_i)
            v = eq.separation_oracle_partial(spec, game.outcomes, gain)
            best = max(
                deviation_gain(game, i, deviation, u, p, q_i)
                for u in upward_closed_vectors(game.outcomes, spec.pairs)
            )
            if v is None:
                assert best <= ZERO
            else:
                assert v[0] == best
            trials += 1


def test_total_oracle_matches_closure_and_enumeration():
    """200 random (game, p, q, player, deviation) tuples: the prefix scan
    returns the witness and amount of the closure oracle on the order's
    chain, and the brute-force maximum over the threshold vectors."""
    rng = random.Random(2027)
    trials = hits = 0
    while trials < 200:
        game, spaces = random_game(
            rng.randint(0, 10**9), max_actions=3, max_outcomes=6, kind="total_order"
        )
        for i, spec in enumerate(spaces):
            p = _random_point(rng, list(profiles_of(game)))
            q_i = _random_point(rng, list(opponents_profiles_of(game, i)))
            deviation = rng.choice(game.action_sets[i])
            chain = PartialOrder(tuple(zip(spec.order, spec.order[1:])))
            gain = gain_vector(game, i, deviation, p, q_i)
            v = eq.separation_oracle_total(spec, game.outcomes, gain)
            assert v == eq.separation_oracle_partial(chain, game.outcomes, gain)
            best = max(
                deviation_gain(game, i, deviation, u, p, q_i)
                for u in enumerate_extreme_types(spec, game.outcomes)
            )
            if v is None:
                assert best <= ZERO
            else:
                assert v[0] == best
                hits += 1
            trials += 1
    assert hits


def test_cnf_oracle_matches_enumeration():
    """200 random (CNF, p, q, player, deviation) tuples, plus an empty
    clause, no clauses, a unit clause and repeated atoms on each game: the
    branch-and-bound oracle's amount is the brute-force maximum over the
    enumerated 0/1 models, it returns None exactly when that maximum is
    not positive, and its witness is a model."""
    rng = random.Random(2029)
    hits = misses = 0
    for _ in range(200):
        game, spaces = random_game(
            rng.randint(0, 10**9), max_actions=3, max_outcomes=8, kind="preference_cnf"
        )
        a, b, c = (rng.choice(game.outcomes) for _ in range(3))
        specs = spaces + (
            PreferenceCnf(()),
            PreferenceCnf((((a, b),), (), ((b, c),))),
            PreferenceCnf((((a, b),), ((b, c), (b, c), (c, a)), ((a, b), (c, a)))),
        )
        point = random_profile_point(rng, game)
        for spec in specs:
            i = rng.randrange(game.num_players)
            deviation = rng.choice(game.action_sets[i])
            gain = gain_vector(game, i, deviation, point.p, point.q[i])
            v = eq.separate(spec, game.outcomes, gain)
            best = max(
                (
                    deviation_gain(game, i, deviation, u, point.p, point.q[i])
                    for u in enumerate_extreme_types(spec, game.outcomes)
                ),
                default=None,
            )
            if v is None:
                assert best is None or best <= ZERO
                misses += 1
            else:
                amount, witness = v
                assert amount == best
                assert satisfies_space(witness, spec, game.outcomes)
                hits += 1
    assert hits > 100 and misses > 100


def test_separate_preference_cnf_matches_enumeration():
    game, spaces, _ = load_game("preference_cnf_example")
    i = next(i for i, spec in enumerate(spaces) if isinstance(spec, PreferenceCnf))
    models = enumerate_extreme_types(spaces[i], game.outcomes)
    rng = random.Random(31)
    hits = 0
    for _ in range(40):
        point = random_profile_point(rng, game)
        for deviation in game.action_sets[i]:
            gain = gain_vector(game, i, deviation, point.p, point.q[i])
            v = eq.separate(spaces[i], game.outcomes, gain)
            best = max(
                deviation_gain(game, i, deviation, u, point.p, point.q[i]) for u in models
            )
            assert (ZERO if v is None else v[0]) == best
            hits += v is not None
    assert hits


def _random_point(rng, support):
    weights = [Fraction(rng.randint(0, 4)) for _ in support]
    total = sum(weights)
    if total == 0:
        return {support[0]: ONE}
    return {s: w / total for s, w in zip(support, weights) if w != 0}


# ---------------------------------------------------------------------------
# solve() on the bundled games


def test_solve_preference_cnf_matches_extreme_types():
    """Over the fixture's satisfiable CNF and over the same game with the
    unsatisfiable clause (o0 >= o1) added, solving over the CNF space gives
    the answer and value of solving over its enumerated 0/1 models."""
    game, spaces, _ = load_game("preference_cnf_example")
    cnf, order = spaces
    answers = set()
    for spec in (cnf, PreferenceCnf(cnf.clauses + ((("o0", "o1"),),))):
        models = FiniteTypes(tuple(enumerate_extreme_types(spec, game.outcomes)))
        queries = [eq.Eore()] + [eq.Sire(cell) for cell in profiles_of(game)]
        for query in queries:
            lazy = eq.solve(game, (spec, order), query)
            explicit = eq.solve(game, (models, order), query)
            assert (lazy.answer, lazy.value) == (explicit.answer, explicit.value)
            answers.add(lazy.answer)
    assert answers == {False, True}


def test_solve_validates_its_spaces():
    """A total order that leaves out an outcome, and a listed type over an
    outcome the game lacks, are rejected before any LP is solved."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    with pytest.raises(ValidationError):
        eq.solve(game, (TotalOrder(("o1",)), spaces[1]), eq.Eore())
    with pytest.raises(UnknownOutcome):
        eq.solve(game, (FiniteTypes(({"o11": ONE + ONE},)), spaces[1]), eq.Eore())


def test_find_pure_unmediated_validates_its_spaces():
    """The probes `solve` rejects are rejected here too, instead of reading
    the order as entailing every preference or ending in a KeyError."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    with pytest.raises(ValidationError):
        eq.find_pure_unmediated(game, (TotalOrder(("o1",)), spaces[1]))
    with pytest.raises(UnknownOutcome):
        eq.find_pure_unmediated(game, (FiniteTypes(({"o11": ONE + ONE},)), spaces[1]))


def test_existence_answers_on_fixtures():
    no_game, no_spaces, _ = load_game("matching_pennies_asymmetric")
    assert not eq.solve(no_game, no_spaces, eq.Eore()).answer

    yes_game, yes_spaces, _ = load_game("matching_pennies_symmetric")
    res = eq.solve(yes_game, yes_spaces, eq.Eore())
    assert res.answer
    assert verifier.verify(yes_game, yes_spaces, res.profile).is_equilibrium


def test_attainability_of_the_intended_path():
    game, spaces, _ = load_game("coordination_ordinal")
    res = eq.solve(game, spaces, eq.Aare({("Top", "Center"): ONE}))
    assert res.answer
    assert res.profile.p == {("Top", "Center"): ONE}
    assert verifier.verify(game, spaces, res.profile).is_equilibrium


def test_attainability_of_cooperative_mixing():
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    target = {("c1", "c1"): HALF, ("c1", "c2"): HALF}
    res = eq.solve(game, spaces, eq.Aare(target))
    assert res.answer
    assert verifier.verify(game, spaces, res.profile).is_equilibrium


def test_support_query_distinguishes_cells():
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    assert eq.solve(game, spaces, eq.Sire(("c1", "c1"))).answer
    # defect/cooperate cells can never carry on-path mass
    assert not eq.solve(game, spaces, eq.Sire(("d1", "c1"))).answer


def test_objective_query_reports_exact_value():
    game, spaces, _ = load_game("matching_pennies_symmetric")
    g = {
        prof: (ONE if game.outcome_of(prof) == "o1" else ZERO)
        for prof in profiles_of(game)
    }
    from ordineq.games import ObjectiveSpec

    res = eq.solve(game, spaces, eq.Omire(ObjectiveSpec(g, HALF)))
    assert res.answer
    assert res.value == HALF  # both o1 and o2 must get exactly half the mass
    high = eq.solve(game, spaces, eq.Omire(ObjectiveSpec(g, Fraction(3, 4))))
    assert not high.answer


def test_dist_solve_reports_nonexistence():
    # Player 2's space is an unconstrained partial order, so the type
    # "utility 1 exactly on column c" forces all on-path mass into column c
    # -- simultaneously for all three columns.  No equilibrium can exist,
    # and the cutting-plane loop must discover that and terminate.
    game, spaces, _ = load_game("distribution_preference")
    res = eq.solve(game, spaces, eq.Eore())
    assert not res.answer


# ---------------------------------------------------------------------------
# Pure unmediated equilibria


def test_entailment_matches_closure_and_polytope_vertices():
    """Orders entail exactly their transitive closure; a distribution order
    entails u(o) >= u(o2) iff u(o) - u(o2) is nonnegative at every vertex of
    its polytope in [0,1]^O."""
    rng = random.Random(43)
    for kind in ("total_order", "partial_order"):
        for _ in range(30):
            game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=6, kind=kind)
            outcomes = game.outcomes
            for spec in spaces:
                if isinstance(spec, TotalOrder):
                    closure = partial_order_closure(tuple(zip(spec.order, spec.order[1:])), outcomes)
                else:
                    closure = partial_order_closure(spec.pairs, outcomes)
                for o, o2 in itertools.product(outcomes, repeat=2):
                    assert eq.entails_preference(spec, o, o2, outcomes) == ((o, o2) in closure)
    for _ in range(15):
        game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=4, kind="distribution_order")
        outcomes = game.outcomes
        n = len(outcomes)
        for spec in spaces:
            rows = []
            for r1, r2 in spec.pairs:
                rows.append(constraint([r1.get(o, ZERO) - r2.get(o, ZERO) for o in outcomes], GE, 0))
            for k in range(n):
                rows.append(constraint([ONE if j == k else ZERO for j in range(n)], LE, 1))
            vertices = lp_vertices(LinearProgram(n, tuple(rows)))
            for (k, o), (k2, o2) in itertools.product(enumerate(outcomes), repeat=2):
                expected = min(v[k] - v[k2] for v in vertices) >= 0
                assert eq.entails_preference(spec, o, o2, outcomes) == expected


def test_pure_equilibria_of_the_coordination_game():
    game, spaces, _ = load_game("coordination_ordinal")
    pures = eq.find_pure_unmediated(game, spaces)
    assert ("Bottom", "Right") in pures


def test_no_pure_equilibrium_in_symmetric_pennies():
    game, spaces, _ = load_game("matching_pennies_symmetric")
    assert eq.find_pure_unmediated(game, spaces) == []


def test_single_cell_game_is_its_own_equilibrium():
    game = GameForm(
        (("a",), ("b",)),
        ("o",),
        {("a", "b"): "o"},
    )
    spaces = (TotalOrder(("o",)), TotalOrder(("o",)))
    assert eq.find_pure_unmediated(game, spaces) == [("a", "b")]


def test_pure_equilibria_sustained_as_mediated():
    game, spaces, _ = load_game("coordination_ordinal")
    for cell in eq.find_pure_unmediated(game, spaces):
        p = {cell: ONE}
        q = tuple(
            {tuple(a for j, a in enumerate(cell) if j != i): ONE}
            for i in range(game.num_players)
        )
        profile = MediatedProfile(p, q)
        assert verifier.verify(game, spaces, profile).is_equilibrium
