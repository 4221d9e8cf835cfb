import random
from fractions import Fraction

import pytest

from conftest import (
    averaging_dominates,
    best_response_value,
    brute_verify,
    gain_vector,
    point_profile,
    stochastic_dominance,
)
from ordineq import verifier
from ordineq.cli import EXIT_NO, EXIT_YES, run_cli
from ordineq.errors import UnknownOutcome, ValidationError
from ordineq.equilibrium import Eore, solve
from ordineq.fixture_suite import load_game, load_profile
from ordineq.gamedoc import serialize_game, serialize_profile
from ordineq.games import (
    FiniteTypes,
    GameForm,
    MediatedProfile,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    outcome_distribution,
    profiles_of,
)
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import satisfies_space

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# stochastic dominance


def test_dominance_is_reflexive():
    order = TotalOrder(("a", "b", "c"))
    d = {"a": HALF, "b": Fraction(1, 4), "c": Fraction(1, 4)}
    assert stochastic_dominance(order, d, d)


def test_dominance_point_masses():
    order = TotalOrder(("a", "b"))
    da, db = {"a": ONE}, {"b": ONE}
    assert stochastic_dominance(order, da, db)
    assert not stochastic_dominance(order, db, da)


def test_dominance_incomparable_mixtures():
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    order = spaces[0]
    d1 = {"o_cc1": HALF, "o_cc2": HALF}
    d2 = {"o_dd11": HALF, "o_dd12": HALF}
    # d2 puts mass on o_dc-side prefixes... compare the actual prefix sums:
    # the most-preferred outcome o_dc gets 0 in both, but o_cc1's prefix
    # gives d1 1/2 vs d2 0, while the o_dd11 prefix gives d1 1/2 vs d2 1/2
    # and the o_cc2 prefix gives d1 1 vs d2 1/2 -- yet neither dominates the
    # other once the o_dd11-only prefix is reached from d2's side.
    assert not stochastic_dominance(order, d2, d1)
    # and d1 does dominate d2 here iff every prefix agrees; check directly
    expected = _prefix_dominates(order.order, d1, d2)
    assert stochastic_dominance(order, d1, d2) == expected


def _prefix_dominates(order, d1, d2):
    for k in range(1, len(order) + 1):
        top = order[:k]
        if sum((d1.get(o, ZERO) for o in top), ZERO) < sum(
            (d2.get(o, ZERO) for o in top), ZERO
        ):
            return False
    return True


def test_dominance_agrees_with_prefix_brute_force():
    rng = random.Random(23)
    outcomes = tuple("abcde")
    for _ in range(100):
        order = list(outcomes)
        rng.shuffle(order)
        spec = TotalOrder(tuple(order))
        d1 = _random_dist(rng, outcomes)
        d2 = _random_dist(rng, outcomes)
        assert stochastic_dominance(spec, d1, d2) == _prefix_dominates(
            tuple(order), d1, d2
        )


def _random_dist(rng, outcomes):
    weights = [Fraction(rng.randint(0, 3)) for _ in outcomes]
    total = sum(weights)
    if total == 0:
        return {outcomes[0]: ONE}
    return {o: w / total for o, w in zip(outcomes, weights) if w != 0}


# ---------------------------------------------------------------------------
# best response and averaging


def test_best_response_point_mass():
    game, _, _ = load_game("matching_pennies_asymmetric")
    u = {"o11": ONE, "o12": ZERO, "o21": ZERO, "o22": ONE}
    # against Left, playing Top reaches o11
    assert best_response_value(game, 0, u, {("Left",): ONE}) == ONE


def test_best_response_against_pure_punishment():
    game, _, _ = load_game("matching_pennies_asymmetric")
    u = {"o11": ONE, "o12": ZERO, "o21": ZERO, "o22": ONE}
    # punished with Right, player 1 answers Bottom and still collects o22
    assert best_response_value(game, 0, u, {("Right",): ONE}) == ONE


def test_best_response_expectation():
    game, _, _ = load_game("matching_pennies_asymmetric")
    u = {"o11": ONE, "o12": ZERO, "o21": ZERO, "o22": ZERO}
    q = {("Left",): HALF, ("Right",): HALF}
    assert best_response_value(game, 0, u, q) == HALF


def test_averaging_single_round_is_equality():
    game, _, _ = load_game("matching_pennies_symmetric")
    u = {"o1": ONE, "o2": ZERO}
    q = {("Left",): HALF, ("Right",): HALF}
    lhs, rhs, holds = averaging_dominates(game, 0, u, [q])
    assert lhs == rhs and holds


def test_averaging_equal_rounds_is_equality():
    game, _, _ = load_game("matching_pennies_symmetric")
    u = {"o1": ONE, "o2": ZERO}
    q = {("Left",): Fraction(1, 4), ("Right",): Fraction(3, 4)}
    lhs, rhs, holds = averaging_dominates(game, 0, u, [q, q, q])
    assert lhs == rhs and holds


def test_averaging_mixes_beat_alternation():
    # mismatch game: the deviator scores 1 exactly when actions differ
    game, _, _ = load_game("matching_pennies_symmetric")
    u = {"o1": ZERO, "o2": ONE}  # o2 = mismatch cells
    q1 = {("Left",): ONE}
    q2 = {("Right",): ONE}
    lhs, rhs, holds = averaging_dominates(game, 0, u, [q1, q2])
    assert lhs == HALF
    assert rhs == ONE
    assert holds


# ---------------------------------------------------------------------------
# verify()


def test_verify_accepts_the_5050_profile():
    game, spaces, _ = load_game("matching_pennies_symmetric")
    profile = load_profile("matching_pennies_symmetric_eq", game)
    assert verifier.verify(game, spaces, profile).is_equilibrium


def test_verify_rejects_the_distribution_profile_with_gap():
    game, spaces, _ = load_game("distribution_preference")
    profile = MediatedProfile(
        {("Top", "Left"): ONE},
        (
            {("Center",): HALF, ("Right",): HALF},
            {("Top",): ONE},
        ),
    )
    report = verifier.verify(game, spaces, profile)
    assert not report.is_equilibrium
    v = report.violation
    assert v.player == 0
    assert v.amount >= Fraction(1, 20)
    # deviating to Down specifically is profitable by exactly 1/10: the known
    # hand-built certificate (9/20 on path, 1 on the escape outcome) yields
    # gap 1/20 and the LP optimum improves it to 1/10
    from ordineq import equilibrium as eq

    gain = gain_vector(game, 0, "Down", profile.p, {("Center",): HALF, ("Right",): HALF})
    down = eq.separation_oracle_dist(spaces[0], game.outcomes, gain)
    assert down is not None and down[0] == Fraction(1, 10)


def test_verify_accepts_pure_sustained_profiles():
    game, spaces, _ = load_game("coordination_ordinal")
    profile = point_profile(game, ("Bottom", "Right"))
    assert verifier.verify(game, spaces, profile).is_equilibrium


def test_verify_preference_cnf_spaces(tmp_path, capsys):
    """The fixture's CNF has a model with u(o1) > u(o0), which beats a point
    mass on o0; with the clause (o0 >= o1) added, the solver's profile is
    accepted.  `ordineq verify` exits 3 and 0 on the two."""
    game, spaces, _ = load_game("preference_cnf_example")
    cnf, order = spaces
    beaten = point_profile(game, ("row_o0", "col_1"))
    report = verifier.verify(game, spaces, beaten)
    assert not report.is_equilibrium
    assert satisfies_space(report.violation.witness, cnf, game.outcomes)

    robust = (PreferenceCnf(cnf.clauses + ((("o0", "o1"),),)), order)
    res = solve(game, robust, Eore())
    assert res.answer
    assert verifier.verify(game, robust, res.profile).is_equilibrium

    for name, doc_spaces, profile, code in (
        ("beaten", spaces, beaten, EXIT_NO),
        ("robust", robust, res.profile, EXIT_YES),
    ):
        game_path = tmp_path / f"{name}.game"
        game_path.write_text(serialize_game(game, doc_spaces, name=name))
        profile_path = tmp_path / f"{name}.profile"
        profile_path.write_text(serialize_profile(profile))
        argv = ["verify", "--game", str(game_path), "--profile", str(profile_path)]
        assert run_cli(argv) == code, capsys.readouterr()


def test_verify_validates_its_spaces():
    """The bundled 50/50 profile is not reported robust against an order
    that leaves out o2, or against a type over an outcome the game lacks."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    profile = load_profile("matching_pennies_symmetric_eq", game)
    with pytest.raises(ValidationError):
        verifier.verify(game, (TotalOrder(("o1",)), spaces[1]), profile)
    with pytest.raises(UnknownOutcome):
        verifier.verify(game, (FiniteTypes(({"o11": ONE + ONE},)), spaces[1]), profile)


@pytest.mark.parametrize("as_partial", [False, True])
def test_cross_check_catches_a_wrong_order_oracle(monkeypatch, as_partial):
    """An oracle that overstates the gain of each player's last deviation is
    caught: the enumerated types serve every deviation of the player.  The
    oracle sees only the gain vector, so it tells the deviations apart by
    counting its calls, which come in player and action order."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    if as_partial:
        spaces = tuple(PartialOrder(tuple(zip(s.order, s.order[1:]))) for s in spaces)
    profile = load_profile("matching_pennies_symmetric_eq", game)
    true_separate = verifier.separate
    calls = iter([(i, a) for i, actions in enumerate(game.action_sets) for a in actions])

    def wrong(spec, outcomes, gain):
        i, a = next(calls)
        if a != game.action_sets[i][-1]:
            return true_separate(spec, outcomes, gain)
        return ONE, {o: ONE for o in outcomes}

    monkeypatch.setattr(verifier, "separate", wrong)
    with pytest.raises(AssertionError, match="disagrees with enumeration"):
        verifier.verify(game, spaces, profile)


def test_verify_agrees_with_extreme_type_brute_force():
    rng = random.Random(29)
    checked = 0
    for kind in ("total_order", "partial_order", "finite"):
        for _ in range(40):
            game, spaces = random_game(
                rng.randint(0, 10**9),
                max_actions=3,
                max_outcomes=5,
                kind=kind,
            )
            profile = random_profile_point(rng, game)
            got = verifier.verify(game, spaces, profile).is_equilibrium
            assert got == brute_verify(game, spaces, profile)
            checked += 1
    assert checked == 120


def test_total_order_verdict_equals_dominance_everywhere():
    rng = random.Random(31)
    for _ in range(40):
        game, spaces = random_game(
            rng.randint(0, 10**9), max_actions=3, max_outcomes=5,
            kind="total_order",
        )
        profile = random_profile_point(rng, game)
        got = verifier.verify(game, spaces, profile).is_equilibrium
        on_path = outcome_distribution(game, profile.p)
        expected = True
        for i, spec in enumerate(spaces):
            for a in game.action_sets[i]:
                dev = {}
                for opp, w in profile.q[i].items():
                    o = game.outcome_of(game.insert(i, a, opp))
                    dev[o] = dev.get(o, ZERO) + w
                if not stochastic_dominance(spec, on_path, dev):
                    expected = False
        assert got == expected
