import random
from fractions import Fraction

import pytest

from conftest import (
    averaging_dominates,
    best_response_value,
    brute_verify,
    gain_vector,
    point_profile,
    satisfies_space,
    stochastic_dominance,
)
from ordineq import equilibrium, typespaces, verifier
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
)
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import enumerate_extreme_types

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
    down, flow = eq.make_oracle(spaces[0], game.outcomes)(gain)
    assert down is not None and down[0] == Fraction(1, 10) and flow is None


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
    caught: its witness does not attain the gain it reports.  The oracle
    sees only the gain vector, and answers each vector once per call, so it
    recognizes the last deviations by their gain vectors (`gain_vectors`),
    which no earlier deviation of the robust profile shares.  An oracle
    that understates every gain as no gain, handing on its true flow, is
    caught on a profile that a defection beats: that flow bounds the gain
    by more than 0."""
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    if as_partial:
        spaces = tuple(PartialOrder(tuple(zip(s.order, s.order[1:]))) for s in spaces)
    profile = load_profile("prisoners_dilemma_rich_eq", game)
    beaten = point_profile(game, ("c1", "c1"))
    assert verifier.verify(game, spaces, profile).is_equilibrium
    assert not verifier.verify(game, spaces, beaten).is_equilibrium
    _, gains = equilibrium.gain_vectors(game, profile)
    vectors = [[tuple(g[o] for o in game.outcomes) for g in by_action.values()] for by_action in gains]
    last = {v[-1] for v in vectors}
    assert not last & {u for v in vectors for u in v[:-1]}
    name = "separation_oracle_partial" if as_partial else "separation_oracle_total"
    true_oracle = getattr(equilibrium, name)

    def overstating(spec, outcomes, gain):
        hit, flow = true_oracle(spec, outcomes, gain)
        # A partial order's search takes the gain in outcome order.
        if (tuple(gain) if as_partial else tuple(gain[o] for o in outcomes)) not in last:
            return hit, flow
        return (ONE, {o: ONE for o in outcomes}), flow

    def understating(spec, outcomes, gain):
        return None, true_oracle(spec, outcomes, gain)[1]

    monkeypatch.setattr(equilibrium, name, overstating)
    with pytest.raises(AssertionError, match="does not attain its gain"):
        verifier.verify(game, spaces, profile)
    monkeypatch.setattr(equilibrium, name, understating)
    assert verifier.verify(game, spaces, profile).is_equilibrium
    with pytest.raises(AssertionError, match="differs from its flow's bound"):
        verifier.verify(game, spaces, beaten)


def _fourteen_outcome_game():
    """A 2 x 7 game with one outcome per cell, o<row><column>, and the same
    partial order for both players: the outcomes in row-major order, each
    at least the next, with one pair listed twice and one self-pair."""
    rows, cols = ("r0", "r1"), tuple(f"c{k}" for k in range(7))
    cells = [(r, c) for r in rows for c in cols]
    outcomes = tuple(f"o{r[1]}{c[1]}" for r, c in cells)
    game = GameForm((rows, cols), outcomes, dict(zip(cells, outcomes)))
    pairs = tuple(zip(outcomes, outcomes[1:])) + ((outcomes[3], outcomes[4]), (outcomes[5], outcomes[5]))
    return game, (PartialOrder(pairs), PartialOrder(pairs))


def test_a_wrong_partial_order_oracle_is_caught_beyond_enumeration(monkeypatch):
    """Beyond ENUM_CROSS_CHECK_LIMIT outcomes, which no enumeration covers,
    an oracle that overstates every gain and one that understates every
    gain with an empty flow both make `verify` raise.  The point mass on
    the cell both players rank first is robust; the one on the cell they
    rank last is beaten by the row player's move up."""
    game, spaces = _fourteen_outcome_game()
    assert len(game.outcomes) == 14 > verifier.ENUM_CROSS_CHECK_LIMIT
    robust = point_profile(game, ("r0", "c0"))
    beaten = point_profile(game, ("r1", "c6"))
    assert verifier.verify(game, spaces, robust).is_equilibrium
    assert verifier.verify(game, spaces, beaten).violation.player == 0
    true_oracle = equilibrium.separation_oracle_partial

    def overstating(spec, outcomes, gain):
        hit, flow = true_oracle(spec, outcomes, gain)
        return (ONE if hit is None else hit[0] + 1, {o: ONE for o in outcomes}), flow

    def understating(spec, outcomes, gain):
        return None, {}

    monkeypatch.setattr(equilibrium, "separation_oracle_partial", overstating)
    for profile in (robust, beaten):
        with pytest.raises(AssertionError, match="does not attain its gain"):
            verifier.verify(game, spaces, profile)
    monkeypatch.setattr(equilibrium, "separation_oracle_partial", understating)
    for profile in (robust, beaten):
        with pytest.raises(AssertionError, match="differs from its flow's bound"):
            verifier.verify(game, spaces, profile)


def test_types_are_enumerated_only_for_players_reached(monkeypatch):
    """A profile whose first player already violates never enumerates the
    later players' CNF models: each player's are enumerated when its first
    deviation comes up."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    spaces = tuple(PreferenceCnf(tuple(((a, b),) for a, b in zip(s.order, s.order[1:]))) for s in spaces)
    profile = MediatedProfile({("Top", "Right"): ONE}, ({("Left",): ONE}, {("Top",): ONE}))
    enumerated = []

    def recording(spec, outcomes):
        enumerated.append(spec)
        return enumerate_extreme_types(spec, outcomes)

    monkeypatch.setattr(verifier, "enumerate_extreme_types", recording)
    assert verifier.verify(game, spaces, profile).violation.player == 0
    assert enumerated == [spaces[0]]
    enumerated.clear()
    robust = load_profile("matching_pennies_symmetric_eq", game)
    assert verifier.verify(game, spaces, robust).is_equilibrium
    assert enumerated == list(spaces)


def test_verify_never_enumerates_order_spaces(monkeypatch):
    """Total and partial orders are checked by their flows alone: `verify`
    enumerates no 0/1 types for them, on robust and on beaten profiles."""

    def refuse(spec, outcomes):
        raise AssertionError("enumerated an order space")

    monkeypatch.setattr(verifier, "enumerate_extreme_types", refuse)
    monkeypatch.setattr(typespaces, "enumerate_extreme_types", refuse)
    rng = random.Random(37)
    verdicts = set()
    for kind in ("total_order", "partial_order"):
        for _ in range(30):
            game, spaces = random_game(rng.randint(0, 10**9), max_actions=3, max_outcomes=6, kind=kind)
            verdicts.add(verifier.verify(game, spaces, random_profile_point(rng, game)).is_equilibrium)
    game, spaces = _fourteen_outcome_game()
    verdicts.add(verifier.verify(game, spaces, point_profile(game, ("r0", "c0"))).is_equilibrium)
    assert verdicts == {False, True}


def _random_order_case(rng):
    """Outcomes o0..o<n-1>, n in 2..24, a partial order on them whose pairs
    may repeat, be self-pairs or close cycles, and an integer gain."""
    n = rng.randint(2, 24)
    outcomes = tuple(f"o{k}" for k in range(n))
    pairs = [tuple(rng.sample(outcomes, 2)) for _ in range(rng.randint(0, 2 * n))]
    if pairs and rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    if rng.random() < 0.3:
        o = rng.choice(outcomes)
        pairs.append((o, o))
    if rng.random() < 0.3:
        cycle = rng.sample(outcomes, rng.randint(2, min(n, 4)))
        pairs += zip(cycle, cycle[1:] + cycle[:1])
    rng.shuffle(pairs)
    gain = {o: rng.randint(-9, 9) for o in outcomes}
    return outcomes, PartialOrder(tuple(pairs)), gain


@pytest.mark.parametrize("kind", ["total_order", "partial_order"])
def test_order_certificates_prove_the_maximum(kind):
    """On random orders over 2-24 outcomes, every oracle answer's flow
    passes `check_flow`, and up to ENUM_CROSS_CHECK_LIMIT outcomes its
    amount is the maximum over the enumerated 0/1 types.  The same flow
    does not certify a changed answer: no hit for a hit, or a hit one
    larger; and a flow on a pair the order lacks is refused."""
    rng = random.Random(41 if kind == "total_order" else 43)
    enumerated = hits = 0
    for _ in range(300):
        outcomes, spec, gain = _random_order_case(rng)
        if kind == "total_order":
            order = list(outcomes)
            rng.shuffle(order)
            spec = TotalOrder(tuple(order))
        hit, flow = equilibrium.make_oracle(spec, outcomes)(gain)
        verifier.check_flow(spec, outcomes, gain, hit, flow)
        amount = 0 if hit is None else hit[0]
        if len(outcomes) <= verifier.ENUM_CROSS_CHECK_LIMIT:
            types = enumerate_extreme_types(spec, outcomes)
            assert amount == max(sum(gain[o] * u[o] for o in outcomes) for u in types)
            enumerated += 1
        if hit is not None:
            hits += 1
            with pytest.raises(AssertionError):
                verifier.check_flow(spec, outcomes, gain, None, flow)
        with pytest.raises(AssertionError):
            top = (amount + 1, dict.fromkeys(outcomes, 1))
            verifier.check_flow(spec, outcomes, gain, top, flow)
        pairs = set(zip(spec.order, spec.order[1:])) if kind == "total_order" else set(spec.pairs)
        stray = next(((a, b) for a in outcomes for b in outcomes if (a, b) not in pairs), None)
        if stray is not None:
            with pytest.raises(AssertionError, match="not on a pair"):
                verifier.check_flow(spec, outcomes, gain, hit, {**flow, stray: 1})
    assert enumerated > 100 and hits > 100


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
