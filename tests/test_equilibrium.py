import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    EQ,
    FEASIBLE,
    GE,
    LE,
    MAX,
    LinearProgram,
    constraint,
    deviation_gain,
    distribution_shadow_partial,
    entails_preference,
    gain_vector,
    lp_solve,
    lp_vertices,
    partial_order_closure,
    satisfies_space,
    stochastic_dominance,
    upward_closed_vectors,
)
from ordineq import equilibrium as eq
from ordineq import linprog, verifier
from ordineq.errors import UnknownOutcome, ValidationError
from ordineq.fixture_suite import GAME_NAMES, load_game, load_profile
from ordineq.gamedoc import serialize_profile
from ordineq.games import (
    DistributionOrder,
    FiniteTypes,
    GameForm,
    MediatedProfile,
    ObjectiveSpec,
    PartialOrder,
    PreferenceCnf,
    TotalOrder,
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
)
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import enumerate_extreme_types

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _layout(game: GameForm, query) -> eq.VariableLayout:
    """The layout `solve` builds for the query: no weights for EORE, 1 on
    the SIRE target, g for OMIRE, and the path for AARE."""
    if isinstance(query, eq.Sire):
        return eq.VariableLayout(game, {query.target: ONE})
    if isinstance(query, eq.Omire):
        return eq.VariableLayout(game, query.objective.g)
    return eq.VariableLayout(game, {}, query.dist if isinstance(query, eq.Aare) else None)


def _master_width(game: GameForm, query) -> int:
    """One p column per class of profiles, its (outcome, objective weight),
    and none for AARE, whose path fixes p; then one q column per opponent
    profile of each player."""
    weights = {query.target: ONE} if isinstance(query, eq.Sire) else {}
    if isinstance(query, eq.Omire):
        weights = query.objective.g
    classes = {(game.outcome_of(prof), weights.get(prof, ZERO)) for prof in profiles_of(game)}
    if isinstance(query, eq.Aare):
        classes = set()
    return len(classes) + sum(
        len(list(opponents_profiles_of(game, i)))
        for i in range(game.num_players)
    )


def _later_profile(game: GameForm, rng: random.Random):
    """A profile that is not the first of its outcome, or None."""
    first = {}
    later = [prof for prof in profiles_of(game) if first.setdefault(game.outcome_of(prof), prof) != prof]
    return rng.choice(later) if later else None


def _split_objective(game: GameForm, rng: random.Random) -> ObjectiveSpec:
    """Random OMIRE weights in {0, 1/2, 1} that give the first two cells of
    a shared outcome, if there are any, the weights 0 and 1."""
    g = {prof: Fraction(rng.randint(0, 2), 2) for prof in profiles_of(game)}
    by_outcome = {}
    for prof in profiles_of(game):
        by_outcome.setdefault(game.outcome_of(prof), []).append(prof)
    shared = [cells for cells in by_outcome.values() if len(cells) > 1]
    if shared:
        a, b = rng.choice(shared)[:2]
        g[a], g[b] = ZERO, ONE
    return ObjectiveSpec(g, HALF)


def _recorded_solve(monkeypatch, game, spaces, query) -> tuple[eq.SolveResult, list[LinearProgram]]:
    """`solve`'s result, and its master LP at each round, in order, as its
    one master tableau was handed it: the blocks the tableau was built of,
    as `=` rows summing to 1, then every `add_rows` batch before that
    round's `optimize`, as `>= 0` rows, and the coefficients that
    `optimize` was handed, as a maximization.  The master is the one
    tableau built with blocks; a distribution order's oracle builds a
    boxed tableau of its own, of `>= 0` rows only, and adds no rows.
    Fails unless exactly one master tableau was built, and optimized at
    least once."""
    tableaux = []

    class Recording(linprog.Tableau):
        def __init__(self, num_vars, blocks=(), rows=(), boxed=False):
            super().__init__(num_vars, blocks, rows, boxed=boxed)
            self.handed = [constraint([int(j in b) for j in range(num_vars)], EQ, 1) for b in blocks]
            self.handed += (constraint(c, GE, 0) for c in rows)
            self.rounds = []
            tableaux.append(self)

        def add_rows(self, rows):
            self.handed += (constraint(c, GE, 0) for c in rows)
            super().add_rows(rows)

        def optimize(self, coeffs):
            objective = None if coeffs is None else (coeffs, MAX)
            self.rounds.append(LinearProgram(self.num_vars, tuple(self.handed), objective))
            return super().optimize(coeffs)

    with monkeypatch.context() as m:
        m.setattr(linprog, "Tableau", Recording)
        result = eq.solve(game, spaces, query)
    masters = [t for t in tableaux if any(c.rel == EQ for c in t.handed)]
    assert len(masters) == 1, f"{len(masters)} master tableaux in one solve"
    assert masters[0].rounds, "the master tableau was never optimized"
    return result, masters[0].rounds


def _master_lps(monkeypatch, game, spaces, query) -> list[LinearProgram]:
    return _recorded_solve(monkeypatch, game, spaces, query)[1]


def test_variable_count_matches_contract(monkeypatch):
    """The master has one p column per class of equal profile columns and
    one q column per opponent profile, for each kind of query, in every
    round.  On these games, where outcomes repeat, EORE and SIRE get fewer
    p columns than profiles; AARE, whose path fixes p, gets none."""
    rng = random.Random(5)
    for name in ("matching_pennies_symmetric", "prisoners_dilemma_rich"):
        game, spaces, _ = load_game(name)
        q_columns = _master_width(game, eq.Aare({}))
        per_profile = q_columns + len(list(profiles_of(game)))
        queries = (
            eq.Eore(),
            eq.Sire(_later_profile(game, rng)),
            eq.Aare({next(profiles_of(game)): ONE}),
            eq.Omire(_split_objective(game, rng)),
        )
        for query in queries:
            width = _master_width(game, query)
            assert _layout(game, query).num_vars == width
            lps = _master_lps(monkeypatch, game, spaces, query)
            assert {lp.num_vars for lp in lps} == {width}
            if isinstance(query, eq.Aare):
                assert width == q_columns
            elif not isinstance(query, eq.Omire):
                assert width < per_profile


def test_base_lp_is_always_feasible(monkeypatch):
    """The first master LP holds only the sum-to-one rows, and is feasible."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    first = _master_lps(monkeypatch, game, spaces, eq.Eore())[0]
    assert len(first.constraints) == 1 + game.num_players
    assert lp_solve(first).status == FEASIBLE


@pytest.mark.parametrize("query", [eq.Eore(), eq.Aare({("c1", "c1"): ONE})], ids=["eore", "aare"])
def test_master_lp_rows_are_built_once(monkeypatch, query):
    """The master tableau is built of the sum-to-one blocks, the p block
    and one per player, or for AARE the players' blocks alone.  From round
    to round it keeps every earlier row at the same index and adds the new
    cuts, `>= 0` rows, after them; the objective is the same.  Each cut is
    read into integers once (`linprog._int_row`), when it reaches the
    tableau, and a block is never read."""
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    blocks = game.num_players + (not isinstance(query, eq.Aare))
    read = []
    int_row = linprog._int_row

    def record(values):
        read.append(values)
        return int_row(values)

    monkeypatch.setattr(linprog, "_int_row", record)
    lps = _master_lps(monkeypatch, game, spaces, query)
    assert len(lps) >= 3
    assert len(lps[0].constraints) == blocks
    assert all(c.rel == EQ for c in lps[0].constraints)
    for before, after in zip(lps, lps[1:]):
        old, new = before.constraints, after.constraints
        assert len(new) > len(old)
        assert new[: len(old)] == old
        assert all(c.rel == GE and c.rhs == 0 for c in new[len(old) :])
        assert after.objective == before.objective
    # Total-order oracles and a None objective read nothing else.
    assert len(read) == len(lps[-1].constraints) - blocks


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
    oracle = eq.make_oracle(space, game.outcomes)
    hits = misses = 0
    for _ in range(60):
        i = rng.randrange(2)
        p = _random_point(rng, list(profiles_of(game)))
        q_i = _random_point(rng, list(opponents_profiles_of(game, i)))
        for a in game.action_sets[i]:
            gains = [deviation_gain(game, i, a, u, p, q_i) for u in space.types]
            v, flow = oracle(gain_vector(game, i, a, p, q_i))
            assert flow is None
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
    assert eq.make_oracle(shadow, game.outcomes)(gain)[0] is None


def test_dist_oracle_finds_the_gap():
    game, spaces, _ = load_game("distribution_preference")
    p = {("Top", "Left"): ONE}
    q1 = {("Center",): HALF, ("Right",): HALF}
    v, flow = eq.make_oracle(spaces[0], game.outcomes)(gain_vector(game, 0, "Down", p, q1))
    assert v is not None and flow is None
    amount, witness = v
    assert amount >= Fraction(1, 20)
    # the reported amount is exactly the deviation gain of its witness
    assert deviation_gain(game, 0, "Down", witness, p, q1) == amount


def test_dist_oracle_stays_exact_over_a_sequence_of_gains():
    """One distribution-order oracle answers 200 random gains in a row, each
    starting from the basis the last one ended on: every amount is the
    largest gain over the polytope's enumerated vertices, and every witness
    is one of those vertices."""
    rng = random.Random(73)
    hits = misses = 0
    for _ in range(6):
        game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=5, kind="distribution_order")
        outcomes = game.outcomes
        for spec in spaces:
            vertices = _polytope_vertices(spec, outcomes)
            oracle = eq.make_oracle(spec, outcomes)
            for _ in range(200):
                gain = {o: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for o in outcomes}
                best = max(sum(gain[o] * v[k] for k, o in enumerate(outcomes)) for v in vertices)
                hit, _ = oracle(gain)
                if best <= 0:
                    assert hit is None
                    misses += 1
                else:
                    amount, witness = hit
                    assert amount == best
                    assert tuple(witness[o] for o in outcomes) in vertices
                    hits += 1
    assert hits > 500 and misses > 100


def test_distribution_polytope_has_a_row_per_pair_and_a_miss_reads_no_vertex(monkeypatch):
    """A distribution order's boxed tableau holds one row, and one slack
    column, per pair, and none for u <= 1.  Its oracle reads the vertex
    (`Tableau.point`) once per hit and never on a miss, and `verify` of a
    robust profile, where every call is a miss, reads none."""
    rng = random.Random(89)
    reads = []
    point = linprog.Tableau.point

    def counted(tableau):
        reads.append(tableau)
        return point(tableau)

    monkeypatch.setattr(linprog.Tableau, "point", counted)
    hits = misses = robust = 0
    for _ in range(25):
        game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=6, kind="distribution_order")
        outcomes = game.outcomes
        for spec in spaces:
            polytope = eq.distribution_polytope(spec, outcomes)
            assert polytope.boxed and polytope.feasible
            assert len(polytope.rows) == len(spec.pairs)
            assert polytope.width == len(outcomes) + len(spec.pairs)
            for _ in range(20):
                gain = tuple(rng.randint(-4, 4) for _ in outcomes)
                reads.clear()
                hit = eq.separation_oracle_dist(polytope, outcomes, gain)
                assert reads == ([] if hit is None else [polytope])
                hits += hit is not None
                misses += hit is None
        result = eq.solve(game, spaces, eq.Eore())
        if result.answer:
            reads.clear()
            assert verifier.verify(game, spaces, result.profile).is_equilibrium
            assert reads == []
            robust += 1
    assert hits > 100 and misses > 100 and robust > 5


def test_master_and_distribution_polytopes_are_built_with_the_fewest_pivots(monkeypatch):
    """An EORE `solve` on a 2-player game builds its master tableau, one p
    column per outcome, with no pivot: each sum-to-one block starts basic
    on its first column, the first basis its answers rest on.  Each
    distribution order's boxed tableau starts on its slacks, also with no
    pivot."""
    pivots = [0]
    pivot = linprog._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    built = []

    class Counting(linprog.Tableau):
        def __init__(self, num_vars, blocks=(), rows=(), boxed=False):
            before = pivots[0]
            super().__init__(num_vars, blocks, rows, boxed=boxed)
            built.append((self.boxed, pivots[0] - before, list(self.basis)))

    monkeypatch.setattr(linprog, "_pivot", counted)
    monkeypatch.setattr(linprog, "Tableau", Counting)
    rng = random.Random(20261102)
    games = [load_game("distribution_preference")[:2]]
    games += [random_game(rng.randint(0, 10**9), kind="distribution_order") for _ in range(10)]
    for game, spaces in games:
        assert game.num_players == 2
        built.clear()
        eq.solve(game, spaces, eq.Eore())
        (boxed, count, basis), *polytopes = built
        layout = eq.VariableLayout(game, {})
        blocks = [layout.p_index, *layout.q_index]
        assert not boxed and count == 0 and len(blocks) == 3
        assert basis == [min(block.values()) for block in blocks]
        distribution = [s for s in spaces if isinstance(s, DistributionOrder)]
        assert len(polytopes) == len(distribution) >= 1
        for (boxed, count, basis), spec in zip(polytopes, distribution):
            assert boxed and count == 0
            assert basis == list(range(len(game.outcomes), len(game.outcomes) + len(spec.pairs)))


class _PerProfileLayout(eq.VariableLayout):
    """The layout with one p column per profile whatever the weights, as it
    was before profiles were grouped into classes: every later column
    shifts right by the profiles the classes left out."""

    def __init__(self, game, weights, path=None):
        super().__init__(game, weights, path)
        if path is not None:
            return
        profiles = list(profiles_of(game))
        shift = len(profiles) - len(self.p_index)
        self.p_index = {prof: k for k, prof in enumerate(profiles)}
        self.q_index = [{opp: k + shift for opp, k in q_i.items()} for q_i in self.q_index]
        self.num_vars += shift
        self.p_outcomes = [(k, game.outcome_of(prof)) for prof, k in self.p_index.items()]
        self.deviation_outcomes = {
            key: [(k + shift, o) for k, o in cols] for key, cols in self.deviation_outcomes.items()
        }


def _solved_with_pivots(monkeypatch, game, spaces, query, per_profile=False):
    """`solve`'s result, its serialized profile and the number of
    `linprog._pivot` calls it made, on the solver's layout or, with
    `per_profile`, on one p column per profile."""
    pivots = [0]
    pivot = linprog._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    with monkeypatch.context() as m:
        m.setattr(linprog, "_pivot", counted)
        if per_profile:
            m.setattr(eq, "VariableLayout", _PerProfileLayout)
        res = eq.solve(game, spaces, query)
    text = None if res.profile is None else serialize_profile(res.profile)
    return res, text, pivots[0]


def test_outcome_classes_change_no_answer_and_no_pivot(monkeypatch):
    """Grouping equal p columns is exact: on every bundled game and on 30
    random games of 2 and 3 players with more cells than outcomes, EORE,
    SIRE and OMIRE get the same `SolveResult`, byte for byte the same
    serialized profile and the same number of pivots as with one p column
    per profile.  The SIRE target is a profile that is not the first of its
    outcome where there is one, and the OMIRE objective weighs two cells of
    one outcome 0 and 1.  AARE has no p columns to group
    (`test_aare_answers_as_the_lp_with_path_rows`)."""
    rng = random.Random(23)
    games = [load_game(name)[:2] for name in GAME_NAMES]
    kinds = ("total_order", "partial_order", "distribution_order", "preference_cnf", "finite")
    while len(games) < len(GAME_NAMES) + 30:
        players = 3 if len(games) % 3 == 0 else 2
        game, spaces = random_game(rng.randint(0, 10**9), num_players=players, kind=kinds[len(games) % 5])
        if len(list(profiles_of(game))) > len(game.outcomes):
            games.append((game, spaces))
    for game, spaces in games:
        target = _later_profile(game, rng) or rng.choice(list(profiles_of(game)))
        queries = (eq.Eore(), eq.Sire(target), eq.Omire(_split_objective(game, rng)))
        for query in queries:
            got = _solved_with_pivots(monkeypatch, game, spaces, query)
            assert got == _solved_with_pivots(monkeypatch, game, spaces, query, per_profile=True)


def _lp_with_path_rows(game: GameForm, listed, path) -> LinearProgram:
    """The AARE master over (p, q) with the path written as rows: one p
    column per profile, then each player's q block; each block sums to 1,
    p(a) = d(a) for every profile, and one cut per listed type and
    deviation, sum_a u(o(a)) p(a) >= sum_{a_-i} u(o(a_i', a_-i)) q_-i(a_-i)."""
    profiles = list(profiles_of(game))
    blocks = [list(range(len(profiles)))]
    opponents = []
    for i in range(game.num_players):
        opponents.append(list(opponents_profiles_of(game, i)))
        start = blocks[-1][-1] + 1
        blocks.append(list(range(start, start + len(opponents[i]))))
    n = blocks[-1][-1] + 1
    rows = [constraint([int(j in b) for j in range(n)], EQ, 1) for b in blocks]
    rows += (constraint([int(j == k) for j in range(n)], EQ, path.get(prof, ZERO)) for k, prof in enumerate(profiles))
    for i, spec in enumerate(listed):
        for u in spec.types:
            for a in game.action_sets[i]:
                row = [u[game.outcome_of(prof)] for prof in profiles] + [ZERO] * (n - len(profiles))
                for k, opp in zip(blocks[i + 1], opponents[i]):
                    row[k] = -u[game.outcome_of(game.insert(i, a, opp))]
                rows.append(constraint(row, GE, 0))
    return LinearProgram(n, tuple(rows))


def test_aare_answers_as_the_lp_with_path_rows():
    """The AARE master has no p columns: over q alone, each cut is
    homogenized against the player's own block.  On random 2- and 3-player
    games with listed types, or with order and CNF spaces and their
    enumerated 0/1 types, `solve` over the spaces and over the listed
    types answers as `lp_solve` does on the LP with p columns and path rows
    (`_lp_with_path_rows`).  The path is the EORE answer's, or else a
    random point's.  A yes follows the path and passes `verify`."""
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    kinds = ("finite", "total_order", "partial_order", "preference_cnf")
    for trial in range(120):
        players = 3 if trial % 3 == 0 else 2
        game, spaces = random_game(
            rng.randint(0, 10**9),
            num_players=players,
            max_actions=2 if players == 3 else 3,
            max_outcomes=5,
            kind=kinds[trial % len(kinds)],
        )
        listed = tuple(
            spec if isinstance(spec, FiniteTypes) else FiniteTypes(tuple(enumerate_extreme_types(spec, game.outcomes)))
            for spec in spaces
        )
        eore = eq.solve(game, spaces, eq.Eore())
        path = eore.profile.p if eore.answer and rng.random() < 0.5 else random_profile_point(rng, game).p
        want = lp_solve(_lp_with_path_rows(game, listed, path)).status == FEASIBLE
        where = f"trial {trial}"
        for over in (spaces, listed):
            got = eq.solve(game, over, eq.Aare(path))
            assert got.answer == want, where
            if got.answer:
                assert got.profile.p == {prof: w for prof, w in path.items() if w}, where
                assert verifier.verify(game, spaces, got.profile).is_equilibrium, where
        seen[want] += 1
    assert min(seen.values()) >= 30, seen


def test_a_sire_target_gets_a_column_of_its_own():
    """A SIRE target that is not the first profile of its outcome is checked
    against every profile, not against the classes' first profiles, and
    keeps a column apart from the rest of its outcome, so the answer is
    about the target cell; an unknown target is still a ValidationError."""
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    first = next(prof for prof in profiles_of(game) if game.outcome_of(prof) == game.outcome_of(("c2", "c2")))
    assert first != ("c2", "c2")
    layout = eq.VariableLayout(game, {("c2", "c2"): ONE})
    assert ("c2", "c2") not in eq.VariableLayout(game, {}).p_index
    assert {first, ("c2", "c2")} <= set(layout.p_index)
    res = eq.solve(game, spaces, eq.Sire(("c2", "c2")))
    assert res.answer and res.value == res.profile.p[("c2", "c2")] > 0
    assert verifier.verify(game, spaces, res.profile).is_equilibrium
    with pytest.raises(ValidationError, match="unknown target profile"):
        eq.solve(game, spaces, eq.Sire(("c2", "c9")))


def test_an_objective_tells_cells_of_one_outcome_apart():
    """OMIRE weights that differ on two cells of one outcome give them two
    columns, and the optimum puts the outcome's mass on the heavier cell.
    An objective over a profile the game lacks is a ValidationError, raised
    before the layout reads the weights."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    cells = [prof for prof in profiles_of(game) if game.outcome_of(prof) == "o1"]
    assert len(cells) == 2
    g = {cells[0]: ZERO, cells[1]: ONE}
    assert set(cells) <= set(eq.VariableLayout(game, g).p_index)
    res = eq.solve(game, spaces, eq.Omire(ObjectiveSpec(g, HALF)))
    assert res.answer and res.value == HALF
    assert res.profile.p.get(cells[1]) == HALF and cells[0] not in res.profile.p
    with pytest.raises(ValidationError, match="unknown profile"):
        eq.solve(game, spaces, eq.Omire(ObjectiveSpec({("Top", "Middle"): ONE}, HALF)))


def test_oracle_silent_when_deviation_changes_nothing():
    game, _, _ = load_game("matching_pennies_symmetric")
    # q_{-1} and p produce the same outcome distribution under the deviation
    p = {("Top", "Left"): ONE}
    q1 = {("Left",): ONE}
    gain = gain_vector(game, 0, "Top", p, q1)
    assert eq.make_oracle(PartialOrder(()), game.outcomes)(gain) == (None, {})


def test_partial_oracle_reproduces_nonexistence_witness():
    game, _, _ = load_game("matching_pennies_asymmetric")
    # player 2 dislikes only o11; deviating to Right always escapes it
    p = {("Top", "Left"): ONE}
    q2 = {("Top",): ONE}
    spec = PartialOrder(
        (("o12", "o11"), ("o21", "o11"), ("o22", "o11"))
    )
    v, _ = eq.make_oracle(spec, game.outcomes)(gain_vector(game, 1, "Right", p, q2))
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
            assert eq.make_oracle(spec, game.outcomes)(gain)[0] is None


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
            v, _ = eq.make_oracle(spec, game.outcomes)(gain)
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
    chain, and the brute-force maximum over the threshold vectors.  Their
    flows may differ, as the dual optimum need not be unique; both certify
    the answer."""
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
            v, flow = eq.separation_oracle_total(spec, game.outcomes, gain)
            chain_v, chain_flow = eq.make_oracle(chain, game.outcomes)(gain)
            assert v == chain_v
            verifier.check_flow(spec, game.outcomes, gain, v, flow)
            verifier.check_flow(chain, game.outcomes, gain, v, chain_flow)
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
            v, flow = eq.make_oracle(spec, game.outcomes)(gain)
            assert flow is None
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
    oracle = eq.make_oracle(spaces[i], game.outcomes)
    rng = random.Random(31)
    hits = 0
    for _ in range(40):
        point = random_profile_point(rng, game)
        for deviation in game.action_sets[i]:
            gain = gain_vector(game, i, deviation, point.p, point.q[i])
            v, _ = oracle(gain)
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


def test_solve_rejects_a_float_aare_path():
    """An AARE path is exact: a float weight is a ValidationError, not an
    error inside the LP."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    with pytest.raises(ValidationError):
        eq.solve(game, spaces, eq.Aare({("Top", "Left"): 0.5, ("Bottom", "Right"): 0.5}))


def test_find_pure_unmediated_validates_its_spaces():
    """The probes `solve` rejects are rejected here too, instead of reading
    the order as entailing every preference or ending in a KeyError."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    with pytest.raises(ValidationError):
        eq.find_pure_unmediated(game, (TotalOrder(("o1",)), spaces[1]))
    with pytest.raises(UnknownOutcome):
        eq.find_pure_unmediated(game, (FiniteTypes(({"o11": ONE + ONE},)), spaces[1]))


@pytest.mark.parametrize("half, one", [(0.5, 1.0), ("1/2", "1")], ids=["float", "str"])
def test_inexact_distribution_order_weights_are_rejected(half, one):
    """A distribution-order weight that is not an exact rational is a
    ValidationError in solve, verify and find_pure_unmediated, not an error
    inside the LP; an unknown outcome is still UnknownOutcome."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    profile = load_profile("matching_pennies_symmetric_eq", game)
    inexact = (DistributionOrder((({"o1": half, "o2": half}, {"o1": one}),)), spaces[1])
    unknown = (DistributionOrder((({"o3": ONE}, {"o1": ONE}),)), spaces[1])
    for call in (
        lambda s: eq.solve(game, s, eq.Eore()),
        lambda s: verifier.verify(game, s, profile),
        lambda s: eq.find_pure_unmediated(game, s),
    ):
        with pytest.raises(ValidationError):
            call(inexact)
        with pytest.raises(UnknownOutcome):
            call(unknown)


@pytest.mark.parametrize(
    "query",
    [
        eq.Omire(ObjectiveSpec({("Top", "Left"): 0.1}, HALF)),
        eq.Omire(ObjectiveSpec({("Top", "Left"): "1/2"}, HALF)),
        eq.Omire(ObjectiveSpec({("Top", "Left"): ONE}, 0.5)),
        eq.Omire(ObjectiveSpec({("Top", "Left"): ONE}, "1/2")),
        eq.Sire(["Top", "Left"]),
    ],
    ids=["float-weight", "str-weight", "float-threshold", "str-threshold", "list-target"],
)
def test_inexact_objective_and_unhashable_target_are_rejected(query):
    """OMIRE weights are exact rationals in [0,1] and its threshold is an
    exact rational; a SIRE target is a tuple profile of the game.  Anything
    else is a ValidationError, not a silent float answer or a TypeError."""
    game, spaces, _ = load_game("matching_pennies_symmetric")
    with pytest.raises(ValidationError):
        eq.solve(game, spaces, query)


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
                    assert entails_preference(spec, o, o2, outcomes) == ((o, o2) in closure)
    for _ in range(15):
        game, spaces = random_game(rng.randint(0, 10**9), max_outcomes=4, kind="distribution_order")
        outcomes = game.outcomes
        for spec in spaces:
            vertices = _polytope_vertices(spec, outcomes)
            for (k, o), (k2, o2) in itertools.product(enumerate(outcomes), repeat=2):
                expected = min(v[k] - v[k2] for v in vertices) >= 0
                assert entails_preference(spec, o, o2, outcomes) == expected


def _polytope_vertices(spec: DistributionOrder, outcomes) -> list[tuple[Fraction, ...]]:
    """The vertices of a distribution order's polytope in [0,1]^O: one row
    r1·u - r2·u >= 0 per pair, and u <= 1."""
    n = len(outcomes)
    rows = []
    for r1, r2 in spec.pairs:
        rows.append(constraint([r1.get(o, ZERO) - r2.get(o, ZERO) for o in outcomes], GE, 0))
    for k in range(n):
        rows.append(constraint([ONE if j == k else ZERO for j in range(n)], LE, 1))
    return lp_vertices(LinearProgram(n, tuple(rows)))


def test_solve_over_distribution_orders_agrees_with_their_vertices(monkeypatch):
    """EORE and SIRE over a distribution order answer as over the finite
    list of its polytope's vertices: the incentive constraints are linear
    in the utility vector, so they hold on the polytope iff at its
    vertices.  The vertices come from enumeration, not from the oracle.
    2x2 games with up to 4 outcomes, then 3x3 games with up to 6 outcomes,
    some of which take several rounds, so each oracle's basis is carried
    from round to round."""
    rng = random.Random(61)
    most_rounds = 0
    for actions, max_outcomes, count in ((2, 4, 50), (3, 6, 10)):
        for _ in range(count):
            game = None
            while game is None or any(len(acts) != actions for acts in game.action_sets):
                game, spaces = random_game(
                    rng.randint(0, 10**9),
                    max_actions=actions,
                    max_outcomes=max_outcomes,
                    kind="distribution_order",
                )
            listed = tuple(
                FiniteTypes(tuple(dict(zip(game.outcomes, v)) for v in _polytope_vertices(s, game.outcomes)))
                for s in spaces
            )
            target = rng.choice(list(profiles_of(game)))
            for query in (eq.Eore(), eq.Sire(target)):
                got, lps = _recorded_solve(monkeypatch, game, spaces, query)
                expected = eq.solve(game, listed, query)
                assert (got.answer, got.value) == (expected.answer, expected.value)
                most_rounds = max(most_rounds, len(lps))
    assert most_rounds >= 4


def test_each_call_stands_alone(monkeypatch):
    """No oracle or master-tableau state outlives a call.  Solving a query
    again over the same space objects, after a different `solve`, a
    `verify` and a `find_pure_unmediated` on them, hands its one master
    tableau the same rows and objectives, round by round, and gives the
    same answer and value and a byte-identical serialized profile; `verify`
    repeats its report.  An oracle kept warm from an earlier call can end
    on another optimal vertex when a gain's optimum is not unique, and so
    add other cuts."""
    rng = random.Random(83)

    def solved(game, spaces, query):
        res, lps = _recorded_solve(monkeypatch, game, spaces, query)
        text = None if res.profile is None else serialize_profile(res.profile)
        return res.answer, res.value, text, lps

    for kind in ("distribution_order", "partial_order", "preference_cnf"):
        for _ in range(20):
            game, spaces = random_game(rng.randint(0, 10**9), max_actions=3, max_outcomes=6, kind=kind)
            queries = (eq.Eore(), eq.Sire(rng.choice(list(profiles_of(game)))))
            probe = random_profile_point(rng, game)
            first = [solved(game, spaces, query) for query in queries]
            report = verifier.verify(game, spaces, probe)
            eq.find_pure_unmediated(game, spaces)
            assert [solved(game, spaces, query) for query in reversed(queries)] == first[::-1]
            assert verifier.verify(game, spaces, probe) == report


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


def _reference_family(spec, outcomes) -> list:
    """The witness family of a space, built without its oracle: the listed
    types, the 0/1 vectors that satisfy an order or a CNF, or the vertices
    of a distribution order's polytope."""
    if isinstance(spec, FiniteTypes):
        return list(spec.types)
    if isinstance(spec, DistributionOrder):
        return [dict(zip(outcomes, v)) for v in _polytope_vertices(spec, outcomes)]
    cube = (dict(zip(outcomes, bits)) for bits in itertools.product((0, 1), repeat=len(outcomes)))
    return [u for u in cube if satisfies_space(u, spec, outcomes)]


@pytest.mark.parametrize(
    "kind", ["finite", "total_order", "partial_order", "distribution_order", "preference_cnf"]
)
def test_integer_gains_match_the_reference(kind):
    """On random profiles, every gain vector `deviation_hits` yields is
    integers: over den they are `conftest.gain_vector`, and each hit's
    amount over den is the largest gain over the kind's reference family.
    Exactly the order kinds hand on a flow, and it certifies the hit."""
    rng = random.Random(71)
    hits = 0
    for _ in range(25):
        game, spaces = random_game(rng.randint(0, 10**9), max_actions=3, max_outcomes=5, kind=kind)
        families = [_reference_family(spec, game.outcomes) for spec in spaces]
        profile = random_profile_point(rng, game)
        oracles = [eq.make_oracle(spec, game.outcomes) for spec in spaces]
        for i, a, den, gain, hit, flow in eq.deviation_hits(game, oracles, profile):
            assert all(type(v) is int for v in gain.values())
            if kind in ("total_order", "partial_order"):
                verifier.check_flow(spaces[i], game.outcomes, gain, hit, flow)
            else:
                assert flow is None
            expected = gain_vector(game, i, a, profile.p, profile.q[i])
            assert {o: Fraction(v, den) for o, v in gain.items()} == expected
            # A CNF with an empty clause has no model, and no hit.
            gains = (deviation_gain(game, i, a, u, profile.p, profile.q[i]) for u in families[i])
            best = max(gains, default=0)
            if hit is None:
                assert best <= 0
            else:
                assert Fraction(hit[0], den) == best
                hits += 1
    assert hits


ORACLE_FUNCTIONS = {
    "finite": "finite_scan_oracle",
    "total_order": "separation_oracle_total",
    "partial_order": "separation_oracle_partial",
    "distribution_order": "separation_oracle_dist",
    "preference_cnf": "best_cnf_model",
}


@pytest.mark.parametrize("kind", ORACLE_FUNCTIONS)
def test_an_oracle_answers_each_gain_once(monkeypatch, kind):
    """On random spaces, an oracle asked a gain vector it has answered, as
    a new dict of integers or of equal `Fraction`s, does not call its
    kind's function again.  Every answer equals a fresh oracle's: the same
    amount, and the same witness for every kind but a distribution order,
    whose witness among equal optima depends on its warm basis."""
    rng = random.Random(97)
    name = ORACLE_FUNCTIONS[kind]
    search = getattr(eq, name)
    calls = []

    def counted(spec, outcomes, gain):
        calls.append(gain)
        return search(spec, outcomes, gain)

    monkeypatch.setattr(eq, name, counted)
    flows = kind in ("total_order", "partial_order")
    repeats = hits = 0
    for _ in range(15):
        game, spaces = random_game(rng.randint(0, 10**9), max_actions=2, max_outcomes=6, kind=kind)
        outcomes = game.outcomes
        oracle = eq.make_oracle(spaces[0], outcomes)
        answered = set()
        for _ in range(30):
            if answered and rng.random() < 0.4:
                key = rng.choice(sorted(answered))
                den = rng.randint(1, 3)
                gain = {o: Fraction(v * den, den) for o, v in zip(outcomes, key)}
            else:
                den = rng.choice((1, 1, 2, 3))
                gain = {o: Fraction(rng.randint(-4, 4), den) for o in outcomes}
                if den == 1:
                    gain = {o: int(v) for o, v in gain.items()}
            key = tuple(gain[o] for o in outcomes)
            before = len(calls)
            hit, flow = oracle(gain)
            assert len(calls) == before + (key not in answered)
            assert (flow is not None) == flows
            repeats += key in answered
            answered.add(key)
            fresh, fresh_flow = eq.make_oracle(spaces[0], outcomes)(gain)
            if kind == "distribution_order" and hit is not None and fresh is not None:
                assert hit[0] == fresh[0]
            else:
                assert hit == fresh
                assert flow == fresh_flow
            hits += hit is not None
    assert repeats > 100 and hits > 100
