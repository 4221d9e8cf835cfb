"""Acceptance criteria.

Each test covers one numbered criterion and prints exactly one
"PASS criterion N" / "FAIL criterion N" line (run pytest with -s to see
them).  All comparisons are exact rational comparisons; no tolerances.
"""

import itertools
import random
from fractions import Fraction

from conftest import (
    averaging_dominates,
    brute_verify,
    closure_brute_force,
    deviation_gain,
    distribution_shadow_partial,
    gain_vector,
    point_profile,
)
from ordineq import equilibrium as eq
from ordineq import verifier
from ordineq.errors import UnsupportedSpace
from ordineq.fixture_suite import GAME_NAMES, load_game, load_profile
from ordineq.flow import ClosureInstance, closure_solve, max_flow
from ordineq.games import (
    FiniteTypes,
    MediatedProfile,
    TotalOrder,
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
)
from ordineq.hardness import (
    CnfFormula,
    check_cnf_existence,
    reduce_sat,
    sat_brute,
)
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import enumerate_extreme_types

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _report(number: int, description: str, passed: bool):
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict} criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


def _threshold_space(order: TotalOrder) -> FiniteTypes:
    return FiniteTypes(tuple(enumerate_extreme_types(order, order.order)))


def test_criterion_1_nonexistence():
    game, spaces, _ = load_game("matching_pennies_asymmetric")
    via_orders = eq.solve(game, spaces, eq.Eore()).answer
    finite = tuple(_threshold_space(s) for s in spaces)
    assert all(len(s.types) == 5 for s in finite)  # |O|+1 threshold types
    via_types = eq.solve(game, finite, eq.Eore()).answer
    _report(
        1,
        "asymmetric-pennies existence is No, by orders and by threshold types",
        via_orders is False and via_types is False,
    )


def test_criterion_2_symmetric_pennies():
    game, spaces, _ = load_game("matching_pennies_symmetric")
    exists = eq.solve(game, spaces, eq.Eore()).answer
    profile = load_profile("matching_pennies_symmetric_eq", game)
    attainable = eq.solve(game, spaces, eq.Aare(dict(profile.p))).answer
    verified = verifier.verify(game, spaces, profile).is_equilibrium
    on_path = outcome_distribution(game, profile.p)
    _report(
        2,
        "symmetric pennies: existence, 50/50 attainability, profile verifies",
        exists
        and attainable
        and verified
        and on_path == {"o1": HALF, "o2": HALF},
    )


def test_criterion_3_cooperation_structure():
    game, spaces, _ = load_game("prisoners_dilemma_rich")
    results = [eq.solve(game, spaces, eq.Eore())]
    paper_profile = load_profile("prisoners_dilemma_rich_eq", game)
    results.append(eq.solve(game, spaces, eq.Aare(dict(paper_profile.p))))
    ok = all(r.answer for r in results)
    ok = ok and verifier.verify(game, spaces, paper_profile).is_equilibrium
    punish_actions = {"d1", "d2"}
    for r in results:
        profile = r.profile
        for prof, w in profile.p.items():
            o = game.outcome_of(prof)
            if o in ("o_dc", "o_cd"):
                ok = ok and w == ZERO
        cc_mass = sum(
            (
                w
                for prof, w in profile.p.items()
                if game.outcome_of(prof) in ("o_cc1", "o_cc2")
            ),
            ZERO,
        )
        ok = ok and cc_mass > ZERO
        for i in range(2):
            for opp, w in profile.q[i].items():
                if w != ZERO:
                    ok = ok and all(a in punish_actions for a in opp)
    _report(
        3,
        "rich dilemma: the bundled profile verifies; no defect-vs-cooperate"
        " mass, cooperative mass positive, punishments on d-rows only",
        ok,
    )


def test_criterion_4_oracle_separation():
    game, spaces, _ = load_game("distribution_preference")
    p = {("Top", "Left"): ONE}
    q1 = {("Center",): HALF, ("Right",): HALF}
    gain = gain_vector(game, 0, "Down", p, q1)
    shadow = distribution_shadow_partial(spaces[0])
    zero_one = eq.separation_oracle_partial(shadow, game.outcomes, gain)
    lp = eq.separation_oracle_dist(spaces[0], game.outcomes, gain)
    ok = zero_one is None and lp is not None and lp[0] >= Fraction(1, 20)
    if ok:
        # the reported gap is achieved by the witness, exactly
        amount, witness = lp
        ok = deviation_gain(game, 0, "Down", witness, p, q1) == amount
        # and the hand-built certificate (9/20 on path, deviation worth 1/2)
        # is feasible, so the optimum is at least 1/20
        hand = dict.fromkeys(game.outcomes, ZERO)
        hand.update({"o11": Fraction(9, 20), "o23": ONE})
        ok = ok and deviation_gain(game, 0, "Down", hand, p, q1) == Fraction(1, 20)
    _report(
        4,
        "0/1 closure oracle is silent while the distribution LP oracle finds"
        " a gap of at least 1/20",
        ok,
    )


def test_criterion_5_intro_coordination():
    game, spaces, _ = load_game("coordination_ordinal")
    profile = load_profile("coordination_eq", game)
    res = eq.solve(game, spaces, eq.Aare(dict(profile.p)))
    ok = res.answer and verifier.verify(game, spaces, profile).is_equilibrium
    for variant in ("coordination_cardinal_a", "coordination_cardinal_b"):
        vgame, vspaces, _ = load_game(variant)
        ok = ok and verifier.verify(vgame, vspaces, profile).is_equilibrium
    _report(
        5,
        "(Top,Center) with pure punishments verifies on the ordinal game and"
        " both cardinal variants",
        ok,
    )


def test_criterion_6_zero_one_lemma_equivalence():
    rng = random.Random(606)
    agreements = 0
    for trial in range(200):
        game, spaces = random_game(
            rng.randint(0, 10**9),
            max_actions=2,
            max_outcomes=4,
            kind="partial_order",
        )
        finite = tuple(
            FiniteTypes(tuple(enumerate_extreme_types(s, game.outcomes)))
            for s in spaces
        )
        same_eore = (
            eq.solve(game, spaces, eq.Eore()).answer
            == eq.solve(game, finite, eq.Eore()).answer
        )
        target = next(iter(profiles_of(game)))
        same_sire = (
            eq.solve(game, spaces, eq.Sire(target)).answer
            == eq.solve(game, finite, eq.Sire(target)).answer
        )
        if same_eore and same_sire:
            agreements += 1
    _report(
        6,
        "cutting-plane and extreme-type solves agree on 200 random"
        " partial-order games (existence and support)",
        agreements == 200,
    )


def test_criterion_7_dominance_equivalence():
    rng = random.Random(707)
    agreements = 0
    for trial in range(200):
        game, spaces = random_game(
            rng.randint(0, 10**9),
            max_actions=2,
            max_outcomes=5,
            kind="total_order",
        )
        finite = tuple(_threshold_space(s) for s in spaces)
        same_solve = (
            eq.solve(game, spaces, eq.Eore()).answer
            == eq.solve(game, finite, eq.Eore()).answer
        )
        profile = random_profile_point(rng, game)
        by_dominance = verifier.verify(game, spaces, profile).is_equilibrium
        by_types = brute_verify(game, spaces, profile)
        if same_solve and by_dominance == by_types:
            agreements += 1
    _report(
        7,
        "threshold-constraint and finite-type formulations agree on 200"
        " random total-order instances (solve and verify)",
        agreements == 200,
    )


def test_criterion_8_flow_and_closure():
    rng = random.Random(808)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        items = tuple(f"e{k}" for k in range(n))
        values = {
            it: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for it in items
        }
        implications = tuple(
            tuple(rng.sample(items, 2))
            for _ in range(rng.randint(0, 2 * n) if n >= 2 else 0)
        )
        inst = ClosureInstance(items, values, implications)
        accepted, total = closure_solve(inst)
        _, best = closure_brute_force(items, values, implications)
        ok = ok and total == best
        # certificate: on the reduction network, flow value = cut capacity
        net = _closure_network(inst)
        value, cut = max_flow(net)
        cap = ZERO
        for frm, to, c in net.edges:
            if frm in cut and to not in cut:
                assert c is not None
                cap += c
        ok = ok and value == cap
    _report(
        8,
        "closure solver matches subset enumeration and every max flow equals"
        " its min cut, over 200 random instances",
        ok,
    )


def _closure_network(inst: ClosureInstance):
    """The standard source/sink reduction used by closure_solve, rebuilt
    here so the certificate check is independent."""
    index = {it: k + 1 for k, it in enumerate(inst.items)}
    n = len(inst.items)
    source, sink = 0, n + 1
    inf = sum((abs(v) for v in inst.values.values()), ZERO) + ONE
    edges = []
    for it, v in inst.values.items():
        if v > 0:
            edges.append((source, index[it], v))
        elif v < 0:
            edges.append((index[it], sink, -v))
    for a, b in inst.implications:
        if a != b:
            edges.append((index[a], index[b], inf))
    from ordineq.flow import FlowNetwork

    return FlowNetwork(
        num_nodes=n + 2, source=source, sink=sink, edges=tuple(edges)
    )


def _clause_family(num_vars: int):
    """All single-literal clauses over the variables."""
    return [((v,)) for v in range(1, num_vars + 1)] + [
        ((-v,)) for v in range(1, num_vars + 1)
    ]


def test_criterion_9_hardness_reduction():
    ok = True
    checked = 0
    # exhaustive: every formula with <= 3 clauses from the single-literal
    # family over m <= 3 variables
    for m in (1, 2, 3):
        pool = [(v,) for v in range(1, m + 1)] + [(-v,) for v in range(1, m + 1)]
        for size in range(0, 4):
            for clauses in itertools.combinations(pool, size):
                f = CnfFormula(m, tuple(clauses))
                ok = ok and _reduction_agrees(f)
                checked += 1
    # plus 100 random formulas with m <= 4 and wider clauses
    rng = random.Random(909)
    for _ in range(100):
        m = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(1, min(3, m))
            variables = rng.sample(range(1, m + 1), size)
            clauses.append(
                tuple(v if rng.random() < 0.5 else -v for v in variables)
            )
        ok = ok and _reduction_agrees(CnfFormula(m, tuple(clauses)))
        checked += 1
    _report(
        9,
        f"equilibrium existence of the reduced game equals unsatisfiability"
        f" on all {checked} formulas",
        ok,
    )


def _reduction_agrees(f: CnfFormula) -> bool:
    game, spaces = reduce_sat(f)
    res = check_cnf_existence(game, spaces)
    if not res.definitive:
        return False
    expected = "no" if sat_brute(f) else "yes_over_extreme_types"
    return res.answer == expected


def test_criterion_10_averaging():
    rng = random.Random(1010)
    ok = True
    for _ in range(1000):
        game, _ = random_game(
            rng.randint(0, 10**9), max_actions=3, max_outcomes=5
        )
        i = rng.randrange(game.num_players)
        u = {o: Fraction(rng.randint(0, 6), 6) for o in game.outcomes}
        opponents = list(opponents_profiles_of(game, i))
        rounds = []
        for _ in range(rng.randint(1, 5)):
            weights = [Fraction(rng.randint(0, 3)) for _ in opponents]
            total = sum(weights) or ONE
            if sum(weights) == 0:
                weights[0] = total
            rounds.append(
                {o: w / total for o, w in zip(opponents, weights) if w != 0}
            )
        lhs, rhs, holds = averaging_dominates(game, i, u, rounds)
        ok = ok and holds and lhs <= rhs
    _report(
        10,
        "averaged punishment is never worse than the averaged round values"
        " on 1000 random trials",
        ok,
    )


def test_criterion_11_pure_sustainment():
    ok = True
    checked = 0

    def sustained(game, spaces):
        nonlocal ok, checked
        try:
            pures = eq.find_pure_unmediated(game, spaces)
        except UnsupportedSpace:
            return
        for cell in pures:
            profile = point_profile(game, cell)
            ok = ok and verifier.verify(game, spaces, profile).is_equilibrium
            checked += 1

    for name in GAME_NAMES:
        game, spaces, _ = load_game(name)
        sustained(game, spaces)
    rng = random.Random(1111)
    kinds = ("total_order", "partial_order", "finite", "distribution_order")
    for trial in range(200):
        game, spaces = random_game(
            rng.randint(0, 10**9),
            max_actions=3,
            max_outcomes=5,
            kind=kinds[trial % len(kinds)],
        )
        sustained(game, spaces)
    _report(
        11,
        f"all {checked} pure unmediated equilibria found are sustained as"
        " mediated profiles",
        ok and checked > 0,
    )
