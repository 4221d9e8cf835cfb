"""Seeded workload generators.

Every workload is a fixed pool of queries derived from ``(workload, seed)``
alone.  A query carries only documents (game JSON, query-parameter JSON or
DIMACS text); the program under test never sees a generator object.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ordineq import gamedoc
from ordineq.games import DistributionOrder, FiniteTypes, GameForm, PartialOrder, TotalOrder
from ordineq.rational import rational_render

#: Queries per pool.  One pass over a pool is the unit of work of a run.
POOL_SIZE = {"master_lp": 96, "lazy_cuts": 288, "sat_cnf": 128}


#: Clauses per variable of the random 3-CNF.  4.26 is the asymptotic
#: satisfiability threshold; at m = 6-8 variables only about a fifth of such
#: formulas are unsatisfiable, and the measured half-way point is near 5.3.
CLAUSE_RATIO = 5.3


@dataclass(frozen=True)
class Query:
    qid: int
    kind: str  # "eore" | "sire" | "aare" | "omire" | "cnf"
    game_id: int
    doc: str  # game JSON, or DIMACS text for "cnf"
    param: str  # JSON parameter document ("" when the query takes none)


def _key(prof) -> str:
    return gamedoc.PROFILE_KEY_SEP.join(prof)


def _game(rng: random.Random, num_outcomes: int, players: int, actions: int) -> GameForm:
    """Every outcome labels at least one cell."""
    action_sets = tuple(tuple(f"a{i}_{k}" for k in range(actions)) for i in range(players))
    outcomes = tuple(f"w{k}" for k in range(num_outcomes))
    cells = list(product(*action_sets))
    rng.shuffle(cells)
    mapping = {
        prof: outcomes[k] if k < num_outcomes else rng.choice(outcomes)
        for k, prof in enumerate(cells)
    }
    return GameForm(action_sets, outcomes, mapping)


def _total(rng: random.Random, outcomes) -> TotalOrder:
    order = list(outcomes)
    rng.shuffle(order)
    return TotalOrder(tuple(order))


def _finite(rng: random.Random, outcomes) -> FiniteTypes:
    return FiniteTypes(
        tuple(
            {o: Fraction(rng.randint(0, 4), 4) for o in outcomes}
            for _ in range(rng.randint(2, 4))
        )
    )


def _partial(rng: random.Random, outcomes) -> PartialOrder:
    """A hidden ranking with one or two adjacent links dropped, plus one
    longer-range link that agrees with it."""
    order = _total(rng, outcomes).order
    dropped = set(rng.sample(range(len(order) - 1), rng.randint(1, 2)))
    pairs = [(order[k], order[k + 1]) for k in range(len(order) - 1) if k not in dropped]
    a, b = sorted(rng.sample(range(len(order)), 2))
    pairs.append((order[a], order[b]))
    return PartialOrder(tuple(pairs))


def _distribution(rng: random.Random, outcomes) -> DistributionOrder:
    """Point-mass links of a hidden ranking, plus one or two lottery pairs
    that rank an outcome against a mix of a better and a worse outcome."""
    order = _total(rng, outcomes).order
    pairs = [({order[k]: Fraction(1)}, {order[k + 1]: Fraction(1)}) for k in range(len(order) - 1)]
    for _ in range(rng.randint(1, 2)):
        hi, mid, lo = sorted(rng.sample(range(len(order)), 3))
        w = Fraction(rng.randint(1, 3), 4)
        pairs.append(({order[mid]: Fraction(1)}, {order[hi]: w, order[lo]: 1 - w}))
    return DistributionOrder(tuple(pairs))


def _rat_doc(mapping) -> dict:
    return {_key(k): rational_render(Fraction(v)) for k, v in mapping.items()}


def _params(rng: random.Random, game: GameForm, kind: str) -> str:
    cells = list(product(*game.action_sets))
    if kind == "eore":
        return ""
    if kind == "sire":
        return json.dumps({"target": _key(rng.choice(cells))})
    if kind == "aare":
        support = rng.sample(cells, rng.randint(1, 3))
        weights = [rng.randint(1, 3) for _ in support]
        return json.dumps({"path": _rat_doc({c: Fraction(w, sum(weights)) for c, w in zip(support, weights)})})
    objective = {c: 1 for c in cells if rng.random() < 0.5}
    return json.dumps({"objective": _rat_doc(objective), "threshold": "1/2"})


def _game_pool(rng, strata, size) -> list[Query]:
    """One game per stratum, in seeded order.  A stratum fixes the outcome
    count, the actions per player, each player's space kind and the query
    kinds asked of the game, so every seed draws the same mix and only the
    random content differs."""
    strata = list(strata)
    rng.shuffle(strata)
    pool: list[Query] = []
    for game_id, (num_outcomes, actions, makers, kinds) in enumerate(strata):
        game = _game(rng, num_outcomes, len(makers), actions)
        spaces = tuple(make(rng, game.outcomes) for make in makers)
        text = gamedoc.serialize_game(game, spaces)
        for kind in kinds:
            pool.append(Query(len(pool), kind, game_id, text, _params(rng, game, kind)))
    return pool[:size]


def _satisfiable(m: int, clauses) -> bool:
    """Brute force over the 2^m assignments, one bit mask per clause sign."""
    masks = []
    for clause in clauses:
        pos = sum(1 << (v - 1) for v in clause if v > 0)
        neg = sum(1 << (-v - 1) for v in clause if v < 0)
        masks.append((pos, neg))
    full = (1 << m) - 1
    return any(all(a & pos or ~a & full & neg for pos, neg in masks) for a in range(1 << m))


#: Formulas of a sat_cnf pool per (variables, satisfiable), in eighths of
#: the pool.  Each stratum's latencies form a cluster; with equal strata the
#: pool's median fell in the gap between the clusters below 180 ms and those
#: above, and moved by up to 17% between two runs of one seed.  Three eighths
#: of satisfiable m = 8 formulas put the median inside the two overlapping
#: clusters of satisfiable m = 7 and unsatisfiable m = 8 formulas, and the
#: 11th-largest latency inside the satisfiable m = 8 cluster.  The "yes"
#: answers, which are verified, stay equal across m, so the median
#: verification time lies inside the m = 7 cluster.
CNF_STRATA = {(6, True): 1, (7, True): 1, (8, True): 3, (6, False): 1, (7, False): 1, (8, False): 1}


def _cnf_pool(rng: random.Random, size: int) -> list[Query]:
    """Formulas for each m in 6..8 in the proportions of CNF_STRATA, in
    seeded order."""
    unit = -(-size // sum(CNF_STRATA.values()))
    formulas = []
    for m in (6, 7, 8):
        want = {sat: unit * CNF_STRATA[m, sat] for sat in (True, False)}
        while want[True] or want[False]:
            clauses = [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), 3)]
                for _ in range(round(CLAUSE_RATIO * m))
            ]
            sat = _satisfiable(m, clauses)
            if want[sat]:
                want[sat] -= 1
                lines = [f"p cnf {m} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
                formulas.append("\n".join(lines) + "\n")
    rng.shuffle(formulas)
    return [Query(k, "cnf", k, text, "") for k, text in enumerate(formulas[:size])]


def generate(name: str, seed: int, size: int | None = None) -> list[Query]:
    """The workload's query pool for one seed; ``size`` shrinks it for the
    self-test."""
    rng = random.Random(f"{name}:{seed}")
    size = POOL_SIZE[name] if size is None else size
    if name == "master_lp":
        # Total orders of 6-8 outcomes and 2-4 finite types stay within
        # EXPLICIT_ROW_LIMIT, so every incentive row is emitted up front.
        # Strata: 3 outcome counts x the 8 ways to give each player a total
        # order or a finite type list; every game gets all four queries.
        strata = [
            (n, 3, tuple(_total if combo >> i & 1 else _finite for i in range(3)), ("eore", "sire", "aare", "omire"))
            for n in (6, 7, 8)
            for combo in range(8)
        ]
        return _game_pool(rng, strata, size)
    if name == "lazy_cuts":
        # 2 players x 4 actions, 10 outcomes: 10 x 4 = 40 total-order rows
        # exceeds the row limit, so every space here goes through a
        # separation oracle.  Each game gets one query.  Blocks of 9 games
        # take each pair of space kinds (seeded player order) with each
        # query kind once.
        pairs = ((_partial, _distribution), (_distribution, _total), (_total, _partial))
        strata = []
        for k in range(size):
            makers = list(pairs[k % 3])
            rng.shuffle(makers)
            strata.append((10, 4, tuple(makers), (("eore", "sire", "omire")[k // 3 % 3],)))
        return _game_pool(rng, strata, size)
    if name == "sat_cnf":
        return _cnf_pool(rng, size)
    raise KeyError(name)


WORKLOADS = tuple(POOL_SIZE)
