"""Incentive constraints, separation oracles and the cutting-plane solver
for the four decision problems (existence, support, attainability,
objective maximization) over robust mediated equilibria.

The master LP weighs on-path profiles p(a), grouped into classes of equal
columns, and punishments q_{-i}(a_{-i}), each in a block that sums to 1; an
AARE path fixes p, and its master has q columns only (`VariableLayout`).
For a witness utility vector u, player i and deviation a_i', the incentive
constraint is

    sum_a u(o(a)) p(a)  >=  sum_{a_{-i}} u(o(a_i', a_{-i})) q_{-i}(a_{-i})

RHS - LHS is linear in u, with the deviation's gain vector as its
per-outcome weights (`gain_vectors`).  Each type-space kind has one
separation oracle of that vector alone (`make_oracle`): the largest gain
over the kind's witness family (the listed types, the threshold vectors of
a total order, the up-sets of a partial order, the vertices of a
distribution order's polytope, the 0/1 models of a preference CNF), with a
witness attaining it.  `solve` adds the violated constraints as cuts to one
master tableau per call; a cut can never be strictly violated again, so
the loop terminates.  The verifier walks the same `deviation_hits`, and a
preference entailment is one oracle call on the gain e_o2 - e_o
(`_entails`).  No oracle, network, tableau or table outlives the call that
built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Mapping, Optional, Sequence, Union

from . import linprog
from .errors import UnsupportedSpace, ValidationError
from .flow import ClosureNetwork
from .games import (
    DistributionOrder,
    FiniteTypes,
    GameForm,
    MediatedProfile,
    ObjectiveSpec,
    PartialOrder,
    PreferenceCnf,
    Profile,
    TotalOrder,
    TypeSpaceSpec,
    check_distribution,
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
    validate_spaces,
)


#: An oracle's answer: the largest gain (strictly positive), in the gain
#: vector's units, with a witness type attaining it, or None when no
#: consistent type gains.  Order and CNF witnesses are 0/1 integers.
Hit = Optional[tuple[Rational, dict[str, Rational]]]

#: An order oracle's certificate: a flow y > 0 on pairs (a, b), a >= b, of
#: the order, keyed by the pair; a pair the order lists twice, or in both
#: directions, carries at most one entry (`verifier.check_flow`).
Flow = dict[tuple[str, str], Rational]

#: One space's separation oracle, a function of the gain vector alone
#: (`make_oracle`): its Hit, with the flow certificate of an order space's
#: answer, or None for the other kinds.
Oracle = Callable[[Mapping[str, Rational]], tuple[Hit, Optional[Flow]]]


@dataclass(frozen=True)
class Eore:
    pass


@dataclass(frozen=True)
class Sire:
    target: Profile


@dataclass(frozen=True)
class Aare:
    dist: Mapping[Profile, Fraction]


@dataclass(frozen=True)
class Omire:
    objective: ObjectiveSpec


ProblemQuery = Union[Eore, Sire, Aare, Omire]


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    profile: Optional[MediatedProfile] = None
    value: Optional[Fraction] = None


class VariableLayout:
    """The master LP's columns: p columns first, in profile order, then one
    q_{-i} block per player, in opponent-profile order.  `p_index` and
    each `q_index[i]` map profiles to their columns; each is one block of
    the master, summing to 1.

    One p column stands for a class of profiles whose master columns are
    equal, the duplicate-column step of LP presolve (Andersen & Andersen,
    "Presolving in linear programming", Math. Programming 71, 1995).  A
    profile a's column has 1 in the p block's row, witness[o(a)] in every
    cut and `weights[a]` in the objective, so a class is an (outcome,
    weight) pair: the outcome alone for EORE (no weights), the outcome and
    whether a is the target for SIRE (weight 1), the outcome and g(a) for
    OMIRE.  A class's column is its first profile.

    Dropping the later profiles of a class changes no pivot and no vertex.
    Take equal columns j < j'.  Under a basis that holds neither, their
    dictionary columns (`linprog.Tableau`) and reduced costs are equal, and
    every choice Bland's rule makes between them goes to j: the primal
    simplex enters the lowest label of negative reduced cost, the dual
    ratio test breaks ties to the lowest label, and a block starts basic on
    its first column.  Under a basis that holds j, the dictionary column of
    j' is the unit column of j's row: the row's denominator there, 0 in
    every other row, and reduced cost 0.  A joining row, rewritten over
    the nonbasic columns, gets 0 in it.  So j' neither prices negative nor
    has a negative entry in a leaving row; it never enters, and its
    variable stays 0.  Without it the other labels keep their order, so
    Bland's rule makes the same choices, and a profile left out decodes to
    weight 0, as it did.

    With a `path` d, as for AARE, p = d is fixed and has no columns.  The
    on-path side of a cut is then the constant sum_a u(o(a)) d(a) = c_u,
    c_u = sum_o mu_d(o) u(o) with mu_d = `outcome_distribution(game, d)`,
    and player i's block sums to 1, so c_u = c_u * sum q_{-i}.  The cut
    c_u >= sum_{a_{-i}} u(o(a_i', a_{-i})) q_{-i}(a_{-i}) thus reads
    sum_{a_{-i}} (c_u - u(o(a_i', a_{-i}))) q_{-i}(a_{-i}) >= 0: right-hand
    side 0, on player i's block alone.  On the q blocks these rows keep the
    same points as the rows over (p, q) with p = d did, so every AARE
    answer is the same, and `decode` returns p = d.

    A cut's row (`cut_row`) is read from tables built with the layout: the
    outcome of each p column, the path's outcome distribution, and for
    each (player, deviation) the outcome each q column of the player's
    block meets.
    """

    def __init__(
        self,
        game: GameForm,
        weights: Mapping[Profile, Rational],
        path: Optional[Mapping[Profile, Rational]] = None,
    ):
        self.game = game
        self.weights = weights
        profiles = tuple(profiles_of(game))
        first: dict[tuple[str, Rational], Profile] = {}
        if path is None:
            for prof in profiles:
                first.setdefault((game.outcome_of(prof), weights.get(prof, 0)), prof)
            self.path = None
            self.path_outcomes = []
        else:
            self.path = {prof: Fraction(path[prof]) for prof in profiles if path.get(prof, 0)}
            self.path_outcomes = [(o, w) for o, w in outcome_distribution(game, path).items() if w]
        self.p_index = {prof: k for k, prof in enumerate(first.values())}
        self.q_index = []
        base = len(self.p_index)
        for i in range(game.num_players):
            opp = tuple(opponents_profiles_of(game, i))
            self.q_index.append({prof: base + k for k, prof in enumerate(opp)})
            base += len(opp)
        self.num_vars = base
        self.p_outcomes = [(k, game.outcome_of(prof)) for prof, k in self.p_index.items()]
        self.deviation_outcomes = {
            (i, a): [(k, game.outcome_of(game.insert(i, a, opp))) for opp, k in q_i.items()]
            for i, q_i in enumerate(self.q_index)
            for a in game.action_sets[i]
        }

    def decode(self, assignment: Sequence[Fraction]) -> MediatedProfile:
        def support(index):
            return {prof: assignment[k] for prof, k in index.items() if assignment[k] != 0}

        p = support(self.p_index) if self.path is None else dict(self.path)
        return MediatedProfile(p, tuple(support(q_i) for q_i in self.q_index))

    def p_objective(self) -> tuple[Rational, ...]:
        """The coefficients of sum_a weights[a] p(a): each column carries its
        class's weight."""
        coeffs = [0] * self.num_vars
        for prof, k in self.p_index.items():
            coeffs[k] = self.weights.get(prof, 0)
        return tuple(coeffs)

    def cut_row(self, i: int, a: str, witness: Mapping[str, Rational]) -> list[Rational]:
        """The coefficients of the cut LHS - RHS >= 0 of the witness
        against player i's deviation to a; c_u is 0 without a path."""
        row = [0] * self.num_vars
        for k, o in self.p_outcomes:
            row[k] = witness[o]
        c_u = sum(w * witness[o] for o, w in self.path_outcomes)
        for k, o in self.deviation_outcomes[i, a]:
            row[k] = c_u - witness[o]
        return row


def gain_vectors(
    game: GameForm, profile: MediatedProfile
) -> tuple[int, list[dict[str, dict[str, int]]]]:
    """(den, gains): `gains[i][a]` maps each outcome to den times its weight
    in player i's gain from deviating to a (deviation payoff minus on-path
    payoff, linear in u); den, the lcm of the profile's weight denominators,
    makes each an integer.  The on-path distribution is computed once."""
    dists = (profile.p, *profile.q)
    den = math.lcm(*(w.denominator for dist in dists for w in dist.values()))
    p, *q = ({k: w.numerator * (den // w.denominator) for k, w in d.items()} for d in dists)
    minus_on_path = {o: -w for o, w in outcome_distribution(game, p).items()}
    gains = []
    for i, q_i in enumerate(q):
        by_action = {}
        for a in game.action_sets[i]:
            v = dict(minus_on_path)
            for opp, w in q_i.items():
                if w != 0:
                    v[game.outcome_of(game.insert(i, a, opp))] += w
            by_action[a] = v
        gains.append(by_action)
    return den, gains


def separation_oracle_total(
    spec: TotalOrder, outcomes: tuple[str, ...], gain: Mapping[str, Rational]
) -> tuple[Hit, Flow]:
    """Best threshold witness, by one scan over the order's prefixes, and
    its flow certificate.

    The threshold vector of a prefix gives utility 1 to its outcomes and 0
    to the rest; its gain is the prefix sum of the gain weights.  The first
    prefix of maximum gain is returned: it is the minimal maximum-weight
    closure of the order's chain, the witness the closure oracle would find.
    With S_k the k-th prefix sum and M = max(0, max_k S_k) the best gain,
    the certificate puts M - S_k on the chain pair (order[k-1], order[k]):
    the net weight (`verifier.check_flow`) of the first outcome is then M,
    of every inner one 0, and of the last one S_n - M <= 0.
    """
    best = 0
    best_k = 0
    acc = 0
    sums = []
    for k, o in enumerate(spec.order, start=1):
        acc += gain[o]
        sums.append(acc)
        if acc > best:
            best, best_k = acc, k
    chain = zip(spec.order, spec.order[1:])
    flow = {pair: best - s for pair, s in zip(chain, sums) if s < best}
    if best > 0:
        top = set(spec.order[:best_k])
        return (best, {o: int(o in top) for o in outcomes}), flow
    return None, flow


def separation_oracle_partial(
    network: ClosureNetwork, outcomes: tuple[str, ...], gain: Sequence[Rational]
) -> tuple[Hit, Flow]:
    """Best 0/1 upward-closed witness of a partial order, and its flow
    certificate, from the order's closure network (`make_oracle`).

    The network's items are the outcomes, and each pair (o, o') of the
    order is the implication (o', o): accepting o' forces accepting o, so
    an accepted set is exactly the 1-set of a consistent 0/1 vector.  The
    witness is the minimal best one (`flow.ClosureNetwork.solve`), and the
    certificate the closure's flow on the implication arcs, each keyed by
    its pair (o, o').  `gain` lists each outcome's gain in the order of
    `outcomes`, as `make_oracle` keys it.
    """
    accepted, best, y = network.solve(gain)
    flow = {(a, b): f for (b, a), f in y.items()}
    if best > 0:
        return (best, {o: int(o in accepted) for o in outcomes}), flow
    return None, flow


def distribution_polytope(spec: DistributionOrder, outcomes: tuple[str, ...]) -> linprog.Tableau:
    """The boxed tableau (`linprog.Tableau(..., boxed=True)`) of a
    distribution order's polytope in [0,1]^O: one row r1·u - r2·u >= 0 per
    pair, in integer numerators over the lcm of the pair's weight
    denominators, and no row for the box u <= 1, which the tableau keeps on
    its columns.  Every row starts on its slack, so its first basis is the
    vertex 0, reached with no pivot."""
    idx = {name: k for k, name in enumerate(outcomes)}
    n = len(outcomes)
    rows = []
    for r1, r2 in spec.pairs:
        den = math.lcm(*(w.denominator for r in (r1, r2) for w in r.values()))
        row = [0] * n
        for sign, r in ((1, r1), (-1, r2)):
            for name, w in r.items():
                row[idx[name]] += sign * w.numerator * (den // w.denominator)
        rows.append(row)
    return linprog.Tableau(n, rows=rows, boxed=True)


def separation_oracle_dist(
    polytope: linprog.Tableau, outcomes: tuple[str, ...], gain: Sequence[Rational]
) -> Hit:
    """Best witness in a distribution order's polytope
    (`distribution_polytope`): the maximum gain over it, by
    `linprog.Tableau.optimize` from the basis the last gain ended on, and a
    vertex attaining it.  `gain` lists each outcome's gain in the order of
    `outcomes`, as `make_oracle` keys it.  The polytope holds 0 and lies in
    the unit box, so the maximum exists and is at least 0.  The vertex is
    read (`linprog.Tableau.point`) only when the maximum is positive, so a
    miss, which every call is in `verify` of a robust profile, builds no
    `Fraction` of it."""
    value = polytope.optimize(gain)
    if value > 0:
        return value, dict(zip(outcomes, polytope.point()))
    return None


def finite_scan_oracle(
    spec: FiniteTypes, outcomes: tuple[str, ...], gain: Mapping[str, Rational]
) -> Hit:
    """Exhaustive scan over the listed types; the first type of maximum
    gain is the witness."""
    terms = [(o, w) for o, w in gain.items() if w != 0]
    best = None
    best_u = None
    for u in spec.types:
        g = sum(w * u[o] for o, w in terms)
        if g > 0 and (best is None or g > best):
            best = g
            best_u = u
    if best is not None:
        return best, dict(best_u)
    return None


def best_cnf_model(
    spec: PreferenceCnf, outcomes: tuple[str, ...], weights: Mapping[str, Rational]
) -> Hit:
    """The largest sum of `weights[o] * u(o)` over the 0/1 models u of the
    CNF, with a model attaining it, or None if no model has a positive sum.

    For weights that sum to zero, as every gain vector's do, this is also
    the largest sum over every consistent utility vector in [0,1]^O, and a
    consistent vector anywhere has a positive sum only if some model does;
    so a cutting plane over the models is exact.  Proof: the consistent
    set is the union, over the branches beta that pick one atom (a, b) per
    clause, of the cones C_beta = {u : u_a >= u_b for each picked atom}.
    Adding a constant to u keeps it in C_beta and, the weights summing to
    zero, keeps its sum; scaling u by a positive factor keeps it in C_beta
    and scales its sum.  So every u in C_beta maps into the polytope
    C_beta ∩ [0,1]^O with the sign of its sum kept.  That polytope is cut
    out by difference rows and unit bounds, a totally unimodular matrix
    with integer right-hand sides (Hoffman & Kruskal 1956), so its vertices
    are 0/1 vectors; each satisfies beta, so it is a model, and the linear
    sum is largest at one of them.

    Over 0/1 utilities the atom (a >= b) is the Boolean clause
    u_a or not u_b, so the models are assignments of one variable per
    outcome.  An outcome that no clause names takes the value its weight's
    sign prefers, 1 if the weight is positive, else 0, before the search:
    its other value would give the same models at a value no higher.  A
    depth-first branch and bound assigns the named variables in order of
    decreasing |weight|, each first to the value its weight's sign
    prefers.  The solver passes integer weights in gain units, so the
    search is plain integer work.  A partial assignment is pruned when it
    falsifies a clause, or when its value plus the remaining positive
    weights does not beat the best model so far.
    The all-zero vector satisfies every nonempty clause, so the search only
    looks for a positive value; a space with an empty clause has no model.
    """
    if any(not clause for clause in spec.clauses):
        return None
    n = len(outcomes)
    idx = {o: k for k, o in enumerate(outcomes)}
    w = [weights.get(o, 0) for o in outcomes]
    # falsified[k][bit]: the clauses with a literal on u_k that u_k = bit
    # makes false; live[c]: the literals of clause c not yet false.
    falsified = [([], []) for _ in range(n)]
    for c, clause in enumerate(spec.clauses):
        for a, b in clause:
            falsified[idx[a]][0].append(c)
            falsified[idx[b]][1].append(c)
    live = [2 * len(clause) for clause in spec.clauses]
    named = [bool(f0 or f1) for f0, f1 in falsified]
    order = [k for k in sorted(range(n), key=lambda k: -abs(w[k])) if named[k]]
    d = len(order)
    rest = [0] * (d + 1)  # rest[t]: the positive weights from order[t] on
    for t in range(d - 1, -1, -1):
        rest[t] = rest[t + 1] + max(w[order[t]], 0)
    u = [int(wk > 0) for wk in w]  # an unnamed outcome keeps its first bit
    best, best_u = 0, None
    # An explicit stack, not recursion, so any number of outcomes fits:
    # depth t tries the bits of order[t] in `tried[t]` order; value[t] is
    # the value of the assignment above depth t, unnamed outcomes included.
    value = [0] * (d + 1)
    value[0] = sum(wk for wk, nk in zip(w, named) if wk > 0 and not nk)
    tried = [0] * d
    t, descend = 0, True
    while t >= 0:
        if descend:
            if value[t] + rest[t] <= best:
                t, descend = t - 1, False
                continue
            if t == d:
                best, best_u = value[t], u[:]
                t, descend = t - 1, False
                continue
            tried[t] = 0
        else:  # back from depth t + 1: undo the bit tried at depth t
            for c in falsified[order[t]][u[order[t]]]:
                live[c] += 1
        k = order[t]
        bits = (1, 0) if w[k] > 0 else (0, 1)
        descend = False
        while tried[t] < 2 and not descend:
            bit = bits[tried[t]]
            tried[t] += 1
            hit = falsified[k][bit]
            for c in hit:
                live[c] -= 1
            if all(live[c] for c in hit):
                u[k] = bit
                value[t + 1] = value[t] + bit * w[k]
                descend = True
            else:
                for c in hit:
                    live[c] += 1
        t += 1 if descend else -1

    if best_u is None:
        return None
    return best, dict(zip(outcomes, best_u))


def make_oracle(spec: TypeSpaceSpec, outcomes: tuple[str, ...]) -> Oracle:
    """The separation oracle of one space, as a function of the gain vector
    alone: the largest gain `sum_o gain[o] * u(o)` over the witness family
    of the space, with a witness u attaining it, or None if no consistent
    type gains; and for a total or partial order, the flow that certifies
    it, also when no type gains.  The solver and the verifier pass integer
    gains (`gain_vectors`).

    The oracle answers each gain once: it keeps a dict from the gain
    vector, `tuple(gain[o] for o in outcomes)`, to its answer, and a gain
    it has seen gets the stored answer without a search.  That is exact,
    because every kind returns the maximum over a fixed witness family, a
    function of the gain alone; only a distribution order's witness among
    several of equal gain depends on the basis it starts from.  Nor can a
    stored answer repeat a cut in `solve`: a stored hit that gains at the
    current point would mean the point violates a cut it already
    satisfies.  A stored flow certifies the stored hit, as it did when it
    was found.  A partial order's oracle keeps one closure network of the
    order (`flow.ClosureNetwork`), and a distribution order's one boxed
    tableau of its polytope (`distribution_polytope`), both built with the
    oracle.  Each is handed a new gain's key, already in outcome order: the
    network takes it as item values, new capacities on the same arcs, and
    the tableau as its objective, optimized from the basis, and the
    flipped columns, the last gain ended on.  So `solve`, `verify` and
    `find_pure_unmediated` build one oracle per space per call, and the
    dict, the network and the tableau go with it when the call returns.
    Every new gain looks its kind's function up on this module."""
    if isinstance(spec, FiniteTypes):
        search = lambda gain, key: (finite_scan_oracle(spec, outcomes, gain), None)
    elif isinstance(spec, TotalOrder):
        search = lambda gain, key: separation_oracle_total(spec, outcomes, gain)
    elif isinstance(spec, PartialOrder):
        network = ClosureNetwork(outcomes, tuple((b, a) for a, b in spec.pairs))
        search = lambda gain, key: separation_oracle_partial(network, outcomes, key)
    elif isinstance(spec, DistributionOrder):
        polytope = distribution_polytope(spec, outcomes)
        search = lambda gain, key: (separation_oracle_dist(polytope, outcomes, key), None)
    elif isinstance(spec, PreferenceCnf):
        search = lambda gain, key: (best_cnf_model(spec, outcomes, gain), None)
    else:
        raise UnsupportedSpace(f"no separation oracle for {type(spec).__name__}")
    answers: dict[tuple[Rational, ...], tuple[Hit, Optional[Flow]]] = {}

    def oracle(gain: Mapping[str, Rational]) -> tuple[Hit, Optional[Flow]]:
        key = tuple(gain[o] for o in outcomes)
        if key not in answers:
            answers[key] = search(gain, key)
        return answers[key]

    return oracle


def deviation_hits(game: GameForm, oracles: Sequence[Oracle], profile: MediatedProfile):
    """Yield (player, deviation, den, gain vector, hit, flow) for every
    player's every deviation, in player and action order (`gain_vectors`),
    from player i's oracle `oracles[i]`: its hit, and its flow certificate
    or None (`make_oracle`)."""
    den, gains = gain_vectors(game, profile)
    for i, by_action in enumerate(gains):
        for a, gain in by_action.items():
            hit, flow = oracles[i](gain)
            yield i, a, den, gain, hit, flow


def solve(
    game: GameForm,
    spaces: Sequence[TypeSpaceSpec],
    query: ProblemQuery,
) -> SolveResult:
    """Answer one of the four decision problems.

    Every space and the query are first validated against the game.  One
    master tableau serves the whole call.  Its layout (`VariableLayout`)
    and objective are built once, and its blocks are the layout's p block,
    if it has one, and its q blocks, with no cuts.  Each round optimizes
    the objective from the basis the last round ended on, builds the gain
    vector of every player's every deviation at the LP's point and asks
    the player's oracle, built once per call (`make_oracle`), for its most
    violated constraint (`deviation_hits`).  Each becomes its row once
    (`cut_row`); the batch, sorted by (player, deviation) for
    reproducibility, joins after the earlier cuts
    (`linprog.Tableau.add_rows`).  The layout, the tableau and the oracles
    are dropped when the call returns.
    """
    validate_spaces(game, spaces)
    path = None
    if isinstance(query, Eore):
        weights = {}
    elif isinstance(query, Sire):
        if not isinstance(query.target, tuple) or query.target not in set(profiles_of(game)):
            raise ValidationError(f"unknown target profile {query.target}")
        weights = {query.target: 1}
    elif isinstance(query, Aare):
        check_distribution(query.dist, set(profiles_of(game)), "AARE path")
        weights, path = {}, query.dist
    elif isinstance(query, Omire):
        query.objective.validate(game)
        weights = query.objective.g
    else:
        raise ValidationError(f"unknown query {query!r}")
    layout = VariableLayout(game, weights, path)
    blocks = [list(q_i.values()) for q_i in layout.q_index]
    if layout.p_index:
        blocks.insert(0, list(layout.p_index.values()))
    objective = layout.p_objective() if isinstance(query, (Sire, Omire)) else None

    tableau = linprog.Tableau(layout.num_vars, blocks)
    seen: set[tuple[int, str, tuple[Rational, ...]]] = set()
    oracles = [make_oracle(spec, game.outcomes) for spec in spaces]

    while True:
        value = tableau.optimize(objective)
        if not tableau.feasible:
            return SolveResult(answer=False)
        profile = layout.decode(tableau.point())

        hits = [
            (i, a, hit[1])
            for i, a, _, _, hit, _ in deviation_hits(game, oracles, profile)
            if hit is not None
        ]

        if not hits:
            if isinstance(query, (Eore, Aare)):
                return SolveResult(answer=True, profile=profile)
            ok = value > 0 if isinstance(query, Sire) else value >= query.objective.threshold
            return SolveResult(ok, profile if ok else None, value)

        hits.sort(key=lambda h: h[:2])
        for i, a, witness in hits:
            key = (i, a, tuple(witness[o] for o in game.outcomes))
            if key in seen:
                raise AssertionError(
                    "separation oracle repeated a witness; cutting plane would not terminate"
                )
            seen.add(key)
        tableau.add_rows([layout.cut_row(i, a, witness) for i, a, witness in hits])


def _entails(oracle: Oracle, outcomes: tuple[str, ...], o: str, o2: str) -> bool:
    """True iff no witness of the oracle's space gains from swapping outcome
    o for o2, gain e_o2 - e_o.  The oracle is not asked when o == o2: that
    gain is zero, and no oracle reports a zero gain."""
    if o == o2:
        return True
    gain = dict.fromkeys(outcomes, 0)
    gain[o2] = 1
    gain[o] = -1
    return oracle(gain)[0] is None


def find_pure_unmediated(
    game: GameForm, spaces: Sequence[TypeSpaceSpec]
) -> list[Profile]:
    """All profiles where every unilateral deviation leads to an outcome the
    deviator weakly disprefers under every consistent type, asked of the
    player's oracle for this call (`_entails`).  Each entailment depends
    only on (player, o, o2), and its swap gain e_o2 - e_o is searched once
    per call (`make_oracle`)."""
    validate_spaces(game, spaces)
    outcomes = game.outcomes
    oracles = [make_oracle(spec, outcomes) for spec in spaces]
    result = []
    for prof in profiles_of(game):
        o = game.outcome_of(prof)
        if all(
            _entails(oracles[i], outcomes, o, game.outcome_of(game.insert(i, a, prof[:i] + prof[i + 1 :])))
            for i in range(game.num_players)
            for a in game.action_sets[i]
        ):
            result.append(prof)
    return result
