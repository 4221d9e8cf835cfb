"""Incentive-constraint generation, separation oracles, and the solver for
the four decision problems (existence, support, attainability, objective
maximization) over robust mediated equilibria.

The feasibility system has one variable per on-path profile weight p(a)
and one per punishment weight q_{-i}(a_{-i}).  Incentive constraints say
that for a witness utility vector u, player i, and deviation a_i':

    sum_a u(o(a)) p(a)  >=  sum_{a_{-i}} u(o(a_i', a_{-i})) q_{-i}(a_{-i})

RHS - LHS is linear in u: its per-outcome weights are the deviation's
gain vector, which `gain_vectors` builds once per (player, deviation) from
the on-path outcome distribution.  Each of the five type-space kinds has
one separation oracle of that vector alone, reached through
`separate(spec, outcomes, gain)`: it returns the largest gain over the
kind's finite witness family, with a witness attaining it.  The families
are the listed types of a finite space, the threshold vectors of a total
order, the upward-closed 0/1 vectors of a partial order, the vertices of a
distribution order's polytope, and the 0/1 models of a preference CNF.
The solver adds violated constraints in a cutting-plane loop; an added
constraint can never be strictly violated again, so the loop terminates.
The verifier calls the same oracles on the same gain vectors, and
`entails_preference`, which `find_pure_unmediated` asks of every
unilateral deviation, is one oracle call on the gain vector e_o2 - e_o.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import linprog
from .errors import UnknownOutcome, UnsupportedSpace, ValidationError
from .flow import ClosureInstance, closure_solve
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
    opponents_profiles_of,
    outcome_distribution,
    profiles_of,
    validate_spaces,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class IncentiveConstraint:
    player: int
    deviation: str
    utility: tuple[Fraction, ...]  # indexed by game.outcomes


#: An oracle's answer: the largest gain (strictly positive) with a witness
#: type attaining it, or None when no consistent type gains.
Hit = Optional[tuple[Fraction, dict[str, Fraction]]]


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
    """p variables first (profile order), then q_{-i} blocks per player."""

    def __init__(self, game: GameForm):
        self.game = game
        self.profiles = tuple(profiles_of(game))
        self.p_index = {prof: k for k, prof in enumerate(self.profiles)}
        self.q_index = []
        base = len(self.profiles)
        for i in range(game.num_players):
            opp = tuple(opponents_profiles_of(game, i))
            self.q_index.append({prof: base + k for k, prof in enumerate(opp)})
            base += len(opp)
        self.num_vars = base

    def decode(self, assignment: Sequence[Fraction]) -> MediatedProfile:
        p = {
            prof: assignment[k]
            for prof, k in self.p_index.items()
            if assignment[k] != 0
        }
        q = []
        for i in range(self.game.num_players):
            q.append(
                {
                    prof: assignment[k]
                    for prof, k in self.q_index[i].items()
                    if assignment[k] != 0
                }
            )
        return MediatedProfile(p, tuple(q))


def build_lp1(
    game: GameForm,
    constraints: Sequence[IncentiveConstraint],
    objective: Optional[tuple[Mapping[Profile, Fraction], str]] = None,
    fixed_p: Optional[Mapping[Profile, Fraction]] = None,
) -> tuple[linprog.LinearProgram, VariableLayout]:
    """Assemble the feasibility/optimization LP over (p, q) variables."""
    layout = VariableLayout(game)
    n = layout.num_vars
    rows = []

    row = [ZERO] * n
    for k in layout.p_index.values():
        row[k] = ONE
    rows.append(linprog.constraint(row, linprog.EQ, ONE))
    for i in range(game.num_players):
        row = [ZERO] * n
        for k in layout.q_index[i].values():
            row[k] = ONE
        rows.append(linprog.constraint(row, linprog.EQ, ONE))

    for c in constraints:
        rows.append(linprog.constraint(incentive_row(game, layout, c), linprog.GE, ZERO))

    if fixed_p is not None:
        for prof, k in layout.p_index.items():
            row = [ZERO] * n
            row[k] = ONE
            rows.append(linprog.constraint(row, linprog.EQ, fixed_p.get(prof, ZERO)))

    obj = None
    if objective is not None:
        weights, direction = objective
        coeffs = [ZERO] * n
        for prof, w in weights.items():
            coeffs[layout.p_index[prof]] = Fraction(w)
        obj = (tuple(coeffs), direction)

    lp = linprog.LinearProgram(num_vars=n, constraints=tuple(rows), objective=obj)
    return lp, layout


def incentive_row(
    game: GameForm, layout: VariableLayout, c: IncentiveConstraint
) -> list[Fraction]:
    """Coefficients of LHS - RHS >= 0 for one incentive constraint."""
    u = dict(zip(game.outcomes, c.utility))
    row = [ZERO] * layout.num_vars
    for prof, k in layout.p_index.items():
        row[k] += u[game.outcome_of(prof)]
    i = c.player
    for opp, k in layout.q_index[i].items():
        full = game.insert(i, c.deviation, opp)
        row[k] -= u[game.outcome_of(full)]
    return row


def gain_vectors(game: GameForm, profile: MediatedProfile) -> list[dict[str, dict[str, Fraction]]]:
    """`gain_vectors(game, profile)[i][a]` maps each outcome to its weight
    in player i's gain from deviating to a (deviation payoff minus on-path
    payoff) as a linear function of the utility vector.  The on-path
    outcome distribution is computed once for every player and deviation."""
    minus_on_path = {o: -w for o, w in outcome_distribution(game, profile.p).items()}
    gains = []
    for i, q_i in enumerate(profile.q):
        by_action = {}
        for a in game.action_sets[i]:
            v = dict(minus_on_path)
            for opp, w in q_i.items():
                if w != 0:
                    v[game.outcome_of(game.insert(i, a, opp))] += w
            by_action[a] = v
        gains.append(by_action)
    return gains


def separation_oracle_total(
    spec: TotalOrder, outcomes: tuple[str, ...], gain: Mapping[str, Fraction]
) -> Hit:
    """Best threshold witness, by one scan over the order's prefixes.

    The threshold vector of a prefix gives utility 1 to its outcomes and 0
    to the rest; its gain is the prefix sum of the gain weights.  The first
    prefix of maximum gain is returned: it is the minimal maximum-weight
    closure of the order's chain, the witness the closure oracle would find.
    """
    best = ZERO
    best_k = 0
    acc = ZERO
    for k, o in enumerate(spec.order, start=1):
        acc += gain[o]
        if acc > best:
            best, best_k = acc, k
    if best > 0:
        top = set(spec.order[:best_k])
        return best, {o: (ONE if o in top else ZERO) for o in outcomes}
    return None


def separation_oracle_partial(
    spec: PartialOrder, outcomes: tuple[str, ...], gain: Mapping[str, Fraction]
) -> Hit:
    """Best 0/1 upward-closed witness, via maximum-weight closure.

    Item values are the gain weights; accepting the item for o' forces
    accepting the item for o whenever o >= o', so the accepted set is
    exactly the 1-set of a consistent 0/1 vector.
    """
    implications = tuple((b, a) for a, b in spec.pairs if a != b)
    inst = ClosureInstance(items=outcomes, values=gain, implications=implications)
    accepted, best = closure_solve(inst)
    if best > 0:
        return best, {o: (ONE if o in accepted else ZERO) for o in outcomes}
    return None


def separation_oracle_dist(
    spec: DistributionOrder, outcomes: tuple[str, ...], gain: Mapping[str, Fraction]
) -> Hit:
    """Best witness in [0,1]^O under the distribution-pair constraints,
    via an exact LP: one row r1·u - r2·u >= 0 per pair, then u(o) <= 1 per
    outcome.  The polytope contains 0 and is bounded, so the optimum exists;
    the returned witness is a vertex of it."""
    idx = {name: k for k, name in enumerate(outcomes)}
    n = len(outcomes)
    rows = []
    for r1, r2 in spec.pairs:
        row = [ZERO] * n
        for name, w in r1.items():
            row[idx[name]] += w
        for name, w in r2.items():
            row[idx[name]] -= w
        rows.append(linprog.constraint(row, linprog.GE, ZERO))
    for k in range(n):
        row = [ZERO] * n
        row[k] = ONE
        rows.append(linprog.constraint(row, linprog.LE, ONE))
    objective = (tuple(gain[o] for o in outcomes), linprog.MAX)
    out = linprog.lp_solve(linprog.LinearProgram(n, tuple(rows), objective))
    if out.status != linprog.FEASIBLE:
        raise AssertionError(f"distribution-order LP is {out.status}; 0 is always feasible")
    if out.objective_value > 0:
        return out.objective_value, dict(zip(outcomes, out.assignment))
    return None


def finite_scan_oracle(
    spec: FiniteTypes, outcomes: tuple[str, ...], gain: Mapping[str, Fraction]
) -> Hit:
    """Exhaustive scan over the listed types; the first type of maximum
    gain is the witness."""
    best = None
    best_u = None
    for u in spec.types:
        g = sum((w * u[o] for o, w in gain.items() if w != 0), ZERO)
        if g > 0 and (best is None or g > best):
            best = g
            best_u = u
    if best is not None:
        return best, dict(best_u)
    return None


def best_cnf_model(
    spec: PreferenceCnf, outcomes: tuple[str, ...], weights: Mapping[str, Fraction]
) -> Hit:
    """The largest sum of `weights[o] * u(o)` over the 0/1 models u of the
    CNF, with a model attaining it, or None if no model has a positive sum.

    Over 0/1 utilities the atom (a >= b) is the Boolean clause
    u_a or not u_b, so the models are assignments of one variable per
    outcome.  A depth-first branch and bound assigns the variables in order
    of decreasing |weight|, each first to the value its weight's sign
    prefers, on integer weights over one common denominator.  A partial
    assignment is pruned when it falsifies a clause, or when its value plus
    the remaining positive weights does not beat the best model so far.
    The all-zero vector satisfies every nonempty clause, so the search only
    looks for a positive value; a space with an empty clause has no model.
    """
    if any(not clause for clause in spec.clauses):
        return None
    n = len(outcomes)
    idx = {o: k for k, o in enumerate(outcomes)}
    gains = [weights.get(o, ZERO) for o in outcomes]
    denom = math.lcm(*(x.denominator for x in gains))
    w = [x.numerator * (denom // x.denominator) for x in gains]
    # falsified[k][bit]: the clauses with a literal on u_k that u_k = bit
    # makes false; live[c]: the literals of clause c not yet false.
    falsified = [([], []) for _ in range(n)]
    for c, clause in enumerate(spec.clauses):
        for a, b in clause:
            falsified[idx[a]][0].append(c)
            falsified[idx[b]][1].append(c)
    live = [2 * len(clause) for clause in spec.clauses]
    order = sorted(range(n), key=lambda k: -abs(w[k]))
    rest = [0] * (n + 1)  # rest[t]: the positive weights from order[t] on
    for t in range(n - 1, -1, -1):
        rest[t] = rest[t + 1] + max(w[order[t]], 0)
    u = [0] * n
    best, best_u = 0, None

    def search(t: int, value: int) -> None:
        nonlocal best, best_u
        if value + rest[t] <= best:
            return
        if t == n:
            best, best_u = value, u[:]
            return
        k = order[t]
        for bit in (1, 0) if w[k] > 0 else (0, 1):
            hit = falsified[k][bit]
            for c in hit:
                live[c] -= 1
            if all(live[c] for c in hit):
                u[k] = bit
                search(t + 1, value + bit * w[k])
            for c in hit:
                live[c] += 1

    search(0, 0)
    if best_u is None:
        return None
    return Fraction(best, denom), {o: (ONE if b else ZERO) for o, b in zip(outcomes, best_u)}


def separate(spec: TypeSpaceSpec, outcomes: tuple[str, ...], gain: Mapping[str, Fraction]) -> Hit:
    """The largest gain `sum_o gain[o] * u(o)` over the witness family of
    the space, with a witness u attaining it, or None if no consistent type
    gains."""
    if isinstance(spec, FiniteTypes):
        return finite_scan_oracle(spec, outcomes, gain)
    if isinstance(spec, TotalOrder):
        return separation_oracle_total(spec, outcomes, gain)
    if isinstance(spec, PartialOrder):
        return separation_oracle_partial(spec, outcomes, gain)
    if isinstance(spec, DistributionOrder):
        return separation_oracle_dist(spec, outcomes, gain)
    if isinstance(spec, PreferenceCnf):
        return best_cnf_model(spec, outcomes, gain)
    raise UnsupportedSpace(f"no separation oracle for {type(spec).__name__}")


def solve(
    game: GameForm,
    spaces: Sequence[TypeSpaceSpec],
    query: ProblemQuery,
) -> SolveResult:
    """Answer one of the four decision problems.

    Every space is first validated against the game's outcomes.  The LP
    starts with no incentive rows.  Each round builds the gain vector of
    every player's every deviation at the LP's point and asks the player's
    oracle for its most violated constraint; all of them are added in a
    batch, sorted by (player, deviation) for reproducibility, and the LP is
    solved again.
    """
    validate_spaces(game, spaces)

    if isinstance(query, Eore):
        objective = None
        fixed_p = None
    elif isinstance(query, Sire):
        if query.target not in set(profiles_of(game)):
            raise ValidationError(f"unknown target profile {query.target}")
        objective = ({query.target: ONE}, linprog.MAX)
        fixed_p = None
    elif isinstance(query, Aare):
        total = sum(query.dist.values(), ZERO)
        if total != 1 or any(w < 0 for w in query.dist.values()):
            raise ValidationError("AARE target distribution must be a distribution")
        objective = None
        fixed_p = query.dist
    elif isinstance(query, Omire):
        query.objective.validate(game)
        objective = (query.objective.g, linprog.MAX)
        fixed_p = None
    else:
        raise ValidationError(f"unknown query {query!r}")

    constraints: list[IncentiveConstraint] = []
    seen: set[IncentiveConstraint] = set()

    while True:
        lp, layout = build_lp1(game, constraints, objective=objective, fixed_p=fixed_p)
        out = linprog.lp_solve(lp)
        if out.status == linprog.INFEASIBLE:
            return SolveResult(answer=False)
        if out.status != linprog.FEASIBLE:
            raise AssertionError(f"master LP is {out.status}; the (p, q) polytope is bounded")
        profile = layout.decode(out.assignment)

        cuts: list[IncentiveConstraint] = []
        for i, gains in enumerate(gain_vectors(game, profile)):
            for a, gain in gains.items():
                hit = separate(spaces[i], game.outcomes, gain)
                if hit is not None:
                    _, witness = hit
                    cuts.append(IncentiveConstraint(i, a, tuple(witness[o] for o in game.outcomes)))

        if not cuts:
            if isinstance(query, (Eore, Aare)):
                return SolveResult(answer=True, profile=profile)
            if isinstance(query, Sire):
                ok = out.objective_value > 0
                return SolveResult(ok, profile if ok else None, out.objective_value)
            ok = out.objective_value >= query.objective.threshold
            return SolveResult(ok, profile if ok else None, out.objective_value)

        cuts.sort(key=lambda c: (c.player, c.deviation))
        for c in cuts:
            if c in seen:
                raise AssertionError(
                    "separation oracle repeated a witness; cutting plane would not terminate"
                )
            seen.add(c)
            constraints.append(c)


def entails_preference(spec: TypeSpaceSpec, o: str, o2: str, outcomes: tuple[str, ...]) -> bool:
    """True iff every utility vector consistent with the space has
    u(o) >= u(o2): iff no witness gains from the swap, gain e_o2 - e_o.
    The 0/1 witnesses suffice for orders, whose polytope's vertices are the
    up-set indicator vectors (Stanley, "Two poset polytopes", 1986)."""
    if isinstance(spec, PreferenceCnf):
        raise UnsupportedSpace("entailment for preference-CNF spaces is out of scope")
    if o not in outcomes or o2 not in outcomes:
        raise UnknownOutcome(f"unknown outcome in ({o!r}, {o2!r})")
    gain = dict.fromkeys(outcomes, ZERO)
    gain[o2] += ONE
    gain[o] -= ONE
    return separate(spec, outcomes, gain) is None


def find_pure_unmediated(
    game: GameForm, spaces: Sequence[TypeSpaceSpec]
) -> list[Profile]:
    """All profiles where every unilateral deviation leads to an outcome the
    deviator weakly disprefers under every consistent type."""
    for spec in spaces:
        if isinstance(spec, PreferenceCnf):
            raise UnsupportedSpace("entailment for preference-CNF spaces is out of scope")
    validate_spaces(game, spaces)
    result = []
    for prof in profiles_of(game):
        o = game.outcome_of(prof)
        ok = True
        for i in range(game.num_players):
            opp = prof[:i] + prof[i + 1 :]
            for a in game.action_sets[i]:
                o2 = game.outcome_of(game.insert(i, a, opp))
                if not entails_preference(spaces[i], o, o2, game.outcomes):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            result.append(prof)
    return result
