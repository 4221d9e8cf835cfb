"""Incentive-constraint generation, separation oracles, and the solver for
the four decision problems (existence, support, attainability, objective
maximization) over robust mediated equilibria.

The feasibility system has one variable per on-path profile weight p(a)
and one per punishment weight q_{-i}(a_{-i}).  Incentive constraints say
that for a witness utility vector u, player i, and deviation a_i':

    sum_a u(o(a)) p(a)  >=  sum_{a_{-i}} u(o(a_i', a_{-i})) q_{-i}(a_{-i})

Each of the five type-space kinds has one separation oracle, reached
through `separate`, which returns the most violated constraint of a
deviation over the kind's finite witness family: the listed types of a
finite space, the threshold vectors of a total order, the upward-closed 0/1
vectors of a partial order, the vertices of a distribution order's
polytope, and the 0/1 models of a preference CNF.  The solver adds violated
constraints in a cutting-plane loop; an added constraint can never be
strictly violated again, so the loop terminates.  The verifier calls the
same oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import linprog
from .errors import UnsupportedSpace, ValidationError
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
    profiles_of,
)
from .typespaces import entails_preference

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class IncentiveConstraint:
    player: int
    deviation: str
    utility: tuple[Fraction, ...]  # indexed by game.outcomes


@dataclass(frozen=True)
class Violation:
    player: int
    deviation: str
    witness: dict[str, Fraction]
    amount: Fraction  # RHS - LHS at the current point, strictly positive


SeparationResult = Optional[Violation]  # None = no violation


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
        self.q_profiles = []
        self.q_index = []
        base = len(self.profiles)
        for i in range(game.num_players):
            opp = tuple(opponents_profiles_of(game, i))
            self.q_profiles.append(opp)
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

    lp = linprog.LinearProgram(
        num_vars=n,
        constraints=tuple(rows),
        objective=obj,
        lower=(ZERO,) * n,
    )
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


def _as_constraint(game: GameForm, i: int, deviation: str, u: Mapping[str, Fraction]):
    return IncentiveConstraint(i, deviation, tuple(u[o] for o in game.outcomes))


def _deviation_gain_coeffs(
    game: GameForm,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> dict[str, Fraction]:
    """Per-outcome weight of (deviation payoff - on-path payoff) as a linear
    function of the utility vector."""
    v = {o: ZERO for o in game.outcomes}
    for prof, w in p.items():
        if w != 0:
            v[game.outcome_of(prof)] -= w
    for opp, w in q_i.items():
        if w != 0:
            v[game.outcome_of(game.insert(i, deviation, opp))] += w
    return v


def separation_oracle_total(
    game: GameForm,
    spec: TotalOrder,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """Best threshold witness, by one scan over the order's prefixes.

    The threshold vector of a prefix gives utility 1 to its outcomes and 0
    to the rest; its gain is the prefix sum of the deviation-gain weights.
    The first prefix of maximum gain is returned: it is the minimal
    maximum-weight closure of the order's chain, the witness the closure
    oracle would find.
    """
    v = _deviation_gain_coeffs(game, i, deviation, p, q_i)
    best = ZERO
    best_k = 0
    acc = ZERO
    for k, o in enumerate(spec.order, start=1):
        acc += v[o]
        if acc > best:
            best, best_k = acc, k
    if best > 0:
        top = set(spec.order[:best_k])
        witness = {o: (ONE if o in top else ZERO) for o in game.outcomes}
        return Violation(i, deviation, witness, best)
    return None


def separation_oracle_partial(
    game: GameForm,
    spec: PartialOrder,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """Best 0/1 upward-closed witness, via maximum-weight closure.

    Item values are the per-outcome deviation-gain weights; accepting the
    item for o' forces accepting the item for o whenever o >= o', so the
    accepted set is exactly the 1-set of a consistent 0/1 vector.
    """
    v = _deviation_gain_coeffs(game, i, deviation, p, q_i)
    implications = tuple((b, a) for a, b in spec.pairs if a != b)
    inst = ClosureInstance(items=game.outcomes, values=v, implications=implications)
    accepted, best = closure_solve(inst)
    if best > 0:
        witness = {o: (ONE if o in accepted else ZERO) for o in game.outcomes}
        return Violation(i, deviation, witness, best)
    return None


def distribution_shadow_partial(spec: DistributionOrder) -> PartialOrder:
    """Pure-outcome shadow of distribution constraints for the 0/1 oracle.

    A pair (delta_o, r2) restricted to 0/1 utilities says: u(o) = 0 forces
    u = 0 on the support of r2, i.e. the partial-order pairs (o, o') for
    every o' in supp(r2).  Pairs whose left side is not a point mass have no
    closure representation and are dropped; the 0/1 check is then a strict
    relaxation, which is exactly the property the LP oracle exists to fix.
    """
    pairs = []
    for r1, r2 in spec.pairs:
        support1 = [o for o, w in r1.items() if w != 0]
        if len(support1) != 1:
            continue
        o = support1[0]
        for o2, w in r2.items():
            if w != 0 and o2 != o:
                pairs.append((o, o2))
    return PartialOrder(tuple(pairs))


def separation_oracle_dist(
    game: GameForm,
    spec: DistributionOrder,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """Best witness in [0,1]^O under the distribution-pair constraints,
    via an exact LP; the returned witness is a vertex of that polytope."""
    v = _deviation_gain_coeffs(game, i, deviation, p, q_i)
    outcomes = game.outcomes
    idx = {o: k for k, o in enumerate(outcomes)}
    n = len(outcomes)
    rows = []
    for r1, r2 in spec.pairs:
        row = [ZERO] * n
        for o, w in r1.items():
            row[idx[o]] += w
        for o, w in r2.items():
            row[idx[o]] -= w
        rows.append(linprog.constraint(row, linprog.GE, ZERO))
    objective = tuple(v[o] for o in outcomes)
    lp = linprog.LinearProgram(
        num_vars=n,
        constraints=tuple(rows),
        objective=(objective, linprog.MAX),
        lower=(ZERO,) * n,
        upper=(ONE,) * n,
    )
    out = linprog.lp_solve(lp)
    if out.status != linprog.FEASIBLE:
        raise AssertionError(f"distribution oracle LP is {out.status}; 0 is always a witness")
    if out.objective_value > 0:
        witness = dict(zip(outcomes, out.assignment))
        return Violation(i, deviation, witness, out.objective_value)
    return None


def _finite_scan_oracle(
    game: GameForm,
    spec: FiniteTypes,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """Exhaustive scan over the listed types; the first type of maximum
    gain is the witness."""
    v = _deviation_gain_coeffs(game, i, deviation, p, q_i)
    best = None
    best_u = None
    for u in spec.types:
        gain = sum((w * u[o] for o, w in v.items() if w != 0), ZERO)
        if gain > 0 and (best is None or gain > best):
            best = gain
            best_u = u
    if best is not None:
        return Violation(i, deviation, dict(best_u), best)
    return None


def best_cnf_model(
    spec: PreferenceCnf, outcomes: Sequence[str], weights: Mapping[str, Fraction]
) -> Optional[tuple[Fraction, dict[str, Fraction]]]:
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


def separation_oracle_cnf(
    game: GameForm,
    spec: PreferenceCnf,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """Best 0/1 model of the CNF, by branch and bound (`best_cnf_model`);
    no model is listed up front."""
    v = _deviation_gain_coeffs(game, i, deviation, p, q_i)
    found = best_cnf_model(spec, game.outcomes, v)
    if found is None:
        return None
    amount, witness = found
    return Violation(i, deviation, witness, amount)


def separate(
    game: GameForm,
    spec: TypeSpaceSpec,
    i: int,
    deviation: str,
    p: Mapping[Profile, Fraction],
    q_i: Mapping[Profile, Fraction],
) -> SeparationResult:
    """The most violated incentive constraint of player i's deviation over
    the witness family of the space, or None if no consistent type gains
    by deviating."""
    if isinstance(spec, FiniteTypes):
        return _finite_scan_oracle(game, spec, i, deviation, p, q_i)
    if isinstance(spec, TotalOrder):
        return separation_oracle_total(game, spec, i, deviation, p, q_i)
    if isinstance(spec, PartialOrder):
        return separation_oracle_partial(game, spec, i, deviation, p, q_i)
    if isinstance(spec, DistributionOrder):
        return separation_oracle_dist(game, spec, i, deviation, p, q_i)
    if isinstance(spec, PreferenceCnf):
        return separation_oracle_cnf(game, spec, i, deviation, p, q_i)
    raise UnsupportedSpace(f"no separation oracle for {type(spec).__name__}")


def solve(
    game: GameForm,
    spaces: Sequence[TypeSpaceSpec],
    query: ProblemQuery,
) -> SolveResult:
    """Answer one of the four decision problems.

    The LP starts with no incentive rows.  Each round asks every player's
    oracle, for every deviation, for its most violated constraint; all of
    them are added in a batch, sorted by (player, deviation) for
    reproducibility, and the LP is solved again.
    """
    if len(spaces) != game.num_players:
        raise ValidationError("one type space per player required")

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
    seen: set[tuple] = set()

    while True:
        lp, layout = build_lp1(game, constraints, objective=objective, fixed_p=fixed_p)
        out = linprog.lp_solve(lp)
        if out.status == linprog.INFEASIBLE:
            return SolveResult(answer=False)
        if out.status != linprog.FEASIBLE:
            raise AssertionError(f"master LP is {out.status}; the (p, q) polytope is bounded")
        profile = layout.decode(out.assignment)

        violations: list[Violation] = []
        for i, spec in enumerate(spaces):
            q_i = {opp: profile.q[i].get(opp, ZERO) for opp in layout.q_profiles[i]}
            for a in game.action_sets[i]:
                res = separate(game, spec, i, a, profile.p, q_i)
                if res is not None:
                    violations.append(res)

        if not violations:
            if isinstance(query, (Eore, Aare)):
                return SolveResult(answer=True, profile=profile)
            if isinstance(query, Sire):
                ok = out.objective_value > 0
                return SolveResult(ok, profile if ok else None, out.objective_value)
            ok = out.objective_value >= query.objective.threshold
            return SolveResult(ok, profile if ok else None, out.objective_value)

        violations.sort(key=lambda v: (v.player, v.deviation))
        for v in violations:
            c = _as_constraint(game, v.player, v.deviation, v.witness)
            key = (c.player, c.deviation, c.utility)
            if key in seen:
                raise AssertionError(
                    "separation oracle repeated a witness; cutting plane would not terminate"
                )
            seen.add(key)
            constraints.append(c)


def find_pure_unmediated(
    game: GameForm, spaces: Sequence[TypeSpaceSpec]
) -> list[Profile]:
    """All profiles where every unilateral deviation leads to an outcome the
    deviator weakly disprefers under every consistent type."""
    for spec in spaces:
        if isinstance(spec, PreferenceCnf):
            raise UnsupportedSpace("entailment for preference-CNF spaces is out of scope")
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
