#!/usr/bin/env python3
"""Cross-check the cutting-plane solver against explicit extreme-type LPs.

For each random game, once each with total-order, partial-order and
preference-CNF spaces, three questions are answered twice: existence
(EORE), support of the first profile (SIRE) and attainability (AARE) of
the lazy EORE answer's path, or else of a random point's.  One route asks
the lazy separation oracle over the space, the other lists every 0/1
extreme type up front as a finite type list.  The two routes must agree
on the answer and on the optimal value of every trial, and
`verifier.verify` must accept every yes profile of either route as robust
over the game's own spaces; any disagreement or rejection is printed and
counted, per space kind.
Both routes build their oracles with `equilibrium.make_oracle`.
For total and partial orders, the lazy oracle is also asked about every
deviation's gain vector at each yes profile and at one random profile per
trial.  Each answer's flow must pass `verifier.check_flow`, or it counts
as a certificate failure, and its amount must equal the finite scan's
over the enumerated types, or it counts as a disagreement.  The verifier
checks the same flows, and the CNF oracle's answers against its own scan
of the enumerated models; a `verify` call that raises counts as a
certificate failure.
A distribution order's witnesses are the vertices of a polytope, not 0/1
types, so its games are solved by the lazy route only and every yes
profile is verified.  At each yes profile and at one random profile per
trial, its oracle, which keeps u <= 1 as column bounds of a boxed
tableau, is asked about every deviation's gain; its amount must equal the
optimum of a fresh unboxed LP of the same polytope, a plain
`linprog.Tableau` with a block (s_o, u(o)) per outcome, or it counts as a
disagreement.

Usage: python scripts/oracle_agreement.py [--trials N] [--seed S]
       [--max-actions A] [--max-outcomes O]
Exit status: 0 when every trial agrees and every certificate passes, 1
otherwise.
"""

from __future__ import annotations

import argparse
import random
import time

from ordineq import equilibrium, linprog, verifier
from ordineq.games import FiniteTypes
from ordineq.randgen import random_game, random_profile_point
from ordineq.typespaces import enumerate_extreme_types


KINDS = ("total_order", "partial_order", "preference_cnf", "distribution_order")
ORDER_KINDS = ("total_order", "partial_order")


def _certify(game, spaces, finite, profile, label: str) -> tuple[int, int, int]:
    """Check the order oracles' answer to every deviation's gain at
    `profile`: its flow with `verifier.check_flow`, and its amount against
    the finite scan of `finite`, the enumerated types.  Returns (answers,
    certificate failures, disagreements)."""
    lazy = [equilibrium.make_oracle(s, game.outcomes) for s in spaces]
    scans = [equilibrium.make_oracle(f, game.outcomes) for f in finite]
    answers = failures = disagreements = 0
    for i, a, _, gain, hit, flow in equilibrium.deviation_hits(game, lazy, profile):
        answers += 1
        try:
            verifier.check_flow(spaces[i], game.outcomes, gain, hit, flow)
        except AssertionError as e:
            failures += 1
            print(f"CERTIFICATE {label} player={i} deviation={a}: {e}")
        brute, _ = scans[i](gain)
        if (0 if hit is None else hit[0]) != (0 if brute is None else brute[0]):
            disagreements += 1
            print(f"DISAGREE {label} player={i} deviation={a}: lazy={hit} explicit={brute}")
    return answers, failures, disagreements


def _unboxed_max(spec, outcomes, gain) -> int:
    """The largest gain over a distribution order's polytope, at least 0
    (u = 0 is in it), from a fresh plain tableau over u and one slack s_o
    per outcome: the block (s_o, u(o)), so u(o) + s_o = 1, per outcome and
    the `>= 0` row r1·u - r2·u per pair."""
    n = len(outcomes)
    rows = [[r1.get(o, 0) - r2.get(o, 0) for o in outcomes] + [0] * n for r1, r2 in spec.pairs]
    tableau = linprog.Tableau(2 * n, [[n + k, k] for k in range(n)], rows)
    return tableau.optimize([gain[o] for o in outcomes] + [0] * n)


def _check_dist(game, spaces, profile, label: str) -> tuple[int, int]:
    """Check the distribution-order oracles' answer to every deviation's
    gain at `profile` against an unboxed LP (`_unboxed_max`).  Returns
    (answers, disagreements)."""
    lazy = [equilibrium.make_oracle(s, game.outcomes) for s in spaces]
    answers = disagreements = 0
    for i, a, _, gain, hit, _ in equilibrium.deviation_hits(game, lazy, profile):
        answers += 1
        want = _unboxed_max(spaces[i], game.outcomes, gain)
        if (0 if hit is None else hit[0]) != want:
            disagreements += 1
            print(f"DISAGREE {label} player={i} deviation={a}: boxed={hit} unboxed={want}")
    return answers, disagreements


def _agreement(kind: str, args) -> tuple[int, int]:
    """Run every trial for one space kind; return its disagreement and
    certificate failure counts."""
    disagreements = verified = certified = checked = failures = 0
    t0 = time.monotonic()
    for trial in range(args.trials):
        game, spaces = random_game(
            seed=args.seed + trial,
            max_actions=args.max_actions,
            max_outcomes=args.max_outcomes,
            kind=kind,
        )
        finite = None
        if kind != "distribution_order":
            finite = tuple(
                FiniteTypes(tuple(enumerate_extreme_types(s, game.outcomes)))
                for s in spaces
            )
        target = tuple(acts[0] for acts in game.action_sets)
        profiles = [random_profile_point(random.Random(args.seed + trial), game)]
        queries = [equilibrium.Eore(), equilibrium.Sire(target)]
        for query in queries:
            lazy = equilibrium.solve(game, spaces, query)
            if isinstance(query, equilibrium.Eore):
                # The AARE path is the lazy EORE answer's, or the random point's.
                queries.append(equilibrium.Aare((lazy.profile or profiles[0]).p))
            routes = [("lazy", lazy)]
            if finite is not None:
                explicit = equilibrium.solve(game, finite, query)
                routes.append(("explicit", explicit))
                got = (lazy.answer, lazy.value)
                want = (explicit.answer, explicit.value)
                if got != want:
                    disagreements += 1
                    print(
                        f"DISAGREE {kind} trial={args.seed + trial} query={query}: "
                        f"lazy={got} explicit={want}"
                    )
            for route, result in routes:
                if result.profile is None:
                    continue
                profiles.append(result.profile)
                try:
                    report = verifier.verify(game, spaces, result.profile)
                except AssertionError as e:
                    failures += 1
                    print(f"CERTIFICATE {kind} trial={args.seed + trial} query={query}: {route} profile, {e}")
                    continue
                verified += 1
                if not report.is_equilibrium:
                    disagreements += 1
                    print(
                        f"REJECTED {kind} trial={args.seed + trial} query={query}: "
                        f"{route} profile, {report.violation}"
                    )
        label = f"{kind} trial={args.seed + trial}"
        for profile in profiles:
            if kind in ORDER_KINDS:
                counts = _certify(game, spaces, finite, profile, label)
                certified += counts[0]
                failures += counts[1]
                disagreements += counts[2]
            elif kind == "distribution_order":
                counts = _check_dist(game, spaces, profile, label)
                checked += counts[0]
                disagreements += counts[1]
    dt = time.monotonic() - t0
    print(
        f"{kind}: {args.trials} games x {len(queries)} queries: {disagreements} disagreements, "
        f"{verified} yes profiles verified, {checked} distribution answers checked, "
        f"{certified} order answers certified, {failures} certificate failures ({dt:.2f}s)"
    )
    return disagreements, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-actions", type=int, default=2)
    ap.add_argument("--max-outcomes", type=int, default=4)
    args = ap.parse_args(argv)

    counts = [_agreement(kind, args) for kind in KINDS]
    return 1 if any(d or f for d, f in counts) else 0


if __name__ == "__main__":
    raise SystemExit(main())
