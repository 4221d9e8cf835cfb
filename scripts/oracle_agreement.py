#!/usr/bin/env python3
"""Cross-check the cutting-plane solver against explicit extreme-type LPs.

For each random game, once each with total-order, partial-order and
preference-CNF spaces, the existence question (and a robust
social-welfare question) is answered twice: once with the lazy separation
oracle over the space, and once with every 0/1 extreme type enumerated up
front as a finite type list.  The two routes must agree on the answer and
on the optimal value of every trial, and `verifier.verify` must accept
every yes profile of either route as robust over the game's own spaces;
any disagreement or rejection is printed and counted, per space kind.
Both routes build their oracles with `equilibrium.make_oracle`; the
verifier checks the order and CNF oracles' answers against its own scan of
the enumerated types.

Usage: python scripts/oracle_agreement.py [--trials N] [--seed S]
       [--max-actions A] [--max-outcomes O]
Exit status: 0 when every trial agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import time

from ordineq import equilibrium, verifier
from ordineq.games import FiniteTypes
from ordineq.randgen import random_game
from ordineq.typespaces import enumerate_extreme_types


KINDS = ("total_order", "partial_order", "preference_cnf")


def _agreement(kind: str, args) -> int:
    """Run every trial for one space kind; return its disagreement count."""
    disagreements = verified = 0
    t0 = time.monotonic()
    for trial in range(args.trials):
        game, spaces = random_game(
            seed=args.seed + trial,
            max_actions=args.max_actions,
            max_outcomes=args.max_outcomes,
            kind=kind,
        )
        finite = tuple(
            FiniteTypes(tuple(enumerate_extreme_types(s, game.outcomes)))
            for s in spaces
        )
        target = tuple(acts[0] for acts in game.action_sets)
        for query in (equilibrium.Eore(), equilibrium.Sire(target)):
            lazy = equilibrium.solve(game, spaces, query)
            explicit = equilibrium.solve(game, finite, query)
            got = (lazy.answer, lazy.value)
            want = (explicit.answer, explicit.value)
            if got != want:
                disagreements += 1
                print(
                    f"DISAGREE {kind} trial={args.seed + trial} query={query}: "
                    f"lazy={got} explicit={want}"
                )
            for route, result in (("lazy", lazy), ("explicit", explicit)):
                if result.profile is None:
                    continue
                report = verifier.verify(game, spaces, result.profile)
                verified += 1
                if not report.is_equilibrium:
                    disagreements += 1
                    print(
                        f"REJECTED {kind} trial={args.seed + trial} query={query}: "
                        f"{route} profile, {report.violation}"
                    )
    dt = time.monotonic() - t0
    print(
        f"{kind}: {args.trials} games x 2 queries: {disagreements} disagreements, "
        f"{verified} yes profiles verified ({dt:.2f}s)"
    )
    return disagreements


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-actions", type=int, default=2)
    ap.add_argument("--max-outcomes", type=int, default=4)
    args = ap.parse_args(argv)

    disagreements = sum(_agreement(kind, args) for kind in KINDS)
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
