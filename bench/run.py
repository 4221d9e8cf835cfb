#!/usr/bin/env python3
"""ordineq benchmark: one closed-loop client answering a seeded query pool.

    python3 bench/run.py --workload lazy_cuts --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

Each query makes the library calls ``ordineq solve`` makes, in process:
``gamedoc.parse_game`` -> ``equilibrium.solve`` (or ``hardness.parse_dimacs``
-> ``reduce_sat`` -> ``check_cnf_existence``) -> ``gamedoc.serialize_profile``.
Every "yes" profile is then checked with ``verifier.verify``.  Wall times are
corrected for the host's speed with ``hostspeed``.  See bench/README.md for
the metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SEEDS_FILE = BENCH_DIR / "seeds.json"

#: Set-up is measured this many times, in fresh processes, per run, with
#: the host-speed kernel timed SETUP_KERNELS times on either side of each.
SETUP_PROBES = 7
SETUP_KERNELS = 3
#: Tail percentiles keep this many samples beyond them.
TAIL_BEYOND = 10
#: The traced run times every OVERHEAD_EVERY-th query both ways, and at
#: least MIN_PAIRS of them, for the tracing overhead.
OVERHEAD_EVERY = 4
MIN_PAIRS = 10
#: Verification calls shorter than this are repeated, see Checker.problems.
VERIFY_MIN_S = 0.005

if not (SRC / "ordineq" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no ordineq sources under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

from fractions import Fraction  # noqa: E402

from ordineq import equilibrium, flow, gamedoc, hardness, linprog, typespaces, verifier  # noqa: E402
from ordineq.games import FiniteTypes, ObjectiveSpec  # noqa: E402
from ordineq.rational import rational_parse, rational_render  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {
    "equilibrium": equilibrium,
    "flow": flow,
    "gamedoc": gamedoc,
    "hardness": hardness,
    "linprog": linprog,
    "verifier": verifier,
}


def _rat_map(doc: dict) -> dict:
    return {tuple(k.split(gamedoc.PROFILE_KEY_SEP)): rational_parse(v) for k, v in doc.items()}


def _query(kind: str, param: str):
    """The problem query, parsed from its document as the CLI does."""
    if kind == "eore":
        return equilibrium.Eore()
    doc = json.loads(param)
    if kind == "sire":
        return equilibrium.Sire(tuple(doc["target"].split(gamedoc.PROFILE_KEY_SEP)))
    if kind == "aare":
        return equilibrium.Aare(_rat_map(doc["path"]))
    return equilibrium.Omire(ObjectiveSpec(_rat_map(doc["objective"]), rational_parse(doc["threshold"])))


@dataclass
class Outcome:
    """One answered query: the digest fields, what the checks need, and
    the measured times."""

    answer: Optional[str] = None
    detail: Optional[str] = None  # exact value, or `definitive` for CNF
    game: object = None
    spaces: object = None
    problem: object = None
    formula: object = None
    text: Optional[str] = None  # the serialized profile
    solve_s: float = 0.0
    verify_s: Optional[float] = None
    scale: float = 1.0  # host-speed correction of both times, see hostspeed


def answer_query(q: workloads.Query) -> Outcome:
    """Timed region: parse the documents, solve, serialize the answer."""
    out = Outcome()
    t0 = time.perf_counter()
    if q.kind == "cnf":
        out.formula = hardness.parse_dimacs(q.doc)
        out.game, out.spaces = hardness.reduce_sat(out.formula)
        res = hardness.check_cnf_existence(out.game, out.spaces)
        out.answer, out.detail = res.answer, str(res.definitive)
    else:
        out.game, out.spaces, _ = gamedoc.parse_game(q.doc)
        out.problem = _query(q.kind, q.param)
        res = equilibrium.solve(out.game, out.spaces, out.problem)
        out.answer = "yes" if res.answer else "no"
        out.detail = "-" if res.value is None else rational_render(res.value)
    if res.profile is not None:
        out.text = gamedoc.serialize_profile(res.profile)
    out.solve_s = time.perf_counter() - t0
    return out


class Checker:
    """Independent checks of each answer; caches per-query ground truth so
    repeats cost little."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self._cnf: dict[int, tuple] = {}

    def verify_spaces(self, q, out):
        if q.kind != "cnf":
            return out.spaces
        if q.qid not in self._cnf:
            cnf, col = out.spaces
            extreme = typespaces.enumerate_extreme_types(cnf, out.game.outcomes)
            self._cnf[q.qid] = ((FiniteTypes(tuple(extreme)), col), hardness.sat_brute(out.formula), len(extreme))
        return self._cnf[q.qid][0]

    def extreme_count(self, qid: int):
        return self._cnf[qid][2] if qid in self._cnf else None

    def problems(self, q, out) -> list[str]:
        """Disagreements with the verifier or with an independent answer."""
        errors = []
        if (out.text is None) != (out.answer == "no"):
            errors.append("a yes answer needs a profile and a no answer has none")
        if out.text is not None:
            profile = gamedoc.parse_profile(out.text, out.game)
            spaces = self.verify_spaces(q, out)
            # A call shorter than VERIFY_MIN_S is repeated (untraced runs
            # only) and the fastest call is kept, so timer and allocator
            # noise does not swamp sub-millisecond checks.
            times = []
            while not times or (not self.traced and len(times) < 5 and sum(times) < VERIFY_MIN_S):
                t0 = time.perf_counter()
                report = verifier.verify(out.game, spaces, profile)
                times.append(time.perf_counter() - t0)
            out.verify_s = min(times)
            if not report.is_equilibrium:
                errors.append(f"verifier rejects the profile: {report.violation}")
        else:
            profile = None
        if q.kind == "cnf":
            self.verify_spaces(q, out)
            unsat = not self._cnf[q.qid][1]
            if unsat != (out.answer != "no" and out.detail == "True"):
                errors.append(f"sat_brute says unsat={unsat}, solver {out.answer}/{out.detail}")
            return errors
        value = None if out.detail == "-" else rational_parse(out.detail)
        problem = out.problem
        if value is None:
            # No objective value: an EORE or AARE answer, or an infeasible LP.
            if isinstance(problem, (equilibrium.Sire, equilibrium.Omire)) and out.answer == "yes":
                errors.append("a yes to SIRE or OMIRE needs a value")
        elif isinstance(problem, equilibrium.Sire):
            if (value > 0) != (out.answer == "yes"):
                errors.append("SIRE answer disagrees with its value")
            if profile is not None and profile.p.get(problem.target, 0) != value:
                errors.append("SIRE value is not the target's weight")
        elif isinstance(problem, equilibrium.Omire):
            if (value >= problem.objective.threshold) != (out.answer == "yes"):
                errors.append("OMIRE answer disagrees with its value")
            if profile is not None:
                attained = sum((w * problem.objective.g.get(c, 0) for c, w in profile.p.items()), Fraction(0))
                if attained != value:
                    errors.append("OMIRE value is not attained by the profile")
        elif isinstance(problem, equilibrium.Aare) and profile is not None:
            if {c: w for c, w in profile.p.items() if w} != {c: w for c, w in problem.dist.items() if w}:
                errors.append("AARE profile does not follow the given path")
        return errors


def game_consistency(pool, first: dict) -> set[int]:
    """Queries whose answer contradicts the EORE answer of the same game:
    any yes needs an equilibrium to exist, and none exists after an EORE no."""
    eore = {q.game_id: first[q.qid].answer for q in pool if q.kind == "eore"}
    bad = set()
    for q in pool:
        if q.kind in ("sire", "aare", "omire") and first[q.qid].answer == "yes" and eore.get(q.game_id) == "no":
            bad.add(q.qid)
    return bad


def digest(workload: str, seed: int, pool, first: dict) -> str:
    h = hashlib.sha256()
    for q in pool:
        o = first[q.qid]
        h.update(f"{workload}|{seed}|{q.qid}|{q.kind}|{o.answer}|{o.detail}\n".encode())
    return h.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it: the (TAIL_BEYOND + 1)-th largest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0 * (n - 1) / n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Process start through import and input generation, in fresh processes:
    (raw, host-speed corrected) seconds per probe.  The kernel is timed
    SETUP_KERNELS times before and after each probe."""
    samples = []
    for _ in range(count):
        kernel = [hostspeed.kernel_seconds() for _ in range(SETUP_KERNELS)]
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            raw = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        kernel += [hostspeed.kernel_seconds() for _ in range(SETUP_KERNELS)]
        samples.append((raw, raw * hostspeed.REFERENCE_S * len(kernel) / sum(kernel)))
    return samples


def realized_sizes(pool, first: dict, checker: Checker) -> dict:
    sizes = {"queries": len(pool), "kinds": {}, "yes": 0, "no": 0}
    games = {}
    for q in pool:
        o = first[q.qid]
        sizes["kinds"][q.kind] = sizes["kinds"].get(q.kind, 0) + 1
        sizes["yes" if o.answer != "no" else "no"] += 1
        if o.game is not None:
            games[q.game_id] = o
    players = sorted({o.game.num_players for o in games.values()})
    cells, outcomes, lp_vars = [], [], []
    for o in games.values():
        g = o.game
        n_cells = 1
        for acts in g.action_sets:
            n_cells *= len(acts)
        cells.append(n_cells)
        outcomes.append(len(g.outcomes))
        lp_vars.append(n_cells + sum(n_cells // len(acts) for acts in g.action_sets))
    sizes.update(
        games=len(games),
        players=players,
        cells=[min(cells), max(cells)],
        outcomes=[min(outcomes), max(outcomes)],
        lp_vars=[min(lp_vars), max(lp_vars)],
        space_kinds=sorted({type(s).__name__ for o in games.values() for s in o.spaces}),
    )
    extreme = [checker.extreme_count(q.qid) for q in pool if checker.extreme_count(q.qid) is not None]
    if extreme:
        sizes["extreme_types"] = [min(extreme), statistics.mean(extreme), max(extreme)]
    return sizes


def latency_metrics(pool, runs: list, first: dict, corrected: bool) -> tuple[dict, dict]:
    """The per-query latency metrics of an untraced run, and their sample
    counts.  A query's latency is the mean over its passes: the last pass is
    cut at the deadline, so queries have one or two samples, and a minimum
    over a varying count would be biased by it, a mean is not.  ``corrected``
    scales every time by its host-speed factor."""

    def mean_ms(q, field):
        outs = [r[q.qid] for r in runs if q.qid in r and getattr(r[q.qid], field) is not None]
        return 1000.0 * statistics.mean(getattr(o, field) * (o.scale if corrected else 1.0) for o in outs)

    solve_ms = [mean_ms(q, "solve_s") for q in pool]
    verify_ms = [mean_ms(q, "verify_s") for q in pool if first[q.qid].verify_s is not None]
    solve_tail, solve_pct = tail(solve_ms)
    verify_tail, verify_pct = tail(verify_ms) if verify_ms else (0.0, 0.0)
    samples = {
        "solve_ms": len(solve_ms),
        "solve_ms.tail_percentile": solve_pct,
        "verify_ms": len(verify_ms),
        "verify_ms.tail_percentile": verify_pct,
    }
    metrics = {
        "queries_per_s": (1000.0 / statistics.mean(solve_ms), "1/s"),
        "solve_ms.p50": (statistics.median(solve_ms), "ms"),
        "solve_ms.tail": (solve_tail, "ms"),
        "verify_ms.p50": (statistics.median(verify_ms) if verify_ms else 0.0, "ms"),
        "verify_ms.tail": (verify_tail, "ms"),
    }
    return metrics, samples


def run_pass(pool, checker, tracer=None, deadline=None, minimum=1, keep=False) -> tuple[dict, dict]:
    """Answer pool queries in order, each followed by its checks.  With a
    deadline, stops between queries once it has passed and ``minimum``
    queries are done.  ``keep`` holds on to parsed games and answers, which
    only the first pass needs.  Without a tracer, the host-speed kernel is
    timed between queries and sets each outcome's ``scale``.  Returns
    (outcomes, failure messages) by query id."""
    outcomes, failures = {}, {}
    calibrate = tracer is None
    kernel = [hostspeed.kernel_seconds()] if calibrate else []
    for q in pool:
        if deadline is not None and len(outcomes) >= minimum and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.qid = q.qid
        # A query or check that raises is counted as failed, not fatal.
        try:
            out = answer_query(q)
        except Exception as e:
            out = Outcome("error", type(e).__name__)
            errors = [f"{type(e).__name__}: {e}"]
        else:
            try:
                errors = checker.problems(q, out)
            except Exception as e:
                errors = [f"check raised {type(e).__name__}: {e}"]
        if tracer is not None:
            tracer.qid = None
        if not keep:
            out.game = out.spaces = out.problem = out.formula = out.text = None
        outcomes[q.qid] = out
        if errors:
            failures[q.qid] = errors
        if calibrate:
            kernel.append(hostspeed.kernel_seconds())
    for out, scale in zip(outcomes.values(), hostspeed.scales(kernel)):
        out.scale = scale
    return outcomes, failures


def overhead_pairs(sample, tracer, first: dict, failed: dict, deadline: float) -> list[tuple[float, float]]:
    """(traced, untraced) solve times of sample queries answered both ways
    back to back, alternating which goes first, so that both see the same
    host speed.  Their spans are not kept for the layer metrics."""
    pairs = []
    for k, q in enumerate(sample):
        if len(pairs) >= MIN_PAIRS and time.perf_counter() >= deadline:
            break
        times = {}
        for traced in (k % 2 == 0, k % 2 == 1):
            if traced:
                tracer.install(MODULES)
            try:
                out = answer_query(q)
            finally:
                if traced:
                    tracer.restore()
            times[traced] = out.solve_s
            if (out.answer, out.detail) != (first[q.qid].answer, first[q.qid].detail):
                failed.setdefault(q.qid, []).append("answer changed when timed for the tracing overhead")
        pairs.append((times[True], times[False]))
    return pairs


def run(workload: str, seed: int, seconds: float, trace: bool, pool_size=None) -> dict:
    """One benchmark run; returns the full result record."""
    # Half the set-up probes run before the timed part and half after it,
    # so that they do not all fall into one slow phase of the host.
    setup = measure_setup(workload, seed, SETUP_PROBES // 2)
    pool = workloads.generate(workload, seed, pool_size)
    checker = Checker(traced=trace)
    deadline = time.perf_counter() + seconds
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}

    if trace:
        tracer = tracing.Tracer()
        tracer.install(MODULES)
        try:
            first, failed = run_pass(pool, checker, tracer, keep=True)
        finally:
            tracer.restore()
        runs, failures = [first], [failed]
        pairs = overhead_pairs(pool[::OVERHEAD_EVERY], tracer, first, failed, deadline)
    else:
        first, failed = run_pass(pool, checker, keep=True)
        runs, failures = [first], [failed]
        while time.perf_counter() < deadline:
            more, more_failed = run_pass(pool, checker, deadline=deadline)
            runs.append(more)
            failures.append(more_failed)
    setup += measure_setup(workload, seed, SETUP_PROBES - len(setup))
    for later, later_failed in zip(runs[1:], failures[1:]):
        for qid, o in later.items():
            if (o.answer, o.detail) != (first[qid].answer, first[qid].detail):
                later_failed.setdefault(qid, []).append("answer changed on repeat")
    for qid in game_consistency(pool, first):
        failed.setdefault(qid, []).append("yes although EORE on the same game says no")

    attempted = sum(len(r) for r in runs)
    record["attempted"] = attempted
    record["failed"] = sum(len(f) for f in failures)
    record["failures"] = [
        f"pass {k} query {qid}: {msg}" for k, f in enumerate(failures) for qid, msgs in sorted(f.items()) for msg in msgs
    ]
    record["digest"] = digest(workload, seed, pool, first)
    expected = None
    if pool_size is None:
        expected = json.loads(SEEDS_FILE.read_text())["digests"].get(workload, {}).get(str(seed))
    record["digest_expected"] = expected
    record["correct"] = record["failed"] == 0 and expected in (None, record["digest"])
    record["sizes"] = realized_sizes(pool, first, checker)

    if trace:
        spans = [s for s in tracer.spans if s.qid is not None]
        metrics = tracing.layer_metrics(spans)
        traced_s = sum(t for t, _ in pairs)
        plain_s = sum(p for _, p in pairs)
        metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
        metrics["trace.overhead_ms_per_query"] = (1000.0 * (traced_s - plain_s) / len(pairs), "ms")
        metrics["trace.spans"] = (len(spans), "count")
        record["missing_wraps"] = tracer.missing
        record["spans"] = [[s.sid, s.name, s.start, s.end, s.parent, s.qid] for s in spans]
    else:
        metrics, samples = latency_metrics(pool, runs, first, corrected=True)
        raw, _ = latency_metrics(pool, runs, first, corrected=False)
        samples["passes"] = attempted / len(pool)
        record["samples"] = samples
        metrics["setup_s"] = (statistics.median(c for _, c in setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        raw["setup_s"] = (statistics.median(r for r, _ in setup), "s")
        record["raw_metrics"] = raw
        record["failed_ratio"] = record["failed"] / attempted
    record["metrics"] = metrics
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  realized sizes: {json.dumps(record['sizes'], sort_keys=True)}")
    samples = record.get("samples", {})
    for name, (value, unit) in record["metrics"].items():
        base = "solve_ms" if name == "queries_per_s" else name.split(".")[0]
        note = f"  (n={samples[base]})" if base in samples else ""
        if name.endswith(".tail"):
            note = f"  (p{samples[base + '.tail_percentile']:.1f}, n={samples[base]})"
        raw = record.get("raw_metrics", {}).get(name)
        if raw is not None:
            note += f"  [uncorrected {raw[0]:.6g}]"
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    if "failed_ratio" in record:
        print(f"  {'failed_ratio':<48} {record['failed_ratio']:>14.6g} ratio  ({record['failed']}/{record['attempted']})")
    if record.get("missing_wraps"):
        print(f"  not wrapped (absent from the program): {', '.join(record['missing_wraps'])}")
    for line in record["failures"][:20]:
        print(f"  FAILED {line}")
    expected = record["digest_expected"]
    verdict = "not recorded" if expected is None else ("match" if expected == record["digest"] else "MISMATCH")
    print(f"  answer digest {record['digest']} ({verdict})")


def metrics_json(record: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}


def write_out(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(record, metrics=metrics_json(record))) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=json.loads(SEEDS_FILE.read_text())["default_seed"])
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        workloads.generate(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        results = {}
        for w in workloads.WORKLOADS:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[w] = json.loads(lines[-1]) if child.returncode == 0 and lines else None
        ok = all(r is not None and r["correct"] for r in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
        return 0 if ok else 1

    hostspeed.pin_to_one_cpu()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    write_out(record)
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps(dict(result, metrics=metrics_json(record))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
