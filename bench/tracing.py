"""Spans recorded from outside the program.

The traced run replaces functions with timing wrappers at the module
attribute each caller looks up.  ``equilibrium`` imports ``closure_solve`` by
name and ``verifier`` imports the separation oracles and
``enumerate_extreme_types`` by name, so patching the defining module alone
would miss those calls.  The untraced run installs nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    qid: Optional[int]
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_name(parent: Optional[Span]) -> str:
    if parent is not None and parent.name == "equilibrium.solve":
        return "linprog.master"
    if parent is not None and parent.name == "equilibrium.separation_oracle_dist":
        return "linprog.oracle"
    return "linprog.lp_solve"


def _lp_info(args, result) -> dict:
    lp = args[0]
    return {"rows": len(lp.constraints), "cols": lp.num_vars, "infeasible": result.status == "infeasible"}


def _hit_info(args, result) -> dict:
    return {"hit": result is not None}


def _edges_info(args, result) -> dict:
    return {"edges": len(args[0].edges)}


def _enum_info(args, result) -> dict:
    spec, outcomes = args[0], args[1]
    order = getattr(spec, "order", None)
    candidates = len(order) + 1 if order is not None else 2 ** len(outcomes)
    return {"candidates": candidates, "accepted": len(result)}


#: (module, attribute looked up by the caller, span name, per-call info).
WRAPS: tuple[tuple[str, str, object, Optional[Callable]], ...] = (
    ("gamedoc", "parse_game", "gamedoc.parse_game", None),
    ("gamedoc", "serialize_profile", "gamedoc.serialize_profile", None),
    ("equilibrium", "solve", "equilibrium.solve", None),
    ("hardness", "solve", "equilibrium.solve", None),
    ("equilibrium", "build_lp1", "equilibrium.build_lp1", None),
    ("linprog", "lp_solve", _lp_name, _lp_info),
    ("equilibrium", "separation_oracle_partial", "equilibrium.separation_oracle_partial", _hit_info),
    ("verifier", "separation_oracle_partial", "equilibrium.separation_oracle_partial", _hit_info),
    ("equilibrium", "separation_oracle_dist", "equilibrium.separation_oracle_dist", _hit_info),
    ("verifier", "separation_oracle_dist", "equilibrium.separation_oracle_dist", _hit_info),
    ("equilibrium", "closure_solve", "flow.closure_solve", None),
    ("flow", "max_flow", "flow.max_flow", _edges_info),
    ("verifier", "verify", "verifier.verify", None),
    ("verifier", "enumerate_extreme_types", "typespaces.enumerate_extreme_types", _enum_info),
    ("hardness", "enumerate_extreme_types", "typespaces.enumerate_extreme_types", _enum_info),
    ("hardness", "parse_dimacs", "hardness.parse_dimacs", None),
    ("hardness", "reduce_sat", "hardness.reduce_sat", None),
    ("hardness", "check_cnf_existence", "hardness.check_cnf_existence", None),
)


class Tracer:
    """Keeps spans in memory; ``qid`` tags every span with the query that
    caused it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.qid: Optional[int] = None
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            label = name(parent) if callable(name) else name
            span = Span(len(spans), label, 0.0, 0.0, parent.sid if parent else None, self.qid)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every attribute in WRAPS that the program still has; record
        the ones it no longer has in ``missing``."""
        self.missing = []
        for mod_name, attr, name, info in WRAPS:
            module = modules[mod_name]
            if not hasattr(module, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, info))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy time and self time from one traced pass."""
    by_sid = {s.sid: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name, parent_name=None):
        out = by_name.get(name, [])
        if parent_name is not None:
            out = [s for s in out if s.parent in by_sid and by_sid[s.parent].name == parent_name]
        return out

    def busy(ss):
        return sum(s.duration for s in ss)

    def self_time(ss):
        return sum(s.duration - busy(children.get(s.sid, [])) for s in ss)

    def info_mean(ss, key):
        return mean(s.info[key] for s in ss) if ss else 0.0

    m: dict[str, tuple[float, str]] = {}
    master = named("linprog.master")
    m["linprog.master.calls"] = (len(master), "count")
    m["linprog.master.busy_s"] = (busy(master), "s")
    m["linprog.master.rows_mean"] = (info_mean(master, "rows"), "rows")
    m["linprog.master.cols_mean"] = (info_mean(master, "cols"), "cols")
    m["linprog.master.infeasible"] = (sum(s.info["infeasible"] for s in master), "count")
    oracle_lp = named("linprog.oracle")
    m["linprog.oracle.calls"] = (len(oracle_lp), "count")
    m["linprog.oracle.busy_s"] = (busy(oracle_lp), "s")
    build = named("equilibrium.build_lp1")
    m["equilibrium.build_lp1.calls"] = (len(build), "count")
    m["equilibrium.build_lp1.busy_s"] = (busy(build), "s")

    solves = named("equilibrium.solve")
    rounds, cuts, first_rows = [], [], []
    resolved = total = 0
    for s in solves:
        rows = [c.info["rows"] for c in children.get(s.sid, []) if c.name == "linprog.master"]
        rounds.append(len(rows))
        if rows:
            cuts.append(rows[-1] - rows[0])
            first_rows.append(rows[0])
        # Round r re-solves every row of round r - 1: cuts are only added.
        resolved += sum(rows[:-1])
        total += sum(rows[1:])
    m["equilibrium.solve.calls"] = (len(solves), "count")
    m["equilibrium.solve.busy_s"] = (busy(solves), "s")
    m["equilibrium.solve.self_s"] = (self_time(solves), "s")
    m["equilibrium.rounds_per_solve.mean"] = (mean(rounds) if rounds else 0.0, "rounds")
    m["equilibrium.rounds_per_solve.max"] = (max(rounds, default=0), "rounds")
    m["equilibrium.cuts_per_solve.mean"] = (mean(cuts) if cuts else 0.0, "rows")
    m["equilibrium.first_round_rows.mean"] = (mean(first_rows) if first_rows else 0.0, "rows")
    m["equilibrium.rows_resolved_ratio"] = (_ratio(resolved, total), "ratio")
    for oracle in ("separation_oracle_partial", "separation_oracle_dist"):
        calls = named(f"equilibrium.{oracle}", "equilibrium.solve")
        m[f"equilibrium.{oracle}.calls"] = (len(calls), "count")
        m[f"equilibrium.{oracle}.busy_s"] = (busy(calls), "s")
        m[f"equilibrium.{oracle}.hit_ratio"] = (
            _ratio(sum(s.info["hit"] for s in calls), len(calls)),
            "ratio",
        )

    closure = named("flow.closure_solve")
    m["flow.closure_solve.calls"] = (len(closure), "count")
    m["flow.closure_solve.busy_s"] = (busy(closure), "s")
    m["flow.closure_solve.self_s"] = (self_time(closure), "s")
    flow = named("flow.max_flow")
    m["flow.max_flow.calls"] = (len(flow), "count")
    m["flow.max_flow.busy_s"] = (busy(flow), "s")
    m["flow.max_flow.edges_mean"] = (info_mean(flow, "edges"), "edges")

    verify = named("verifier.verify")
    m["verifier.verify.calls"] = (len(verify), "count")
    m["verifier.verify.busy_s"] = (busy(verify), "s")
    m["verifier.verify.self_s"] = (self_time(verify), "s")
    m["verifier.cross_check.busy_s"] = (
        busy(named("typespaces.enumerate_extreme_types", "verifier.verify")),
        "s",
    )
    enum = named("typespaces.enumerate_extreme_types")
    candidates = sum(s.info["candidates"] for s in enum)
    m["typespaces.enumerate_extreme_types.calls"] = (len(enum), "count")
    m["typespaces.enumerate_extreme_types.busy_s"] = (busy(enum), "s")
    m["typespaces.enumerate_extreme_types.candidates"] = (candidates, "count")
    m["typespaces.enumerate_extreme_types.accept_ratio"] = (
        _ratio(sum(s.info["accepted"] for s in enum), candidates),
        "ratio",
    )

    for fn in ("parse_dimacs", "reduce_sat", "check_cnf_existence"):
        m[f"hardness.{fn}.busy_s"] = (busy(named(f"hardness.{fn}")), "s")
    cnf_enum = named("typespaces.enumerate_extreme_types", "hardness.check_cnf_existence")
    m["hardness.extreme_types_mean"] = (info_mean(cnf_enum, "accepted"), "types")
    m["gamedoc.parse_game.busy_s"] = (busy(named("gamedoc.parse_game")), "s")
    m["gamedoc.serialize_profile.busy_s"] = (busy(named("gamedoc.serialize_profile")), "s")
    return m
