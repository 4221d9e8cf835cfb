"""Seconds-long smoke test of the benchmark at tiny pool sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    plain = run.run(workload, 5, 0.1, False, pool_size=6)
    again = run.run(workload, 5, 0.1, False, pool_size=6)
    traced = run.run(workload, 5, 0.1, True, pool_size=6)

    assert plain["correct"] and again["correct"] and traced["correct"], plain["failures"] + traced["failures"]
    assert plain["digest"] == again["digest"] == traced["digest"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert plain["failed_ratio"] == 0
    assert all(value > 0 for name, (value, _) in plain["metrics"].items() if not name.startswith("verify_ms"))
    # The traced run puts every wrapped attribute back.
    assert run.equilibrium.solve.__module__ == "ordineq.equilibrium"
    assert run.verifier.separation_oracle_partial.__module__ == "ordineq.equilibrium"


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail(values[:5]) == (5, 80.0)


def test_host_speed_scales():
    ref = hostspeed.REFERENCE_S
    # A steady host gives every region the same factor.
    assert hostspeed.scales([2 * ref] * 4) == [0.5] * 3
    # A host twice as slow for the whole window halves every factor in it.
    half = 3 * hostspeed.WINDOW
    slow = hostspeed.scales([ref] * half + [2 * ref] * half)
    assert slow[0] == 1.0 and slow[-1] == 0.5
    assert 0.5 < slow[half - 1] < 1.0
    assert 0 < hostspeed.kernel_seconds() < 1


def test_fails_without_program_sources(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        SPEC["command"] + ["--workload", "master_lp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
