"""Sweep-runner smoke benchmark: cold vs warm persistent cache.

Runs one paper table's whole sweep twice against a fresh cache
directory -- the cold pass simulates every cell and persists it, the
warm pass must serve everything from disk -- and pins the contract that
the warm pass is at least 5x faster.  Also times the default 1-issue
``simulate`` (record a trace, replay it on the stream kernel) against
the execute-driven oracle (``replay=False``) on the same benchmarks.

The measured trajectory lands in ``BENCH_sweep.json`` next to the
working directory so CI can upload it as an artifact::

    pytest benchmarks/test_sweep_runner.py -q -s
"""

import os
import time

import pytest

from benchmarks.conftest import BENCH_SCALE
from repro.eval.experiments import sweep_cells, table7
from repro.eval.runner import Workbench
from repro.sim.config import ARCH_1_ISSUE
from repro.sim.machine import simulate
from repro.tools.benchinfo import write_report

#: Minimum cold/warm wall-clock ratio the persistent cache must deliver.
WARM_SPEEDUP_FLOOR = 5.0

TRAJECTORY_PATH = os.environ.get("BENCH_SWEEP_JSON", "BENCH_sweep.json")

SWEEP_SCALE = min(BENCH_SCALE, 0.1)
SWEEP_BENCHMARKS = ("cc1", "pegwit", "mpeg2enc")


def _write_trajectory(payload):
    write_report(TRAJECTORY_PATH, payload)


def test_warm_cache_sweep_speedup(tmp_path):
    """Cold table sweep, then warm: the cache must win by >= 5x."""
    cache_dir = str(tmp_path / "cache")
    cells = sweep_cells(["table7"], benchmarks=SWEEP_BENCHMARKS)
    jobs = os.environ.get("SWEEP_JOBS", "auto")

    begin = time.perf_counter()
    cold = Workbench(scale=SWEEP_SCALE, cache=cache_dir, jobs=jobs)
    cold.prefetch(cells)
    cold_table = table7(wb=cold, benchmarks=SWEEP_BENCHMARKS)
    cold_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    warm = Workbench(scale=SWEEP_SCALE, cache=cache_dir, jobs=jobs)
    warm.prefetch(cells)
    warm_table = table7(wb=warm, benchmarks=SWEEP_BENCHMARKS)
    warm_seconds = time.perf_counter() - begin

    assert warm.stats.cache_hits == len(cells)
    assert warm.stats.sim_runs == 0 and warm.stats.parallel_cells == 0
    assert warm_table.rows == cold_table.rows

    speedup = cold_seconds / warm_seconds
    print("\nsweep cold=%.2fs warm=%.2fs speedup=%.1fx (jobs=%s, %d cells)"
          % (cold_seconds, warm_seconds, speedup, cold.jobs, len(cells)))
    _write_trajectory({"warm_cache": {
        "table": "table7",
        "benchmarks": list(SWEEP_BENCHMARKS),
        "scale": SWEEP_SCALE,
        "jobs": cold.jobs,
        "cells": len(cells),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "cold_stats": cold.stats.as_dict(cache=cold.cache),
        "warm_stats": warm.stats.as_dict(cache=warm.cache),
    }})
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        "warm sweep only %.1fx faster (cold %.2fs, warm %.2fs)"
        % (speedup, cold_seconds, warm_seconds))


def test_inorder_default_speedup():
    """The default 1-issue simulate (record + stream replay) must beat
    the execute-driven oracle (and agree with it cycle-for-cycle -- the
    differential suite in tests/sim/test_blockexec.py checks exactness;
    here we record the performance trajectory).  Each default run
    records its own trace, as a lone call does."""
    wb = Workbench(scale=SWEEP_SCALE)
    rows = {}
    totals = {"reference": 0.0, "default": 0.0}
    for bench in SWEEP_BENCHMARKS:
        program = wb.program(bench)
        static = wb.static(bench)
        # Warm the compiled block and replay tables so one-time setup
        # is excluded.
        simulate(program, ARCH_1_ISSUE, static=static)
        timings = {}
        for label, replay in (("reference", False), ("default", None)):
            best = float("inf")
            for _ in range(3):
                begin = time.perf_counter()
                result = simulate(program, ARCH_1_ISSUE, static=static,
                                  replay=replay)
                best = min(best, time.perf_counter() - begin)
            timings[label] = best
            timings["%s_cycles" % label] = result.cycles
        totals["reference"] += timings["reference"]
        totals["default"] += timings["default"]
        timings["speedup"] = timings["reference"] / timings["default"]
        rows[bench] = timings
        assert timings["reference_cycles"] == timings["default_cycles"]
    overall = totals["reference"] / totals["default"]
    print("\nin-order default speedup over the oracle: %.2fx overall (%s)"
          % (overall, ", ".join("%s %.2fx" % (b, rows[b]["speedup"])
                                for b in rows)))
    _write_trajectory({"inorder_default": {
        "scale": SWEEP_SCALE,
        "benchmarks": rows,
        "overall_speedup": overall,
    }})
    assert overall > 1.0


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q", "-s"]))
