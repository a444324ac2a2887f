"""Trace-replay benchmark: cold sweep with replay on vs off.

Runs the full paper sweep (every exhibit's cells) twice at scale 0.1 on
one worker -- once execute-driven (``replay=False``), once through the
trace-once/replay-many engines -- asserts the results are identical
cell-for-cell, and pins the wall-clock contract that replay wins by at
least :data:`REPLAY_SPEEDUP_FLOOR` (override with the
``REPLAY_SPEEDUP_FLOOR`` environment variable).

The same-tree floor is 2x: this PR's satellite optimisations (memoised
block schedules, word-level predecode sharing, heap FU pools, slotted
sim classes) sped the execute-driven comparison point up too, so the
in-repo ratio understates the win.  Against the pre-replay tree's
execute-driven sweep -- the baseline the optimisation was sized
against -- the same replay pass measures >= 3x; the measured numbers
and methodology live in DESIGN.md's functional/timing-split section.
The report lands in ``BENCH_replay.json`` so CI uploads it as an
artifact::

    pytest benchmarks/test_replay_bench.py -q -s
"""

import os
import time

import pytest

from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
from repro.eval.runner import Workbench
from repro.sim import cpu
from repro.tools.benchinfo import write_report

REPORT_PATH = os.environ.get("BENCH_REPLAY_JSON", "BENCH_replay.json")

#: Minimum replay-off/replay-on wall-clock ratio on one tree.
REPLAY_SPEEDUP_FLOOR = 2.0

SWEEP_SCALE = 0.1


def _floor():
    return float(os.environ.get("REPLAY_SPEEDUP_FLOOR",
                                REPLAY_SPEEDUP_FLOOR))


def test_cold_sweep_replay_speedup():
    """Replay must beat execute-driven simulation on the full sweep."""
    cells = list(sweep_cells(list(ALL_EXPERIMENTS)))
    timings = {}
    benches = {}
    for label, replay in (("execute", False), ("replay", True)):
        # Each arm starts from empty process-wide decode and closure
        # caches, as a fresh process would: neither arm prices with
        # what the other one decoded or compiled.
        cpu._DECODE_CACHE.clear()
        cpu._EXEC_CACHE.clear()
        wb = Workbench(scale=SWEEP_SCALE, jobs=1, replay=replay)
        begin = time.perf_counter()
        wb.prefetch(cells)
        timings[label] = time.perf_counter() - begin
        benches[label] = wb

    execute_wb = benches["execute"]
    replay_wb = benches["replay"]
    # Replay is cycle-exact: every cell's result must match the
    # execute-driven model bit-for-bit (memo keys are identical).
    assert set(replay_wb._results) == set(execute_wb._results)
    for key, expected in execute_wb._results.items():
        got = replay_wb._results[key]
        assert got.to_dict() == expected.to_dict(), key

    speedup = timings["execute"] / timings["replay"]
    floor = _floor()
    print("\nreplay sweep: execute %.2fs vs replay %.2fs = %.2fx "
          "(floor %.1fx, %d cells) -> %s"
          % (timings["execute"], timings["replay"], speedup, floor,
             len(cells), REPORT_PATH))
    write_report(REPORT_PATH, {"cold_sweep": {
        "scale": SWEEP_SCALE,
        "jobs": 1,
        "cells": len(cells),
        "execute_seconds": timings["execute"],
        "replay_seconds": timings["replay"],
        "speedup": speedup,
        "floor": floor,
    }})
    assert speedup >= floor, (
        "replay sweep only %.2fx over execute-driven "
        "(execute %.2fs, replay %.2fs)"
        % (speedup, timings["execute"], timings["replay"]))


def test_trace_cache_amortises_recording(tmp_path):
    """A second Workbench over the same trace dir must skip recording."""
    from repro.sim.replay import TraceCache

    trace_dir = str(tmp_path / "traces")
    cold = Workbench(scale=0.05, jobs=1, trace_cache=trace_dir)
    begin = time.perf_counter()
    cold_trace = cold.trace("pegwit")
    cold_seconds = time.perf_counter() - begin

    warm = Workbench(scale=0.05, jobs=1, trace_cache=trace_dir)
    begin = time.perf_counter()
    warm_trace = warm.trace("pegwit")
    warm_seconds = time.perf_counter() - begin

    assert isinstance(cold.trace_cache, TraceCache)
    assert warm_trace.n == cold_trace.n
    assert bytes(warm_trace.takens) == bytes(cold_trace.takens)
    print("\ntrace cache: record %.3fs vs load %.3fs" %
          (cold_seconds, warm_seconds))
    write_report(REPORT_PATH, {"trace_cache": {
        "benchmark": "pegwit",
        "scale": 0.05,
        "record_seconds": cold_seconds,
        "load_seconds": warm_seconds,
    }})
    assert warm_seconds <= cold_seconds


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q", "-s"]))
