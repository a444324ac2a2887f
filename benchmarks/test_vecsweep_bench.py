"""Processes x vec composition benchmark: the sweep's pool path.

The vectorized backend prices the sweep's wide passes with column
kernels and routes its narrow ones (under the measured lane
crossover) to the scalar stream kernel.  ``--jobs N`` hands the
worker pool one *whole pricing pass* (benchmark x pipeline shape) per
task, heaviest first, so every cell takes the same route as at
``--jobs 1``.  This bench calls ``run_batches`` without prepared
artifacts, so each worker builds the programs and images it needs
once and loads traces from a shared on-disk trace cache the fixture
pre-warms (a Workbench's pool inherits all of them instead).

Two sections land in ``BENCH_vecsweep.json`` (same provenance header
as every other ``BENCH_*.json``):

* ``pool_baseline`` -- the pool worker path at ``jobs=1`` (every cost
  a worker without prepared artifacts pays: program build, image
  compression, trace-cache load, column kernels), measured on any
  machine.
* ``jobs_scaling`` -- ``jobs=2`` against ``jobs=1`` on the same
  pre-warmed trace cache, enforced to :data:`JOBS_SPEEDUP_FLOOR` when
  the host has at least two CPUs (the contract CI's multi-core runner
  pins; a single-core host records the baseline and skips the ratio).

Run it the way CI does::

    pytest benchmarks/test_vecsweep_bench.py -q -s
"""

import os
import time

import pytest

from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
from repro.eval.runner import Workbench
from repro.eval.sweep import pricing_passes, run_batches
from repro.tools.benchinfo import write_report

REPORT_PATH = os.environ.get("BENCH_VECSWEEP_JSON", "BENCH_vecsweep.json")

#: Minimum jobs=2 over jobs=1 wall-clock ratio, both arms vectorized,
#: on a host with >= 2 CPUs.  Worker startup and each worker's one
#: build of the programs and images it prices are inside the timed
#: region (this bench hands ``run_batches`` no prepared artifacts), so
#: the floor sits below the ~2x kernel-time split;
#: raise it via the ``VECSWEEP_JOBS_FLOOR`` environment variable once
#: a given runner's numbers are known.
JOBS_SPEEDUP_FLOOR = 1.2

#: Larger than the single-worker bench's 0.1: each worker's program
#: and image builds are flat in scale (trip counts grow, code size
#: does not), so a longer sweep keeps the measured ratio about kernel
#: pricing rather than fixed worker startup.
SWEEP_SCALE = 0.25
REPS = 2


def _floor():
    return float(os.environ.get("VECSWEEP_JOBS_FLOOR", JOBS_SPEEDUP_FLOOR))


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """Cells plus a pre-warmed shared trace cache, built once."""
    trace_dir = str(tmp_path_factory.mktemp("traces"))
    base = Workbench(scale=SWEEP_SCALE, jobs=1, replay=True,
                     trace_cache=trace_dir)
    cells = list(sweep_cells(list(ALL_EXPERIMENTS), wb=base))
    for bench in sorted({c[0] for c in cells}):
        base.trace(bench)  # records once into the shared cache
    return base, cells, trace_dir


def _timed_pool_sweep(base, cells, trace_dir, jobs):
    """Time run_batches end to end on the shared trace cache."""
    begin = time.perf_counter()
    results = run_batches(cells, scale=SWEEP_SCALE,
                          max_instructions=base.max_instructions,
                          jobs=jobs, replay=True, trace_dir=trace_dir)
    return time.perf_counter() - begin, results


def test_pool_baseline(warmed):
    """Record the jobs=1 pool-path cost; sanity-check the pass list."""
    base, cells, trace_dir = warmed
    batches = pricing_passes(cells)
    assert sorted(len(b) for b in batches) and \
        sum(len(b) for b in batches) == len(cells)
    seconds, results = _timed_pool_sweep(base, cells, trace_dir, jobs=1)
    assert len(results) == len(cells)
    print("\nvec pool sweep: jobs=1 %.2fs (%d cells, %d batches at "
          "jobs=2) -> %s" % (seconds, len(cells), len(batches),
                             REPORT_PATH))
    write_report(REPORT_PATH, {"pool_baseline": {
        "scale": SWEEP_SCALE,
        "jobs": 1,
        "cells": len(cells),
        "batches_at_two": len(batches),
        "seconds": seconds,
    }})


def test_jobs_scaling(warmed):
    """jobs=2 must beat jobs=1 on a multi-core host, both vectorized."""
    base, cells, trace_dir = warmed
    cpus = os.cpu_count() or 1
    one_times, two_times = [], []
    ref = two = None
    for _ in range(REPS):
        seconds, ref = _timed_pool_sweep(base, cells, trace_dir, jobs=1)
        one_times.append(seconds)
        seconds, two = _timed_pool_sweep(base, cells, trace_dir, jobs=2)
        two_times.append(seconds)

    # Partitioning must not change a single result.
    assert set(two) == set(ref)
    for key, expected in ref.items():
        assert two[key].to_dict() == expected.to_dict(), key

    speedup = min(one_times) / min(two_times)
    floor = _floor()
    print("\nvec jobs scaling: jobs=1 %s vs jobs=2 %s -> min %.2fs / "
          "%.2fs = %.2fx (floor %.1fx, %d cpus) -> %s"
          % (["%.2f" % t for t in one_times],
             ["%.2f" % t for t in two_times],
             min(one_times), min(two_times), speedup, floor, cpus,
             REPORT_PATH))
    write_report(REPORT_PATH, {"jobs_scaling": {
        "scale": SWEEP_SCALE,
        "reps": REPS,
        "cells": len(cells),
        "cpus": cpus,
        "jobs1_seconds": one_times,
        "jobs2_seconds": two_times,
        "jobs1_seconds_min": min(one_times),
        "jobs2_seconds_min": min(two_times),
        "speedup": speedup,
        "floor": floor,
        "enforced": cpus >= 2,
    }})
    if cpus < 2:
        pytest.skip("jobs scaling needs >= 2 CPUs (host has %d); "
                    "ratio recorded, floor not enforced" % cpus)
    assert speedup >= floor, (
        "jobs=2 only %.2fx over jobs=1 with the vec backend "
        "(jobs=1 min %.2fs, jobs=2 min %.2fs)"
        % (speedup, min(one_times), min(two_times)))


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q", "-s"]))
