"""Vectorized-replay benchmark: full sweep priced by column kernels.

Runs the full paper sweep (every exhibit's cells, 309 at scale 0.1) on
one worker two ways -- every cell alone through ``Workbench.run`` (the
scalar stream kernel) and the whole grid through
``Workbench.prefetch`` (the vectorized column kernels, narrow passes
routed to the stream kernel) -- interleaved for :data:`REPS`
repetitions, and pins the wall-clock contract that the vector backend
wins by at least :data:`VEC_SPEEDUP_FLOOR` (override with the
``VEC_SPEEDUP_FLOOR`` environment variable).

Methodology: both arms share the functional infrastructure --
built programs, compressed images, predecoded text, recorded traces,
the replay table and the flat dynamic op list -- so those are prepared
once, un-timed, and injected into each measured Workbench.  Everything
the two arms compute per sweep stays inside the timed region and is
re-cooled before every repetition: cache/predictor profiles (built the
same way by both arms), the stream kernels, and the vec-only trace
columns and dependency vectors (the "cold trace-column cache" of the
contract).  The score is min-of-reps over min-of-reps, which
suppresses scheduler noise without averaging away a true regression.

The report lands in ``BENCH_vecreplay.json`` so CI uploads it as an
artifact::

    pytest benchmarks/test_vecreplay_bench.py -q -s
"""

import os
import time

from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
from repro.eval.runner import Workbench
from repro.sim.replay import _dyn_ops, get_replay_table
from repro.tools.benchinfo import write_report

REPORT_PATH = os.environ.get("BENCH_VECREPLAY_JSON", "BENCH_vecreplay.json")

#: Minimum scalar/vec full-sweep wall-clock ratio on one tree.  The
#: vec arm prices the wide 4-issue passes (43-58 cells per benchmark)
#: with column kernels and routes the narrow 8-issue and in-order
#: passes (3 cells per benchmark) to the scalar stream kernel, which
#: beats a columnar pass there: per-op ufunc call overhead is flat in
#: the column count (see benchmarks/test_vecsweep_bench.py for the
#: ``--jobs`` composition contract).
VEC_SPEEDUP_FLOOR = 1.35

SWEEP_SCALE = 0.1
REPS = 3

#: Per-trace memo slots that belong to the timed region: profiles are
#: part of every sweep's cost, and the column/dependency caches are the
#: vec backend's own cost.  The flat dynamic op list
#: (``_dyn``) stays warm -- it is PR 4 functional infrastructure shared
#: verbatim by both.
_TIMED_MEMOS = ("_profiles", "_columns", "_vdeps", "_vkinds")


def _floor():
    return float(os.environ.get("VEC_SPEEDUP_FLOOR", VEC_SPEEDUP_FLOOR))


def _cool_traces(wb):
    for trace in wb._traces.values():
        for attr in _TIMED_MEMOS:
            try:
                delattr(trace, attr)
            except AttributeError:
                pass


def _timed_sweep(base, cells, per_cell):
    """Time pricing *cells* with shared artifacts warm: one prefetch,
    or with *per_cell* each cell alone through ``run``."""
    wb = Workbench(scale=SWEEP_SCALE, jobs=1)
    wb._programs = dict(base._programs)
    wb._images = dict(base._images)
    wb._static = dict(base._static)
    wb._traces = dict(base._traces)
    _cool_traces(wb)
    begin = time.perf_counter()
    if per_cell:
        for cell in cells:
            wb.run(*cell)
    else:
        wb.prefetch(cells)
    return time.perf_counter() - begin, wb


def test_full_sweep_vec_speedup():
    """Column kernels must beat per-cell scalar replay on the sweep."""
    base = Workbench(scale=SWEEP_SCALE, jobs=1)
    cells = list(sweep_cells(list(ALL_EXPERIMENTS), wb=base))
    for bench in sorted({c[0] for c in cells}):
        static = base.static(bench)
        base.image(bench)
        trace = base.trace(bench)
        _dyn_ops(trace, get_replay_table(static).ops)

    scalar_times, vec_times = [], []
    scalar_wb = vec_wb = None
    for _ in range(REPS):
        seconds, scalar_wb = _timed_sweep(base, cells, per_cell=True)
        scalar_times.append(seconds)
        seconds, vec_wb = _timed_sweep(base, cells, per_cell=False)
        vec_times.append(seconds)

    # The backends must agree cell-for-cell before any speed claim,
    # and the vec arm must have declined nothing (a narrow pass is
    # routed, never declined).
    assert not vec_wb.stats.vec_declines, vec_wb.stats.vec_declines
    assert set(vec_wb._results) == set(scalar_wb._results)
    for key, expected in scalar_wb._results.items():
        assert vec_wb._results[key].to_dict() == expected.to_dict(), key

    speedup = min(scalar_times) / min(vec_times)
    floor = _floor()
    print("\nvec sweep: scalar %s vs vec %s -> min %.2fs / %.2fs = "
          "%.2fx (floor %.2fx, %d cells, %d vec-priced) -> %s"
          % (["%.2f" % t for t in scalar_times],
             ["%.2f" % t for t in vec_times],
             min(scalar_times), min(vec_times), speedup, floor,
             len(cells), vec_wb.stats.vec_cells, REPORT_PATH))
    write_report(REPORT_PATH, {"full_sweep": {
        "scale": SWEEP_SCALE,
        "jobs": 1,
        "reps": REPS,
        "cells": len(cells),
        "vec_cells": vec_wb.stats.vec_cells,
        "scalar_seconds": scalar_times,
        "vec_seconds": vec_times,
        "scalar_seconds_min": min(scalar_times),
        "vec_seconds_min": min(vec_times),
        "speedup": speedup,
        "floor": floor,
    }})
    assert speedup >= floor, (
        "vectorized sweep only %.2fx over scalar replay "
        "(scalar min %.2fs, vec min %.2fs)"
        % (speedup, min(scalar_times), min(vec_times)))


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q", "-s"]))
