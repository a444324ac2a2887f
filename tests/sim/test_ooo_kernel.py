"""Differential coverage for the out-of-order column kernel's structure.

:func:`repro.sim.vecreplay._run_ooo_group` runs the front end ahead to
the next mispredict (or the run-ahead bound, or a D-miss load when a
shared bus couples CodePack fills to the back end), folds event-free
runs across redirects into one add, skips in-flight-line hits that can
no longer bind, and runs the back end in RUU-sized windows.  These
tests hold random out-of-order shapes to the execute-driven oracle with
the kernel forced at every width, drive each of those paths on purpose
-- asserting through the kernel's work counters that the path ran --
and pin the counters themselves: they repeat exactly, agree across
``--jobs`` values, and the windows stay under their bound.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack.compressor import compress_program
from repro.eval.experiments import (
    ALL_EXPERIMENTS,
    CP_BASELINE,
    CP_DEC16,
    CP_INDEX_ONLY,
    CP_OPTIMIZED,
    CP_PERFECT,
    sweep_cells,
)
from repro.eval.runner import Workbench
from repro.sim import vecreplay
from repro.sim.config import ARCH_4_ISSUE, MemoryConfig
from repro.sim.machine import prepare, simulate
from repro.sim.replay import get_profile, record_trace
from repro.workloads.suite import build_benchmark

SCALE = 0.02

MEMORIES = (MemoryConfig(),
            MemoryConfig(bus_bits=32, first_latency=20, rate=4),
            MemoryConfig(bus_bits=128, first_latency=5, rate=1))
CODEPACKS = (None, CP_BASELINE, CP_OPTIMIZED, CP_INDEX_ONLY, CP_PERFECT,
             CP_DEC16)
#: Far slower than any lane beside it, so its fills are still arriving
#: when the default lanes have long fetched past theirs.
SLOW_MEMORY = MemoryConfig(bus_bits=32, first_latency=400, rate=40)


@pytest.fixture(scope="module")
def suite():
    """Program, predecode, image and trace per benchmark."""
    out = {}
    for name in ("cc1", "go", "pegwit"):
        program = build_benchmark(name, SCALE)
        static = prepare(program)
        out[name] = (program, static, compress_program(program),
                     record_trace(program, static=static))
    return out


def price(suite, bench, cells, **kwargs):
    """*cells* ``(arch, codepack)`` on the kernel, forced at every
    width; returns ``(priced, declines, work)``."""
    program, static, image, trace = suite[bench]
    declines, work = {}, {}
    priced = vecreplay.price_cells(
        program, cells, static=static, trace=trace, image=image,
        max_instructions=5_000_000, min_lanes=1, declines=declines,
        work=work, **kwargs)
    return priced, declines, work


def assert_exact(suite, bench, cells, priced):
    program, static, image, _trace = suite[bench]
    assert sorted(priced) == list(range(len(cells)))
    for pos, (arch, codepack) in enumerate(cells):
        ref = simulate(program, arch, codepack=codepack,
                       image=image if codepack else None, static=static,
                       replay=False)
        assert priced[pos].to_dict() == ref.to_dict(), (arch, codepack)


def is_pow2(value):
    return value & (value - 1) == 0


class TestRandomShapes:
    """Random out-of-order shapes, lanes mixing I-caches, memories and
    CodePack variants, against the execute-driven oracle."""

    @settings(max_examples=25, deadline=None)
    @given(bench=st.sampled_from(("cc1", "go", "pegwit")),
           fetch=st.sampled_from((1, 2, 3, 4, 8, 16)),
           issue=st.sampled_from((1, 2, 3, 4, 8, 16)),
           ruu=st.integers(min_value=1, max_value=64),
           n_alu=st.integers(min_value=1, max_value=8),
           n_mem=st.integers(min_value=1, max_value=8),
           n_mult=st.integers(min_value=1, max_value=8),
           penalty=st.integers(min_value=0, max_value=10),
           shared=st.booleans(),
           lanes=st.lists(st.tuples(
               st.sampled_from((1024, 16384)),
               st.integers(min_value=0, max_value=len(MEMORIES) - 1),
               st.integers(min_value=0, max_value=len(CODEPACKS) - 1)),
               min_size=1, max_size=4, unique=True))
    def test_shape_exact(self, suite, bench, fetch, issue, ruu, n_alu,
                         n_mem, n_mult, penalty, shared, lanes):
        base = dataclasses.replace(
            ARCH_4_ISSUE, fetch_queue=fetch, issue_width=issue,
            ruu_size=ruu, n_alu=n_alu, n_memport=n_mem, n_mult=n_mult,
            mispredict_penalty=penalty, shared_memory_bus=shared)
        cells = [(dataclasses.replace(base.with_icache(size),
                                      memory=MEMORIES[mem]),
                  CODEPACKS[cp]) for size, mem, cp in lanes]
        priced, declines, work = price(suite, bench, cells)
        if not (is_pow2(fetch) and is_pow2(issue)):
            # A non-power-of-two width is outside the slot algebra: the
            # whole pass is declined under its reason, never dropped.
            odd = fetch if not is_pow2(fetch) else issue
            assert priced == {}
            assert declines == {
                "width %d is not a power of two" % odd: len(cells)}
            return
        assert declines == {}
        assert work["ooo_windows"] > 0 and work["ooo_fe_steps"] > 0
        assert_exact(suite, bench, cells, priced)


class TestFoldSlots:
    """The fold column against a scalar event-free front end."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=120),
           data=st.data(),
           sf=st.integers(min_value=0, max_value=4))
    def test_in_phase_lanes_track_the_column(self, n, data, sf):
        width = 1 << sf
        redirects = sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=n - 1))))
        slots = vecreplay._fold_slots(
            np.array(redirects, dtype=np.int64), n, sf)
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        cycle = data.draw(st.integers(min_value=0, max_value=1000))
        # A lane in phase at `start`: its slot is congruent to the
        # column's there, whatever its cycle.
        slot = (cycle << sf) + int(slots[start]) % width
        base = slot - int(slots[start])
        marks = set(redirects)
        for k in range(start, n):
            assert slot == base + slots[k], k
            slot += 1  # fetch k
            if k in marks:  # next cycle, slot 0
                slot = ((slot >> sf) + 1) << sf
        assert slot == base + slots[n]


class TestKernelPaths:
    """Each structural path, driven on purpose and seen in the counts."""

    def test_settled_and_live_hits_in_one_pass(self, suite):
        # The slow lane's fills are still in flight when the default
        # lane's have long landed: in-flight-line hits on the slow
        # lane's subgroup are live, while the fast 64 KB lane settles.
        slow = dataclasses.replace(ARCH_4_ISSUE.with_icache(1024),
                                   memory=SLOW_MEMORY)
        cells = [(ARCH_4_ISSUE, None), (ARCH_4_ISSUE, CP_BASELINE),
                 (ARCH_4_ISSUE.with_icache(65536), None),
                 (slow, None), (slow, CP_OPTIMIZED)]
        priced, declines, work = price(suite, "cc1", cells)
        assert declines == {}
        assert work["ooo_hits_live"] > 0
        assert work["ooo_hits_settled"] > 0
        assert work["ooo_folds"] > 0
        assert_exact(suite, "cc1", cells, priced)

    def test_mispredict_free_span_past_the_run_ahead_bound(self, suite):
        # pegwit mispredicts almost never, so the front end runs into
        # its run-ahead bound and hands over mid-span.
        _program, static, _image, trace = suite["pegwit"]
        profile = get_profile(static, trace, ARCH_4_ISSUE)
        assert trace.n / (profile.mispredicts + 1) > vecreplay._RUN_AHEAD
        cells = [(ARCH_4_ISSUE, None), (ARCH_4_ISSUE, CP_BASELINE),
                 (ARCH_4_ISSUE, CP_OPTIMIZED)]
        priced, declines, work = price(suite, "pegwit", cells)
        assert declines == {}
        assert work["ooo_bound_stops"] >= trace.n // (
            vecreplay._RUN_AHEAD * (profile.mispredicts + 1))
        assert work["ooo_bound_stops"] > 0
        assert_exact(suite, "pegwit", cells, priced)

    def test_shared_bus_dmisses_between_fills(self, suite):
        # CodePack fills and D-miss bursts share one channel, so the
        # front end stops at every D-miss load and the fills after it
        # queue behind the load's burst.
        shared = ARCH_4_ISSUE.with_shared_bus()
        small = shared.with_icache(1024)
        cells = [(shared, None), (shared, CP_BASELINE),
                 (small, CP_OPTIMIZED), (small, None)]
        priced, declines, work = price(suite, "cc1", cells)
        _program, static, _image, trace = suite["cc1"]
        dmiss = sum(get_profile(static, trace, shared).dmiss)
        assert declines == {}
        assert work["ooo_dmiss_stops"] == dmiss > 0
        assert_exact(suite, "cc1", cells, priced)

    def test_native_only_shared_bus_does_not_stop(self, suite):
        # Native fills never touch the channel, so nothing couples the
        # front end to D-miss loads.
        shared = ARCH_4_ISSUE.with_shared_bus()
        cells = [(shared, None), (shared.with_icache(1024), None)]
        priced, declines, work = price(suite, "cc1", cells)
        assert declines == {}
        assert work["ooo_dmiss_stops"] == 0
        assert_exact(suite, "cc1", cells, priced)


@pytest.fixture(scope="module")
def grid():
    """The sweep's cells at test scale, with the Workbench's benches."""
    wb = Workbench(scale=SCALE)
    cells = list(sweep_cells(list(ALL_EXPERIMENTS), wb=wb))
    return wb, cells


class TestWorkCounters:
    """The counters are deterministic, shared by every route to the
    kernel, and bounded by the structure they count."""

    def _passes(self, cells):
        passes = {}
        for cell in cells:
            if not cell[1].in_order:
                key = (cell[0], vecreplay._group_key(cell[1]))
                passes.setdefault(key, []).append(cell)
        return list(passes.values())

    def test_windows_within_bound_per_pass(self, grid):
        wb, cells = grid
        passes = self._passes(cells)
        assert passes
        for bcells in passes:
            bench, arch = bcells[0][0], bcells[0][1]
            benches = wb._prepared(bcells)
            _program, static, trace, _image = benches[bench]
            work = {}
            priced = vecreplay.price_grid(
                benches, bcells, max_instructions=wb.max_instructions,
                min_lanes=1, work=work)
            assert len(priced) == len(bcells)
            n = trace.n
            profile = get_profile(static, trace, arch)
            bound = (math.ceil(n / arch.ruu_size) + profile.mispredicts
                     + math.ceil(n / vecreplay._RUN_AHEAD))
            if arch.shared_memory_bus and any(c[2] for c in bcells):
                bound += sum(profile.dmiss)
            assert 0 < work["ooo_windows"] <= bound, (bench, arch.name)
            assert 0 < work["ooo_fe_steps"]

    def test_counts_repeat_across_runs_and_jobs(self, grid):
        wb, cells = grid
        benches = wb._prepared(cells)
        runs = []
        for _ in range(2):
            work = {}
            vecreplay.price_grid(benches, cells,
                                 max_instructions=wb.max_instructions,
                                 work=work)
            runs.append(work)
        assert runs[0] == runs[1]
        assert runs[0]["ooo_windows"] > 0

        stats = {}
        for jobs in (1, 2):
            bench_wb = Workbench(scale=SCALE, jobs=jobs)
            bench_wb.prefetch(cells)
            stats[jobs] = bench_wb.stats
        for jobs in (1, 2):
            assert stats[jobs].vec_ooo_fe_steps == runs[0]["ooo_fe_steps"]
            assert stats[jobs].vec_ooo_windows == runs[0]["ooo_windows"]
            summary = stats[jobs].as_dict()
            assert summary["vec_ooo_fe_steps"] == runs[0]["ooo_fe_steps"]
            assert summary["vec_ooo_windows"] == runs[0]["ooo_windows"]
