"""Differential suite: vectorized group pricing vs the scalar engines.

:mod:`repro.sim.vecreplay` promises that pricing a whole group of sweep
cells through the NumPy column kernel returns exactly what
:func:`repro.sim.machine.simulate` produces cell by cell -- same
cycles, same cache/predictor statistics, same CodePack engine counters.
These tests hold it to that across the paper's full Table 5-12 cell
grid (all issue widths, native/CodePack/optimized modes, index-cache
ablations) and the cwf/prefetch ablation knobs against scalar replay,
hold truncation caps to the execute-driven model (scalar replay and
the kernel share the trace-prefix code, so comparing the two would
prove less), and pin the vectorized profile builder against the
scalar walk -- both on the real benchmark traces and on
Hypothesis-generated random access streams and geometries.  The
kernel is out-of-order only: every in-order cell must come back
routed, never declined or dropped, and is then priced on the scalar
stream kernel as the Workbench prices it, and held to the oracle.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack.compressor import compress_program
from repro.eval.experiments import (
    ALL_EXPERIMENTS,
    CP_BASELINE,
    CP_OPTIMIZED,
    sweep_cells,
)
from repro.eval.runner import Workbench
from repro.sim import vecreplay
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE
from repro.sim.machine import prepare, simulate
from repro.sim.replay import build_profile, record_trace
from repro.workloads.suite import build_benchmark

SCALE = 0.02

ARCHS = {a.name: a for a in (ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE)}


@pytest.fixture(scope="module")
def suite():
    """Programs, predecode, image and recorded trace per benchmark."""
    out = {}
    for name in ("cc1", "pegwit"):
        program = build_benchmark(name, SCALE)
        static = prepare(program)
        image = compress_program(program)
        trace = record_trace(program, static=static)
        out[name] = (program, static, image, trace)
    return out


@pytest.fixture(scope="module")
def grid_cells():
    """The full sweep cell grid at test scale, as (arch, cp) per bench."""
    wb = Workbench(scale=SCALE)
    cells = list(sweep_cells(list(ALL_EXPERIMENTS), wb=wb,
                             benchmarks=["cc1", "pegwit"]))
    by_bench = {}
    for bench, arch, codepack in cells:
        by_bench.setdefault(bench, []).append((arch, codepack))
    return by_bench


def price(suite, bench, bcells, **kwargs):
    program, static, image, trace = suite[bench]
    kwargs.setdefault("max_instructions", 5_000_000)
    kwargs.setdefault("min_lanes", 1)  # the kernel, at every width
    return vecreplay.price_cells(program, bcells, static=static,
                                 trace=trace, image=image, **kwargs)


def price_or_route(suite, bench, bcells, **kwargs):
    """Every cell of *bcells*, priced as the Workbench prices it.

    Out-of-order cells go on the kernel, forced at every width.  The
    in-order cells must come back routed -- counted under
    ``routes["inorder"]``, none declined, none dropped -- and are then
    priced on the scalar stream kernel.
    """
    program, static, image, trace = suite[bench]
    declines, routes = {}, {}
    priced = price(suite, bench, bcells, declines=declines, routes=routes,
                   **kwargs)
    inorder = [pos for pos, (arch, _) in enumerate(bcells)
               if arch.in_order]
    assert declines == {}
    assert sorted(set(range(len(bcells))) - set(priced)) == inorder
    assert routes == ({"inorder": len(inorder)} if inorder else {})
    knobs = {key: kwargs[key] for key in ("max_instructions",
                                          "critical_word_first",
                                          "native_prefetch")
             if key in kwargs}
    for pos in inorder:
        arch, codepack = bcells[pos]
        priced[pos] = simulate(program, arch, codepack=codepack,
                               image=image if codepack else None,
                               static=static, replay=trace, **knobs)
    return priced


def reference_replay(arch, trace):
    """``replay=`` for a cell's reference run: scalar replay of *trace*
    for a kernel-priced cell, the oracle for a routed in-order one,
    whose price already is scalar replay."""
    return False if arch.in_order else trace


class TestGridExactness:
    """Every sweep cell, priced vectorized, equals its scalar run."""

    @pytest.mark.parametrize("bench", ("cc1", "pegwit"))
    def test_full_grid_cycle_and_stats_exact(self, suite, grid_cells,
                                             bench):
        program, static, image, trace = suite[bench]
        bcells = grid_cells[bench]
        priced = price_or_route(suite, bench, bcells)
        # Forced at every width, the kernel serves every out-of-order
        # shape in the paper's grid -- 4/8-issue, native and every
        # CodePack/index-cache variant -- and routes the 1-issue cells.
        assert sorted(priced) == list(range(len(bcells)))
        for pos, (arch, codepack) in enumerate(bcells):
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static,
                           replay=reference_replay(arch, trace))
            assert priced[pos].to_dict() == ref.to_dict(), (
                bench, arch.name, codepack)

    def test_all_issue_widths_grouped(self, suite, grid_cells):
        # The grid exercises all three machines: 1-issue in-order,
        # 4-issue and 8-issue out-of-order.
        widths = {(a.in_order, a.issue_width) for a, _ in
                  grid_cells["cc1"]}
        assert {(True, 1), (False, 4), (False, 8)} <= widths


class TestAblationKnobs:
    CELLS = [(ARCH_4_ISSUE, None), (ARCH_4_ISSUE, CP_BASELINE),
             (ARCH_4_ISSUE, CP_OPTIMIZED)]

    def test_no_critical_word_first(self, suite):
        program, static, image, trace = suite["cc1"]
        priced = price(suite, "cc1", self.CELLS,
                       critical_word_first=False)
        assert sorted(priced) == [0, 1, 2]
        for pos, (arch, codepack) in enumerate(self.CELLS):
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static, replay=trace,
                           critical_word_first=False)
            assert priced[pos].to_dict() == ref.to_dict()

    def test_native_prefetch(self, suite):
        program, static, image, trace = suite["cc1"]
        priced = price(suite, "cc1", self.CELLS, native_prefetch=True)
        assert sorted(priced) == [0, 1, 2]
        for pos, (arch, codepack) in enumerate(self.CELLS):
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static, replay=trace,
                           native_prefetch=True)
            assert priced[pos].to_dict() == ref.to_dict()

    TRUNC_CELLS = [(ARCH_1_ISSUE, None), (ARCH_1_ISSUE, CP_BASELINE),
                   (ARCH_4_ISSUE, None), (ARCH_4_ISSUE, CP_BASELINE),
                   (ARCH_4_ISSUE, CP_OPTIMIZED), (ARCH_8_ISSUE, None),
                   (ARCH_8_ISSUE, CP_OPTIMIZED)]

    @pytest.mark.parametrize("cap", (1, 37, 997))
    def test_truncation_cap_priced_exactly(self, suite, cap):
        # A cap below the trace length truncates the stream: the
        # kernel and the stream kernel (routed in-order cells) price the
        # trace's prefix and report the truncated SimResult
        # (instructions, stats, output, flags) exactly as the
        # execute-driven model does.
        program, static, image, trace = suite["cc1"]
        assert cap < trace.n
        priced = price_or_route(suite, "cc1", self.TRUNC_CELLS,
                                max_instructions=cap)
        assert sorted(priced) == list(range(len(self.TRUNC_CELLS)))
        for pos, (arch, codepack) in enumerate(self.TRUNC_CELLS):
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static, max_instructions=cap,
                           replay=False)
            got = priced[pos].to_dict()
            assert got["instructions"] == cap
            assert got == ref.to_dict(), (arch.name, codepack, cap)

    def test_narrow_pass_is_routed(self, suite):
        # A pass with fewer lanes than min_lanes comes back unpriced
        # and is counted as a route for its kernel, never as a decline.
        declines, routes = {}, {}
        priced = price(suite, "cc1", self.CELLS, min_lanes=4,
                       declines=declines, routes=routes)
        assert priced == {}
        assert routes == {"ooo": 3}
        assert declines == {}


class TestSharedBus:
    """The single-port-channel kernels vs the scalar arbitration."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_shared_bus_cells_priced_exactly(self, suite, arch):
        program, static, image, trace = suite["pegwit"]
        shared = ARCHS[arch].with_shared_bus()
        cells = [(shared, None), (shared, CP_BASELINE),
                 (shared, CP_OPTIMIZED)]
        priced = price_or_route(suite, "pegwit", cells)
        assert sorted(priced) == [0, 1, 2]
        for pos, (a, codepack) in enumerate(cells):
            ref = simulate(program, a, codepack=codepack,
                           image=image if codepack else None,
                           static=static,
                           replay=reference_replay(a, trace))
            assert priced[pos].to_dict() == ref.to_dict(), \
                (arch, codepack)

    def test_shared_and_idle_bus_grouped_apart(self, suite):
        # Shared-bus cells must never share a kernel pass with
        # idle-channel cells of the same shape: the group key splits
        # them, and both price exactly in one call.
        program, static, image, trace = suite["pegwit"]
        cells = [(ARCH_4_ISSUE, CP_BASELINE),
                 (ARCH_4_ISSUE.with_shared_bus(), CP_BASELINE)]
        priced = price(suite, "pegwit", cells)
        assert sorted(priced) == [0, 1]
        assert priced[0].cycles < priced[1].cycles  # contention costs
        for pos, (a, codepack) in enumerate(cells):
            ref = simulate(program, a, codepack=codepack, image=image,
                           static=static, replay=trace)
            assert priced[pos].to_dict() == ref.to_dict()

    def test_shared_bus_truncated(self, suite):
        program, static, image, trace = suite["pegwit"]
        shared = ARCH_4_ISSUE.with_shared_bus()
        cells = [(shared, None), (shared, CP_BASELINE)]
        priced = price(suite, "pegwit", cells, max_instructions=997)
        assert sorted(priced) == [0, 1]
        for pos, (a, codepack) in enumerate(cells):
            ref = simulate(program, a, codepack=codepack,
                           image=image if codepack else None,
                           static=static, max_instructions=997,
                           replay=False)
            assert priced[pos].to_dict() == ref.to_dict()


class TestCrossTraceGrid:
    """price_grid: one invocation prices cells spanning benchmarks."""

    def _benches(self, suite):
        return {name: (program, static, trace, image)
                for name, (program, static, image, trace)
                in suite.items()}

    def test_narrow_passes_route_per_trace(self, suite):
        # Three cells per benchmark of one shape: the shape has six
        # cells across both traces, but a pass is one trace's share,
        # so at min_lanes=4 both three-lane passes route.  Forced to
        # the kernel, the same grid prices in one invocation.
        cells3 = [(ARCH_8_ISSUE, None), (ARCH_8_ISSUE, CP_BASELINE),
                  (ARCH_8_ISSUE, CP_OPTIMIZED)]
        grid = [(bench, arch, cp) for bench in ("cc1", "pegwit")
                for arch, cp in cells3]
        declines, routes = {}, {}
        assert vecreplay.price_grid(
            self._benches(suite), grid, max_instructions=5_000_000,
            min_lanes=4, declines=declines, routes=routes) == {}
        assert routes == {"ooo": 6}
        assert declines == {}

        priced = vecreplay.price_grid(
            self._benches(suite), grid, max_instructions=5_000_000,
            min_lanes=1, declines=declines)
        assert declines == {}
        assert sorted(priced) == list(range(len(grid)))
        for pos, (bench, arch, codepack) in enumerate(grid):
            program, static, image, trace = suite[bench]
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static, replay=trace)
            assert priced[pos].to_dict() == ref.to_dict()

    def test_full_grid_zero_declines(self, suite, grid_cells):
        # The whole sweep grid -- every experiment's cells for both
        # benchmarks -- goes through one invocation with an empty
        # decline histogram when forced at every width: every
        # out-of-order cell prices on the kernel, every in-order cell
        # routes.
        grid = [(bench, arch, cp) for bench, bcells in grid_cells.items()
                for arch, cp in bcells]
        declines, routes = {}, {}
        priced = vecreplay.price_grid(
            self._benches(suite), grid, max_instructions=5_000_000,
            min_lanes=1, declines=declines, routes=routes)
        inorder = [pos for pos, (_, arch, _) in enumerate(grid)
                   if arch.in_order]
        assert declines == {}
        assert inorder and routes == {"inorder": len(inorder)}
        assert sorted(priced) == [pos for pos in range(len(grid))
                                  if pos not in inorder]

    def test_full_grid_default_lanes_zero_declines(self, suite,
                                                   grid_cells):
        # At the measured crossovers the grid's wide 4-issue passes
        # price on the kernels and its three-lane 8-issue and in-order
        # passes route: every cell is priced or routed, none declined.
        grid = [(bench, arch, cp) for bench, bcells in grid_cells.items()
                for arch, cp in bcells]
        declines, routes = {}, {}
        priced = vecreplay.price_grid(
            self._benches(suite), grid, max_instructions=5_000_000,
            declines=declines, routes=routes)
        assert declines == {}
        assert routes == {"ooo": 6, "inorder": 6}
        assert len(priced) + sum(routes.values()) == len(grid)
        assert all(grid[pos][1].issue_width == 4 for pos in priced)

    def test_decline_reasons_are_counted(self, suite):
        # A cell the kernels cannot serve is declined under its reason,
        # ahead of any route; a narrow pass they can serve is routed.
        benches = self._benches(suite)
        program, static, image, _trace = suite["cc1"]
        benches["untraced"] = (program, static, None, image)
        grid = [("untraced", ARCH_4_ISSUE, None), ("cc1", ARCH_4_ISSUE, None)]
        declines, routes = {}, {}
        out = vecreplay.price_grid(benches, grid,
                                   max_instructions=5_000_000,
                                   declines=declines, routes=routes)
        assert out == {}
        assert declines == {"no trace": 1}
        assert routes == {"ooo": 1}

    def test_routed_pass_prices_like_the_kernel(self, suite):
        # Routed cells are priced by simulate() on the stream kernels;
        # field for field, that is what the forced kernel returns for
        # the out-of-order cell, and what the oracle returns for the
        # in-order ones, which route even when forced.
        program, static, image, trace = suite["pegwit"]
        cells = [(ARCH_1_ISSUE, None), (ARCH_1_ISSUE, CP_OPTIMIZED),
                 (ARCH_8_ISSUE, CP_BASELINE)]
        routes = {}
        assert price(suite, "pegwit", cells, min_lanes=None,
                     routes=routes) == {}
        assert routes == {"inorder": 2, "ooo": 1}
        forced = price_or_route(suite, "pegwit", cells)
        for pos, (arch, codepack) in enumerate(cells):
            ref = simulate(program, arch, codepack=codepack,
                           image=image if codepack else None,
                           static=static,
                           replay=reference_replay(arch, trace))
            assert forced[pos].to_dict() == ref.to_dict()


class TestWorkbenchIntegration:
    def test_sweep_results_and_tables_identical(self):
        from repro.eval.tables import format_table
        from repro.eval.experiments import ALL_EXPERIMENTS

        names = ["table5", "table10"]
        benchmarks = ["pegwit"]
        # One Workbench prefetches the grid (column kernels); the other
        # prices each cell alone through run (the scalar stream kernel).
        vec_wb = Workbench(scale=SCALE, jobs=1)
        vec_wb.prefetch(sweep_cells(names, wb=vec_wb, benchmarks=benchmarks))
        scalar_wb = Workbench(scale=SCALE, jobs=1)
        for cell in sweep_cells(names, wb=scalar_wb, benchmarks=benchmarks):
            scalar_wb.run(*cell)
        assert vec_wb.stats.vec_cells > 0
        assert scalar_wb.stats.vec_cells == 0
        assert set(vec_wb._results) == set(scalar_wb._results)
        for key, expected in scalar_wb._results.items():
            assert vec_wb._results[key].to_dict() == expected.to_dict()
        for name in names:
            exp = ALL_EXPERIMENTS[name]
            assert (format_table(exp(wb=vec_wb, benchmarks=benchmarks))
                    == format_table(exp(wb=scalar_wb,
                                        benchmarks=benchmarks)))

    def test_backend_stats_recorded(self):
        wb = Workbench(scale=SCALE, jobs=1)
        wb.prefetch(sweep_cells(["table5", "table10"], wb=wb,
                                benchmarks=["pegwit"]))
        backends = set(wb.stats.backends.values())
        assert "vec" in backends


class TestProfileBuilder:
    """build_profile_vec vs the scalar walk, field for field."""

    FIELDS = ("fe_pos", "fe_flags", "fe_addr", "dmiss", "brk",
              "icache_accesses", "icache_misses", "dcache_accesses",
              "dcache_misses", "lookups", "mispredicts",
              "final_cur_line")

    @pytest.mark.parametrize("bench", ("cc1", "pegwit"))
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_profiles_equal(self, suite, bench, arch):
        program, static, image, trace = suite[bench]
        ref = build_profile(static, trace, ARCHS[arch])
        got = vecreplay.build_profile_vec(static, trace, ARCHS[arch])
        assert got is not None
        for field in self.FIELDS:
            r, g = getattr(ref, field), getattr(got, field)
            if isinstance(r, int):
                assert g == r, (arch, field)
            else:
                assert bytes(bytearray(r)) == bytes(bytearray(g)), \
                    (arch, field)


def _reference_lru(lines, n_sets, assoc):
    """Independent dict-of-ordered-dict LRU model."""
    sets = {}
    hits = []
    for line in lines:
        s = line % n_sets
        cache_set = sets.setdefault(s, {})
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = True
            hits.append(True)
            continue
        hits.append(False)
        if len(cache_set) >= assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = True
    return hits


class TestHypothesisProfiles:
    """Scalar and vectorized cache/predictor state machines agree on
    random access streams and geometries."""

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=255),
                          max_size=200),
           set_bits=st.integers(min_value=0, max_value=4),
           assoc=st.sampled_from([1, 2, 4]))
    def test_lru_hits_match_reference(self, lines, set_bits, assoc):
        n_sets = 1 << set_bits
        got = vecreplay._lru_hits(np.array(lines, dtype=np.int64),
                                  n_sets, assoc)
        assert got.tolist() == _reference_lru(lines, n_sets, assoc)

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(st.tuples(
        st.integers(min_value=0, max_value=15),
        st.sampled_from([-1, 1])), max_size=200))
    def test_clamped_counter_scan_matches_loop(self, events):
        idx = np.array([e[0] for e in events], dtype=np.int64)
        steps = np.array([e[1] for e in events], dtype=np.int64)
        got = vecreplay._clamped_counter_scan(idx, steps)
        table = {}
        for i, (entry, step) in enumerate(events):
            state = table.get(entry, 2)
            assert got[i] == state, i
            table[entry] = min(3, max(0, state + step))


class TestHypothesisReplay:
    """Random truncation caps x bus sharing vs the execute-driven model."""

    @settings(max_examples=20, deadline=None)
    @given(cap=st.integers(min_value=1, max_value=4000),
           shared=st.booleans(),
           arch_name=st.sampled_from(sorted(ARCHS)),
           mode=st.sampled_from(["native", "base", "opt"]))
    def test_random_cap_and_bus_exact(self, suite, cap, shared,
                                      arch_name, mode):
        program, static, image, trace = suite["pegwit"]
        arch = ARCHS[arch_name]
        if shared:
            arch = arch.with_shared_bus()
        codepack = {"native": None, "base": CP_BASELINE,
                    "opt": CP_OPTIMIZED}[mode]
        priced = price_or_route(suite, "pegwit", [(arch, codepack)],
                                max_instructions=cap)
        assert sorted(priced) == [0]
        ref = simulate(program, arch, codepack=codepack,
                       image=image if codepack else None, static=static,
                       max_instructions=cap, replay=False)
        assert priced[0].to_dict() == ref.to_dict()


class TestColumnCache:
    def test_columns_memoised_and_versioned(self, suite):
        program, static, image, trace = suite["pegwit"]
        first = vecreplay.trace_columns(trace, static)
        assert vecreplay.trace_columns(trace, static) is first
        del trace._columns
        rebuilt = vecreplay.trace_columns(trace, static)
        assert rebuilt is not first
        assert rebuilt.n == first.n
        assert np.array_equal(rebuilt.addr, first.addr)
