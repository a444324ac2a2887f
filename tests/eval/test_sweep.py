"""Tests for the sweep layer: cell keys, the persistent result cache,
deterministic partitioning and the parallel prefetch path."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro.eval.sweep as sweep
from repro.eval.runner import Workbench
from repro.eval.sweep import (
    ResultCache,
    cell_key,
    partition_cells,
    resolve_jobs,
    run_batches,
)
from repro.sim.codepack_engine import EngineStats, IndexCacheStats
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE, CodePackConfig
from repro.sim.results import SimResult

CP = CodePackConfig()
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def make_result(**overrides):
    base = dict(
        benchmark="pegwit", arch="1-issue", mode="codepack",
        instructions=1000, cycles=2000, icache_accesses=200,
        icache_misses=20, dcache_accesses=50, dcache_misses=5,
        branch_lookups=80, branch_mispredicts=8,
        engine=EngineStats(misses=20, buffer_hits=3, index_fetches=17,
                           blocks_fetched=17, compressed_bytes_fetched=900,
                           index_cache=IndexCacheStats(accesses=20,
                                                       misses=17)),
        output="ok", exit_code=0, extra={"truncated": False})
    base.update(overrides)
    return SimResult(**base)


class TestCellKey:
    def key(self, **overrides):
        args = dict(bench="pegwit", arch=ARCH_1_ISSUE, codepack=CP,
                    scale=0.1, max_instructions=100_000)
        args.update(overrides)
        return cell_key(args["bench"], args["arch"], args["codepack"],
                        args["scale"], args["max_instructions"])

    def test_deterministic_within_process(self):
        assert self.key() == self.key()

    def test_native_vs_codepack_differ(self):
        assert self.key(codepack=None) != self.key()

    def test_arch_field_edit_changes_key(self):
        edited = dataclasses.replace(ARCH_1_ISSUE, mispredict_penalty=7)
        assert self.key(arch=edited) != self.key()

    def test_nested_arch_field_edit_changes_key(self):
        memory = dataclasses.replace(ARCH_1_ISSUE.memory, first_latency=11)
        edited = dataclasses.replace(ARCH_1_ISSUE, memory=memory)
        assert self.key(arch=edited) != self.key()

    def test_codepack_field_edit_changes_key(self):
        assert (self.key(codepack=CodePackConfig(decode_rate=2))
                != self.key())

    def test_scale_changes_key(self):
        assert self.key(scale=0.2) != self.key()

    def test_max_instructions_changes_key(self):
        assert self.key(max_instructions=50_000) != self.key()

    @pytest.mark.parametrize("version", ("CODEC_VERSION", "WORKLOAD_VERSION",
                                         "SIM_VERSION"))
    def test_version_bump_changes_key(self, monkeypatch, version):
        before = self.key()
        monkeypatch.setattr(sweep, version, getattr(sweep, version) + 1)
        assert self.key() != before

    def test_stable_across_hash_seeds(self):
        """The key must not depend on PYTHONHASHSEED (dict/set order)."""
        script = (
            "from repro.eval.sweep import cell_key\n"
            "from repro.sim.config import ARCH_1_ISSUE, CodePackConfig\n"
            "print(cell_key('pegwit', ARCH_1_ISSUE,"
            " CodePackConfig.optimized(), 0.1, 100000))\n")
        keys = []
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            keys.append(out.stdout.strip())
        assert len(set(keys)) == 1
        assert keys[0] == TestCellKey().key(codepack=CodePackConfig
                                            .optimized())


class TestResultCache:
    def test_roundtrip_with_engine_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = make_result()
        assert cache.put("k" * 64, result)
        loaded = cache.get("k" * 64)
        assert loaded == result
        assert isinstance(loaded.engine, EngineStats)
        assert loaded.engine.index_cache.miss_rate == pytest.approx(0.85)

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("absent") is None
        assert cache.misses == 1 and cache.corrupt == 0

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key1", make_result())
        with open(cache._path("key1"), "w") as handle:
            handle.write("{ not json")
        assert cache.get("key1") is None
        assert cache.corrupt == 1

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key2", make_result())
        path = cache._path("key2")
        data = open(path).read()
        with open(path, "w") as handle:
            handle.write(data[:len(data) // 2])
        assert cache.get("key2") is None
        assert cache.corrupt == 1

    def test_format_version_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key3", make_result())
        path = cache._path("key3")
        entry = json.load(open(path))
        entry["format"] = 0
        json.dump(entry, open(path, "w"))
        assert cache.get("key3") is None

    def test_custom_engine_stats_not_stored(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        class Other:
            pass

        assert not cache.put("key4", make_result(engine=Other()))
        assert cache.get("key4") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key5", make_result())
        cache.put("key6", make_result())
        assert cache.clear() == 2
        assert cache.get("key5") is None


class TestSimResultSerialization:
    def test_roundtrip_without_engine(self):
        result = make_result(engine=None, mode="native")
        assert SimResult.from_dict(result.to_dict()) == result

    def test_roundtrip_preserves_extra(self):
        result = make_result(extra={"truncated": True, "note": "x"})
        assert SimResult.from_dict(result.to_dict()).extra == result.extra


class TestPartitioning:
    CELLS = [("a", 1, None), ("a", 2, None), ("b", 1, None),
             ("a", 3, None), ("b", 2, None), ("c", 1, None)]

    def test_groups_by_benchmark(self):
        batches = partition_cells(self.CELLS, 1)
        assert [[c[0] for c in b] for b in batches] == [
            ["a", "a", "a"], ["b", "b"], ["c"]]

    def test_deterministic(self):
        assert (partition_cells(self.CELLS, 4)
                == partition_cells(self.CELLS, 4))

    def test_splits_largest_until_jobs_filled(self):
        batches = partition_cells(self.CELLS, 4)
        assert len(batches) == 4
        flat = [cell for batch in batches for cell in batch]
        assert sorted(flat) == sorted(self.CELLS)
        # Splitting preserves per-benchmark cell order.
        a_cells = [c for c in flat if c[0] == "a"]
        assert a_cells == [c for c in self.CELLS if c[0] == "a"]

    def test_single_cells_cannot_split(self):
        batches = partition_cells([("a", 1, None)], 8)
        assert batches == [[("a", 1, None)]]

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs("4") == 4
        assert resolve_jobs("auto") >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestPricingPasses:
    """pricing_passes makes one pool task per (bench, kernel-group)
    pass, whole, heaviest first, so a worker never prices part of a
    pass and the long passes start first."""

    CELLS = ([("a", ARCH_4_ISSUE, None)] * 4
             + [("a", ARCH_1_ISSUE, None)] * 2
             + [("b", ARCH_4_ISSUE, CP)] * 3
             + [("b", ARCH_1_ISSUE, CP)])

    @staticmethod
    def _pass_key(cell):
        from repro.sim.vecreplay import _group_key
        return (cell[0], _group_key(cell[1]))

    def test_every_pass_whole(self):
        passes = sweep.pricing_passes(self.CELLS)
        keys = [{self._pass_key(cell) for cell in p} for p in passes]
        assert all(len(k) == 1 for k in keys)
        assert len({k.pop() for k in keys}) == len(passes) == 4
        flat = [cell for p in passes for cell in p]
        assert sorted(flat, key=repr) == sorted(self.CELLS, key=repr)

    def test_heaviest_first_by_lanes(self):
        passes = sweep.pricing_passes(self.CELLS)
        assert [(p[0][0], len(p)) for p in passes] == [
            ("a", 4), ("b", 3), ("a", 2), ("b", 1)]

    def test_heaviest_first_by_lanes_times_trace_length(self):
        passes = sweep.pricing_passes(self.CELLS, {"a": 10, "b": 100})
        # b: 3 x 100, 1 x 100; a: 4 x 10, 2 x 10.
        assert [(p[0][0], len(p)) for p in passes] == [
            ("b", 3), ("b", 1), ("a", 4), ("a", 2)]

    def test_deterministic_and_ties_keep_input_order(self):
        assert (sweep.pricing_passes(self.CELLS)
                == sweep.pricing_passes(self.CELLS))
        ties = [("x", ARCH_4_ISSUE, None), ("y", ARCH_4_ISSUE, None)]
        assert sweep.pricing_passes(ties) == [[ties[0]], [ties[1]]]

    def test_empty(self):
        assert sweep.pricing_passes([]) == []


class TestWorkbenchCache:
    SCALE = 0.01

    def test_warm_cache_skips_simulation(self, tmp_path):
        cold = Workbench(scale=self.SCALE, cache=str(tmp_path))
        a = cold.run("pegwit", ARCH_1_ISSUE, CP)
        assert cold.stats.sim_runs == 1

        warm = Workbench(scale=self.SCALE, cache=str(tmp_path))
        b = warm.run("pegwit", ARCH_1_ISSUE, CP)
        assert warm.stats.sim_runs == 0
        assert warm.stats.cache_hits == 1
        assert b == a

    def test_version_bump_forces_rerun(self, tmp_path, monkeypatch):
        cold = Workbench(scale=self.SCALE, cache=str(tmp_path))
        cold.run("pegwit", ARCH_1_ISSUE)
        monkeypatch.setattr(sweep, "SIM_VERSION", sweep.SIM_VERSION + 1)
        warm = Workbench(scale=self.SCALE, cache=str(tmp_path))
        warm.run("pegwit", ARCH_1_ISSUE)
        assert warm.stats.sim_runs == 1  # stale entry never looked up

    def test_arch_edit_forces_rerun(self, tmp_path):
        wb = Workbench(scale=self.SCALE, cache=str(tmp_path))
        wb.run("pegwit", ARCH_1_ISSUE)
        edited = dataclasses.replace(ARCH_1_ISSUE, mispredict_penalty=9)
        wb.run("pegwit", edited)
        assert wb.stats.sim_runs == 2

    def test_corrupt_cache_forces_clean_rerun(self, tmp_path):
        cold = Workbench(scale=self.SCALE, cache=str(tmp_path))
        a = cold.run("pegwit", ARCH_1_ISSUE)
        for name in os.listdir(str(tmp_path)):
            path = os.path.join(str(tmp_path), name)
            if os.path.isdir(path):  # e.g. the traces/ subdirectory
                continue
            with open(path, "w") as handle:
                handle.write('{"format": 1, "result": {"benchm')
        warm = Workbench(scale=self.SCALE, cache=str(tmp_path))
        b = warm.run("pegwit", ARCH_1_ISSUE)
        assert warm.stats.sim_runs == 1
        assert warm.cache.corrupt == 1
        assert b == a  # the re-run replaced the corrupt entry correctly

    def test_scales_do_not_collide_in_shared_cache(self, tmp_path):
        wb1 = Workbench(scale=0.01, cache=str(tmp_path))
        wb2 = Workbench(scale=0.02, cache=str(tmp_path))
        a = wb1.run("pegwit", ARCH_1_ISSUE)
        b = wb2.run("pegwit", ARCH_1_ISSUE)
        assert wb2.stats.sim_runs == 1  # not served wb1's entry
        assert a.instructions != b.instructions

    def test_max_instructions_do_not_collide(self, tmp_path):
        wb1 = Workbench(scale=self.SCALE, cache=str(tmp_path),
                        max_instructions=500)
        wb2 = Workbench(scale=self.SCALE, cache=str(tmp_path),
                        max_instructions=700)
        assert wb1.run("pegwit", ARCH_1_ISSUE).instructions == 500
        assert wb2.run("pegwit", ARCH_1_ISSUE).instructions == 700


class TestWorkbenchMemoKeys:
    def test_memo_key_includes_max_instructions(self):
        # Changing the cap mid-life must not return the stale result.
        wb = Workbench(scale=0.01, max_instructions=500)
        truncated = wb.run("pegwit", ARCH_1_ISSUE)
        assert truncated.instructions == 500
        wb.max_instructions = 5_000_000
        full = wb.run("pegwit", ARCH_1_ISSUE)
        assert full.instructions > 500

    def test_memo_key_includes_scale(self):
        wb = Workbench(scale=0.01)
        small = wb.run("pegwit", ARCH_1_ISSUE)
        wb.scale = 0.02
        wb._programs.clear()
        wb._images.clear()
        wb._static.clear()
        bigger = wb.run("pegwit", ARCH_1_ISSUE)
        assert bigger.instructions > small.instructions


class TestParallelPrefetch:
    SCALE = 0.01
    CELLS = [("pegwit", ARCH_1_ISSUE, None),
             ("pegwit", ARCH_1_ISSUE, CP),
             ("mpeg2enc", ARCH_1_ISSUE, None),
             ("mpeg2enc", ARCH_1_ISSUE, CP)]

    def test_pool_matches_serial(self, tmp_path):
        serial = Workbench(scale=self.SCALE)
        parallel = Workbench(scale=self.SCALE, jobs=2,
                             cache=str(tmp_path))
        simulated = parallel.prefetch(self.CELLS)
        assert simulated == len(self.CELLS)
        assert parallel.stats.parallel_cells == len(self.CELLS)
        for bench, arch, cp in self.CELLS:
            assert (parallel.run(bench, arch, cp)
                    == serial.run(bench, arch, cp))
        # Prefetch memoised everything: run() did zero simulations.
        assert parallel.stats.sim_runs == 0

    def test_prefetch_writes_cache_in_parent(self, tmp_path):
        wb = Workbench(scale=self.SCALE, jobs=2, cache=str(tmp_path))
        wb.prefetch(self.CELLS[:2])
        assert wb.cache.stores == 2
        warm = Workbench(scale=self.SCALE, cache=str(tmp_path))
        warm.run("pegwit", ARCH_1_ISSUE, CP)
        assert warm.stats.sim_runs == 0

    def test_prefetch_serial_path(self):
        wb = Workbench(scale=self.SCALE)  # jobs=1
        assert wb.prefetch(self.CELLS[:2]) == 2
        # One narrow in-order pass: routed to scalar replay.
        assert wb.stats.sim_runs == 2
        assert wb.stats.vec_routed == 2
        assert wb.prefetch(self.CELLS[:2]) == 0

    def test_run_batches_results_match_direct_simulation(self):
        results = run_batches(self.CELLS[:2], self.SCALE, 5_000_000, jobs=1)
        wb = Workbench(scale=self.SCALE)
        for cell, result in results.items():
            bench, arch, cp = cell
            assert result == wb.run(bench, arch, cp)

    def test_run_batches_small_batch_routes(self):
        # A two-cell batch is one two-lane pass, under the kernels'
        # crossover: it is routed to scalar replay and counted as a
        # route, with an empty decline histogram.
        stats = sweep.SweepStats()
        results = run_batches(self.CELLS[:2], self.SCALE, 5_000_000,
                              jobs=1, stats=stats, replay=True)
        assert len(results) == 2
        assert stats.vec_declines == {}
        assert stats.vec_routed == 2
        assert stats.vec_cells == 0
        assert stats.as_dict()["vec_routed"] == 2
        assert "vec routed: 2 cells" in stats.summary()

    def test_run_batches_counts_declines(self, monkeypatch):
        from repro.sim import vecreplay

        def declining_price_grid(benches, cells, *, declines=None,
                                 **kwargs):
            if declines is not None:
                n = len(list(cells))
                declines["synthetic reason"] = (
                    declines.get("synthetic reason", 0) + n)
            return {}

        monkeypatch.setattr(vecreplay, "price_grid", declining_price_grid)
        stats = sweep.SweepStats()
        results = run_batches(self.CELLS[:2], self.SCALE, 5_000_000,
                              jobs=1, stats=stats, replay=True)
        # Declined cells still get served -- by scalar replay -- and
        # the histogram says why they missed the vec backend.
        assert len(results) == 2
        assert stats.vec_declines == {"synthetic reason": 2}
        assert stats.as_dict()["vec_declines"] == stats.vec_declines
        assert "vec declines" in stats.summary()


class TestVecRoutes:
    """The paper grid: every cell is vec-priced or routed, never
    declined, and the routes do not depend on ``--jobs``."""

    SCALE = 0.02
    BENCHMARKS = ["cc1", "pegwit"]

    def test_routes_and_results_identical_across_jobs(self):
        from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells

        wbs = {}
        for jobs in (1, 2):
            wb = Workbench(scale=self.SCALE, jobs=jobs)
            cells = list(sweep_cells(list(ALL_EXPERIMENTS), wb=wb,
                                     benchmarks=self.BENCHMARKS))
            assert wb.prefetch(cells) == len(cells)
            assert wb.stats.vec_declines == {}
            assert wb.stats.vec_cells + wb.stats.vec_routed == len(cells)
            wbs[jobs] = wb
        serial, pooled = wbs[1].stats, wbs[2].stats
        assert serial.vec_routed == pooled.vec_routed > 0
        assert serial.vec_cells == pooled.vec_cells > 0
        assert serial.backends == pooled.backends
        assert wbs[1]._results.keys() == wbs[2]._results.keys()
        for key, result in wbs[1]._results.items():
            assert wbs[2]._results[key].to_dict() == result.to_dict()


class TestInheritedArtifacts:
    """Pool workers price from the Workbench's prepared artifacts: a
    forked worker builds nothing, any other worker builds each
    benchmark at most once, and the results are those of ``jobs=1``."""

    SCALE = 0.02
    BENCHMARKS = ["cc1", "pegwit"]

    def grid(self, wb):
        from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
        return list(sweep_cells(list(ALL_EXPERIMENTS), wb=wb,
                                benchmarks=self.BENCHMARKS))

    @pytest.fixture(scope="class")
    def serial(self):
        wb = Workbench(scale=self.SCALE)
        wb.prefetch(self.grid(wb))
        return wb

    @staticmethod
    def assert_same_results(serial, pooled):
        assert serial._results.keys() == pooled._results.keys()
        for key, result in serial._results.items():
            assert pooled._results[key] == result
            assert pooled._results[key].to_dict() == result.to_dict()

    @pytest.mark.skipif(sweep._START_METHOD != "fork",
                        reason="workers inherit artifacts through fork")
    def test_fork_workers_build_nothing(self, serial, monkeypatch):
        from repro.sim import replay

        wb = Workbench(scale=self.SCALE, jobs=2)
        for bench in self.BENCHMARKS:
            wb.program(bench)
            wb.static(bench)
            wb.trace(bench)
            wb.image(bench)

        def forbidden(*args, **kwargs):
            raise AssertionError("a pool worker rebuilt an artifact")

        for owner, name in ((sweep, "build_benchmark"), (sweep, "prepare"),
                            (sweep, "compress_program"),
                            (replay, "record_trace"),
                            (replay.TraceCache, "get_or_record")):
            monkeypatch.setattr(owner, name, forbidden)
        cells = self.grid(wb)
        assert wb.prefetch(cells) == len(cells)
        assert wb.stats.parallel_cells == len(cells)
        assert wb.stats.worker_builds == 0
        assert sweep._WORKER_MEMO == {}
        self.assert_same_results(serial, wb)

    def test_spawn_workers_build_each_benchmark_once(self, serial,
                                                     monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_START_METHOD", "spawn")
        wb = Workbench(scale=self.SCALE, jobs=2, cache=str(tmp_path))
        cells = self.grid(wb)
        assert wb.prefetch(cells) == len(cells)
        self.assert_same_results(serial, wb)
        # Program, predecode, trace load and image: at most once per
        # benchmark in each of the two workers, against 3-4 per task
        # had every task rebuilt its benchmark.
        once_per_worker = 2 * 4 * len(self.BENCHMARKS)
        every_task = sum(3 + any(c[2] is not None for c in p)
                         for p in sweep.pricing_passes(cells))
        assert every_task > once_per_worker
        assert 0 < wb.stats.worker_builds <= once_per_worker
        assert "worker builds: %d" % wb.stats.worker_builds \
            in wb.stats.summary()


class TestCacheDirEnvOverride:
    """$REPRO_CACHE_DIR moves the default cache root; an explicit
    ``root`` (the CLI flag path) still wins."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert sweep.default_cache_dir() == sweep.DEFAULT_CACHE_DIR

    def test_env_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert sweep.default_cache_dir() == str(tmp_path / "env-cache")

    def test_empty_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert sweep.default_cache_dir() == sweep.DEFAULT_CACHE_DIR

    def test_result_cache_honours_env(self, monkeypatch, tmp_path):
        root = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        cache = ResultCache()
        assert cache.root == str(root)
        assert root.is_dir()  # created eagerly
        cache.put("cell", make_result())
        assert (root / "cell.json").is_file()
        assert ResultCache().get("cell") is not None

    def test_explicit_root_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        explicit = tmp_path / "explicit"
        cache = ResultCache(root=str(explicit))
        assert cache.root == str(explicit)
        cache.put("cell", make_result())
        assert (explicit / "cell.json").is_file()
        assert not (tmp_path / "env-cache" / "cell.json").exists()


class TestParseSize:
    def test_plain_and_suffixed(self):
        assert sweep.parse_size("65536") == 65536
        assert sweep.parse_size("8K") == 8 << 10
        assert sweep.parse_size("8k") == 8 << 10
        assert sweep.parse_size("2M") == 2 << 20
        assert sweep.parse_size("1G") == 1 << 30
        assert sweep.parse_size(" 4m ") == 4 << 20
        assert sweep.parse_size(0) == 0

    @pytest.mark.parametrize("bad", ["", "M", "1.5M", "8Q", "-1", "-2K"])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            sweep.parse_size(bad)

    def test_still_importable_from_historical_home(self):
        from repro.eval.__main__ import parse_size as from_main
        assert from_main is sweep.parse_size


class TestResultCachePrune:
    """PR 8: ``limit_bytes`` caps the cache, LRU entries (mtime order,
    refreshed by get()) pruned after each store."""

    def fill(self, cache, n, t0=1_000_000.0):
        """Store *n* entries with strictly increasing mtimes."""
        for i in range(n):
            key = "cell%02d" % i
            cache.put(key, make_result())
            os.utime(os.path.join(cache.root, key + ".json"),
                     (t0 + i, t0 + i))
        return [os.path.join(cache.root, "cell%02d.json" % i)
                for i in range(n)]

    def entry_size(self, tmp_path):
        # The key is embedded in the entry JSON, so the probe key must
        # be as long as the "cellNN" keys fill() writes.
        probe = ResultCache(str(tmp_path / "probe"))
        probe.put("cell99", make_result())
        return os.path.getsize(os.path.join(probe.root, "cell99.json"))

    def test_unlimited_cache_never_prunes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        paths = self.fill(cache, 5)
        assert cache.prune() == 0
        assert all(os.path.exists(p) for p in paths)
        assert cache.pruned_files == 0

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), limit_bytes=-1)

    def test_oldest_entries_pruned_first(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(str(tmp_path), limit_bytes=3 * size)
        paths = self.fill(cache, 5)
        # put() pruned after each store, so only the newest 3 remain.
        survivors = [p for p in paths if os.path.exists(p)]
        assert survivors == paths[2:]
        assert cache.pruned_files == 2
        assert cache.pruned_bytes == 2 * size
        assert cache.counters()["pruned_files"] == 2

    def test_get_refreshes_lru_position(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(str(tmp_path), limit_bytes=10 * size)
        paths = self.fill(cache, 3)
        assert cache.get("cell00") is not None  # touch the oldest
        cache.limit_bytes = 2 * size
        cache.prune()
        assert os.path.exists(paths[0])      # refreshed: survives
        assert not os.path.exists(paths[1])  # now the LRU: pruned
        assert os.path.exists(paths[2])

    def test_fresh_store_survives_even_alone_over_limit(self, tmp_path):
        cache = ResultCache(str(tmp_path), limit_bytes=1)
        self.fill(cache, 3)
        remaining = [n for n in os.listdir(cache.root)
                     if n.endswith(".json")]
        assert remaining == ["cell02.json"]

    def test_traces_subdir_not_governed(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(str(tmp_path), limit_bytes=2 * size)
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "trace.json").write_text("{}")
        self.fill(cache, 4)
        assert (traces / "trace.json").exists()
        assert not (tmp_path / "cell00.json").exists()

    def test_non_json_files_untouched(self, tmp_path):
        size = self.entry_size(tmp_path)
        notes = tmp_path / "README.txt"
        notes.write_text("x" * 10_000)
        cache = ResultCache(str(tmp_path), limit_bytes=2 * size)
        self.fill(cache, 4)
        assert notes.exists()

    def test_pruned_entry_is_a_clean_miss(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(str(tmp_path), limit_bytes=2 * size)
        self.fill(cache, 4)
        assert cache.get("cell00") is None
        assert cache.get("cell03") is not None

    def test_workbench_threads_cache_limit_through(self, tmp_path):
        wb = Workbench(scale=0.02, cache=str(tmp_path),
                       cache_limit=4 << 20)
        assert wb.cache.limit_bytes == 4 << 20
        ready = ResultCache(str(tmp_path))
        wb2 = Workbench(scale=0.02, cache=ready, cache_limit=1 << 20)
        assert ready.limit_bytes == 1 << 20
        assert wb2.cache is ready
