"""Dedicated tests for the Workbench."""

import time

import pytest

from repro.eval.runner import Workbench
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE, CodePackConfig


@pytest.fixture(scope="module")
def wb():
    return Workbench(scale=0.02)


class TestArtifactCaching:
    def test_images_cached(self, wb):
        assert wb.image("pegwit") is wb.image("pegwit")

    def test_static_cached(self, wb):
        assert wb.static("pegwit") is wb.static("pegwit")

    def test_distinct_benchmarks_distinct_artifacts(self, wb):
        assert wb.program("pegwit") is not wb.program("mpeg2enc")

    @pytest.mark.parametrize("artifact", ["trace", "image"])
    def test_setup_phases_do_not_nest(self, artifact):
        # A cold trace or image builds what it needs first, each step in
        # its own phase, so the phases add up to at most the wall time.
        fresh = Workbench(scale=0.02)
        start = time.perf_counter()
        getattr(fresh, artifact)("pegwit")
        elapsed = time.perf_counter() - start
        phases = fresh.stats.phase_seconds
        assert set(phases) == ({"build", "predecode", "trace"}
                               if artifact == "trace"
                               else {"build", "compress"})
        assert sum(phases.values()) <= elapsed


class TestRunMemoisation:
    def test_keyed_by_arch(self, wb):
        a = wb.run("pegwit", ARCH_4_ISSUE)
        b = wb.run("pegwit", ARCH_1_ISSUE)
        assert a is not b
        assert a is wb.run("pegwit", ARCH_4_ISSUE)

    def test_keyed_by_codepack_config(self, wb):
        base = wb.run("pegwit", ARCH_4_ISSUE, CodePackConfig())
        optimized = wb.run("pegwit", ARCH_4_ISSUE,
                           CodePackConfig.optimized())
        assert base is not optimized
        assert base is wb.run("pegwit", ARCH_4_ISSUE, CodePackConfig())

    def test_derived_arch_configs_memoise(self, wb):
        arch = ARCH_4_ISSUE.with_icache(4096)
        a = wb.run("pegwit", arch)
        # An equal derived config (frozen dataclass) hits the cache.
        assert a is wb.run("pegwit", ARCH_4_ISSUE.with_icache(4096))


class TestHelpers:
    def test_benchmarks_default_is_suite(self, wb):
        assert set(wb.benchmarks()) == {
            "cc1", "go", "mpeg2enc", "pegwit", "perl", "vortex"}

    def test_benchmarks_filter(self, wb):
        assert wb.benchmarks(("cc1",)) == ("cc1",)

    def test_speedup_consistent_with_runs(self, wb):
        config = CodePackConfig()
        speedup = wb.speedup("pegwit", ARCH_4_ISSUE, config)
        native = wb.run("pegwit", ARCH_4_ISSUE)
        packed = wb.run("pegwit", ARCH_4_ISSUE, config)
        assert speedup == pytest.approx(native.cycles / packed.cycles)

    def test_scale_changes_trip_count_not_layout(self):
        small = Workbench(scale=0.02).program("pegwit")
        smaller = Workbench(scale=0.01).program("pegwit")
        # Same static layout; only the trip-count immediate differs.
        assert len(small.text) == len(smaller.text)
        differing = sum(1 for a, b in zip(small.text, smaller.text)
                        if a != b)
        assert differing <= 2  # the lui/ori pair loading `iterations`
