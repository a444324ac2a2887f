"""Explorer engine: determinism, caching, journal resume, objectives.

Every exploration here runs at tiny scale (0.02-0.05) over the
pegwit-only space, so whole seeded searches price in well under a
second while still exercising the real simulator.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.eval.sweep import ResultCache
from repro.explore.backends import LocalBackend
from repro.explore.journal import JournalError, RunJournal
from repro.explore.pareto import dominates
from repro.explore.search import (
    DEFAULT_OBJECTIVES,
    EXHAUSTION_LIMIT,
    OBJECTIVES,
    Explorer,
    ObjectiveError,
    decoder_cost,
    resolve_objectives,
)
from repro.explore.space import SearchSpace, default_space
from repro.sim.config import CodePackConfig, IndexCacheConfig

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")

SPACE = default_space(["pegwit"])
SCALE = 0.05
CAP = 200_000


def backend():
    return LocalBackend(scale=SCALE, max_instructions=CAP)


def explore(budget=12, seed=7, **kwargs):
    explorer = Explorer(SPACE, backend(), budget=budget, seed=seed,
                        batch=8, **kwargs)
    return explorer.run()


class TestObjectives:
    def test_resolve_validates_names(self):
        assert resolve_objectives(DEFAULT_OBJECTIVES) == DEFAULT_OBJECTIVES
        with pytest.raises(ObjectiveError):
            resolve_objectives(())
        with pytest.raises(ObjectiveError):
            resolve_objectives(("ratio", "no-such"))
        with pytest.raises(ObjectiveError):
            resolve_objectives(("ratio", "ratio"))

    def test_default_objectives_registered(self):
        for name in DEFAULT_OBJECTIVES:
            assert name in OBJECTIVES

    def test_decoder_cost_monotone(self):
        native = decoder_cost(None)
        one = decoder_cost(CodePackConfig(decode_rate=1, index_cache=None))
        four = decoder_cost(CodePackConfig(decode_rate=4, index_cache=None))
        cached = decoder_cost(CodePackConfig(
            decode_rate=4, index_cache=IndexCacheConfig(16, 8)))
        assert native == 0.0
        assert native < one < four < cached

    def test_output_buffer_costs(self):
        with_buf = CodePackConfig(decode_rate=1, index_cache=None,
                                  output_buffer=True)
        without = CodePackConfig(decode_rate=1, index_cache=None,
                                 output_buffer=False)
        assert decoder_cost(with_buf) > decoder_cost(without)


class TestRatioObjective:
    def test_local_backend_compresses_each_benchmark_once(
            self, monkeypatch):
        """The ratio objective reads the image the backend's Workbench
        priced with instead of rebuilding and recompressing."""
        import repro.codepack.compressor as compressor
        import repro.eval.runner as runner
        import repro.workloads.suite as suite

        build, compress = suite.build_benchmark, compressor.compress_program
        builds, compressions = [], []

        def counting_build(name, scale):
            builds.append(name)
            return build(name, scale)

        def counting_compress(program, *args, **kwargs):
            compressions.append(program.name)
            return compress(program, *args, **kwargs)

        for owner in (suite, runner):
            monkeypatch.setattr(owner, "build_benchmark", counting_build)
        for owner in (compressor, runner):
            monkeypatch.setattr(owner, "compress_program",
                                counting_compress)
        space = default_space(["pegwit", "mpeg2enc"])
        explorer = Explorer(space, backend(), budget=12, seed=7, batch=6)
        explorer.run()
        benches = sorted(explorer._ratio_memo)
        assert benches == ["mpeg2enc", "pegwit"]
        assert sorted(builds) == benches
        assert sorted(compressions) == benches
        for bench in benches:
            rebuilt = compress(build(bench, SCALE)).compression_ratio
            assert explorer.ratio_for(bench) == rebuilt


class TestValidation:
    def test_bad_knobs_rejected(self):
        be = backend()
        with pytest.raises(ValueError):
            Explorer(SPACE, be, budget=0)
        with pytest.raises(ValueError):
            Explorer(SPACE, be, batch=0)
        with pytest.raises(ValueError):
            Explorer(SPACE, be, epsilon=1.5)
        with pytest.raises(ObjectiveError):
            Explorer(SPACE, be, objectives=("bogus",))


class TestDeterminism:
    def test_seeded_runs_are_identical(self):
        a = explore(budget=12, seed=7)
        b = explore(budget=12, seed=7)
        assert a.visited == b.visited
        assert a.frontier.values_set() == b.frontier.values_set()
        assert a.bounds == b.bounds
        assert a.stats.visited == 12
        assert a.stats.backend_priced == 12

    def test_different_seeds_diverge(self):
        a = explore(budget=12, seed=7)
        b = explore(budget=12, seed=8)
        assert a.visited != b.visited

    def test_visited_keys_are_unique(self):
        result = explore(budget=16, seed=3)
        assert len(set(result.visited)) == len(result.visited) == 16

    def test_frontier_has_no_dominated_member(self):
        members = explore(budget=20, seed=5).frontier.members()
        assert members
        for a in members:
            for b in members:
                assert not dominates(a.values, b.values)

    def test_bounds_cover_frontier(self):
        result = explore(budget=16, seed=9)
        assert len(result.bounds) == len(DEFAULT_OBJECTIVES)
        for member in result.frontier.members():
            for value, (lo, hi) in zip(member.values, result.bounds):
                assert lo <= value <= hi


HASHSEED_SCRIPT = r"""
import json
from repro.explore.backends import LocalBackend
from repro.explore.search import Explorer
from repro.explore.space import default_space
space = default_space(["pegwit"])
backend = LocalBackend(scale=0.02, max_instructions=100_000)
result = Explorer(space, backend, budget=8, seed=7, batch=8).run()
print(json.dumps(result.visited))
"""


def test_visited_sequence_independent_of_hash_seed():
    """The proposal stream survives hash randomisation: nothing in the
    engine iterates a set/dict whose order depends on ``hash()``."""
    sequences = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        sequences.append(json.loads(proc.stdout))
    assert sequences[0] == sequences[1]
    assert len(sequences[0]) == 8


class TestResultCacheIntegration:
    def test_warm_cache_prices_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = explore(budget=10, seed=4, cache=cache)
        assert cold.stats.backend_priced == 10
        assert cold.stats.cache_hits == 0
        warm = explore(budget=10, seed=4, cache=ResultCache(str(tmp_path)))
        assert warm.stats.backend_priced == 0
        assert warm.stats.cache_hits == 10
        assert warm.visited == cold.visited
        assert warm.frontier.values_set() == cold.frontier.values_set()


class TestJournal:
    def test_resume_reprices_zero_cells(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        cold = explore(budget=10, seed=4, journal=path)
        assert cold.stats.backend_priced == 10
        resumed = explore(budget=10, seed=4, journal=path, resume=True)
        assert resumed.stats.backend_priced == 0
        assert resumed.stats.journal_hits == 10
        assert resumed.visited == cold.visited
        assert resumed.frontier.values_set() == cold.frontier.values_set()

    def test_resume_extends_past_old_budget(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(budget=8, seed=4, journal=path)
        extended = explore(budget=14, seed=4, journal=path, resume=True)
        assert extended.stats.journal_hits == 8
        assert extended.stats.backend_priced == 6
        assert extended.stats.visited == 14
        # The journal now carries the full 14-cell run.
        journal = RunJournal(path).load()
        assert len(journal.entries) == 14
        seqs = [entry["seq"] for entry in journal.entries]
        assert seqs == sorted(seqs)

    def test_resume_identity_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(budget=6, seed=4, journal=path)
        with pytest.raises(JournalError):
            explore(budget=6, seed=5, journal=path, resume=True)

    def test_restart_without_resume_truncates(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(budget=6, seed=4, journal=path)
        explore(budget=4, seed=4, journal=path)
        journal = RunJournal(path).load()
        assert len(journal.entries) == 4

    def test_truncated_tail_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(budget=6, seed=4, journal=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "eval", "seq": 6, "key"')  # cut write
        journal = RunJournal(path).load()
        assert journal.dropped_lines == 1
        assert len(journal.entries) == 6
        resumed = explore(budget=6, seed=4, journal=path, resume=True)
        assert resumed.stats.journal_hits == 6


class TestExhaustion:
    def test_tiny_space_stops_exhausted(self):
        # One benchmark/arch/knob set, two schemes: exactly two
        # canonical cells exist, so a budget of 10 must stop early.
        space = SearchSpace({
            "benchmark": ("pegwit",), "arch": ("1-issue",),
            "icache_kb": (16,), "bus_bits": (64,), "first_latency": (10,),
            "memory_rate": (2,), "scheme": ("native", "codepack"),
            "decode_rate": (1,), "index_lines": (0,),
            "index_entries": (2,), "output_buffer": (True,),
        })
        explorer = Explorer(space, backend(), budget=10, seed=1, batch=4)
        result = explorer.run()
        assert result.stats.stopped == "exhausted"
        assert result.stats.visited == 2
        assert result.stats.duplicates >= EXHAUSTION_LIMIT
        assert len(set(result.visited)) == 2

    def test_budget_stop_is_the_default(self):
        assert explore(budget=6, seed=2).stats.stopped == "budget"


class TestProgressAndStats:
    def test_progress_callback_sees_every_batch(self):
        snapshots = []
        explorer = Explorer(SPACE, backend(), budget=12, seed=7, batch=4,
                            progress=snapshots.append)
        result = explorer.run()
        assert len(snapshots) == result.stats.batches == 3
        assert [s["visited"] for s in snapshots] == [4, 8, 12]
        for snap in snapshots:
            assert snap["budget"] == 12
            assert snap["backend"] == "local"
            assert set(snap) >= {"cells_per_second", "frontier",
                                 "hypervolume", "priced", "cache_hits",
                                 "journal_hits"}

    def test_stats_as_dict_round_trips_through_json(self):
        stats = explore(budget=8, seed=6).stats
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["visited"] == 8
        assert payload["stopped"] == "budget"
        assert payload["backend"].startswith("local(")
        assert payload["cells_per_second"] > 0
        assert "sweep" in payload["backend_stats"]

    def test_summary_mentions_the_essentials(self):
        stats = explore(budget=8, seed=6).stats
        text = stats.summary()
        assert "8 cells visited" in text
        assert "frontier:" in text

    def test_hypervolume_is_reported(self):
        result = explore(budget=16, seed=5)
        assert result.stats.hypervolume > 0.0
        assert result.stats.frontier_size == len(result.frontier)
