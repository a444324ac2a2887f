"""Metrics registry: percentile math, qps windows, batch occupancy."""

import pytest

from repro.serve.metrics import (
    MetricsRegistry,
    merge_snapshots,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 0.50) == 51
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100

    def test_order_independent(self):
        assert percentile([5, 1, 3, 2, 4], 0.5) == 3


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.record_request("decompress")
        registry.record_request("decompress")
        registry.record_response("decompress", 0.001)
        registry.record_error("malformed")
        registry.record_rejected()
        snap = registry.snapshot()
        assert snap["requests"]["decompress"] == 2
        assert snap["responses"]["decompress"] == 1
        assert snap["errors"]["malformed"] == 1
        assert snap["rejected"] == 1

    def test_latency_summary_ms(self):
        registry = MetricsRegistry()
        for seconds in (0.001, 0.002, 0.003, 0.004, 0.100):
            registry.record_response("decompress", seconds)
        summary = registry.latency_summary()
        assert summary["count"] == 5
        assert summary["p50_ms"] == pytest.approx(3.0)
        assert summary["p99_ms"] == pytest.approx(100.0)
        assert summary["max_ms"] == pytest.approx(100.0)
        assert summary["mean_ms"] == pytest.approx(22.0)

    def test_qps_window(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        for _ in range(20):
            clock.now += 0.5
            registry.record_response("decompress", 0.001)
        # 20 completions over 10 seconds, window covers all of them.
        assert registry.qps(window=100.0) == pytest.approx(2.0, rel=0.15)
        # Nothing completes in the next 50s: windowed qps decays to zero.
        clock.now += 50.0
        assert registry.qps(window=10.0) == 0.0
        assert registry.lifetime_qps() > 0.0

    def test_batch_occupancy(self):
        registry = MetricsRegistry()
        registry.record_batch(10, 4)
        registry.record_batch(2, 2)
        summary = registry.batch_summary()
        assert summary["batches"] == 2
        assert summary["occupancy"] == pytest.approx(6.0)
        assert summary["groups_per_batch"] == pytest.approx(3.0)

    def test_gauges_sampled_at_snapshot(self):
        registry = MetricsRegistry()
        value = {"depth": 3}
        registry.register_gauge("queue_depth", lambda: value["depth"])
        registry.register_gauge("broken", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["gauges"]["queue_depth"] == 3
        assert snap["gauges"]["broken"] is None
        value["depth"] = 9
        assert registry.snapshot()["gauges"]["queue_depth"] == 9


def _worker_snapshot(latencies_ms, kind="decompress", cache=None,
                     redirected=0, samples=True):
    registry = MetricsRegistry()
    for ms in latencies_ms:
        registry.record_request(kind)
        registry.record_response(kind, ms / 1000.0)
    for _ in range(redirected):
        registry.record_redirect()
    if cache is not None:
        registry.register_gauge("cache", lambda: dict(cache))
    return registry.snapshot(samples=samples)


class TestMergeSnapshots:
    def test_empty(self):
        assert merge_snapshots([]) == {"workers": 0}
        # Unreachable workers (None or empty dicts) just drop out.
        assert merge_snapshots([None, {}]) == {"workers": 0}
        assert merge_snapshots(
            [None, _worker_snapshot([1.0])])["workers"] == 1

    def test_counters_and_redirects_sum(self):
        merged = merge_snapshots([
            _worker_snapshot([1.0, 2.0], redirected=2),
            _worker_snapshot([3.0], redirected=1),
        ])
        assert merged["workers"] == 2
        assert merged["responses"] == {"decompress": 3}
        assert merged["redirected"] == 3

    def test_swallowed_counters_sum_apart_from_errors(self):
        snaps = []
        for names in (["snapshot_write", "replicate_push"],
                      ["replicate_push"]):
            registry = MetricsRegistry()
            for name in names:
                registry.record_swallowed(name)
            snaps.append(registry.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["swallowed"] == {"snapshot_write": 1,
                                       "replicate_push": 2}
        assert merged["errors"] == {}

    def test_exact_percentiles_from_raw_samples(self):
        """With every worker exporting its sample window the merged
        percentiles are computed over the union -- not averaged."""
        fast = list(range(1, 100))        # 1..99 ms
        slow = [1000.0]                   # one outlier on worker 2
        merged = merge_snapshots([_worker_snapshot(fast),
                                  _worker_snapshot(slow)])
        latency = merged["latency"]
        assert latency["approximate"] is False
        assert latency["count"] == 100
        union = fast + slow
        assert latency["p50_ms"] == pytest.approx(
            percentile(union, 0.50))
        assert latency["p99_ms"] == pytest.approx(
            percentile(union, 0.99))
        assert latency["max_ms"] == pytest.approx(1000.0)

    def test_approximate_fallback_without_samples(self):
        merged = merge_snapshots([
            _worker_snapshot([1.0] * 10, samples=False),
            _worker_snapshot([9.0] * 10, samples=False),
        ])
        latency = merged["latency"]
        assert latency["approximate"] is True
        assert latency["count"] == 20
        # Conservative: worst per-worker percentile, weighted mean.
        assert latency["p99_ms"] == pytest.approx(9.0)
        assert latency["mean_ms"] == pytest.approx(5.0)

    def test_fleet_cache_hit_rate(self):
        merged = merge_snapshots([
            _worker_snapshot([1.0],
                             cache={"hits": 30, "misses": 10,
                                    "entries": 5}),
            _worker_snapshot([1.0],
                             cache={"hits": 10, "misses": 30,
                                    "entries": 7}),
        ])
        assert merged["cache"] == {
            "entries": 12, "hits": 40, "misses": 40, "hit_rate": 0.5}

    def test_per_worker_rows_carry_shard_labels(self):
        merged = merge_snapshots(
            [_worker_snapshot([1.0]), _worker_snapshot([2.0, 4.0])],
            shards=[3, 0])
        rows = merged["per_worker"]
        assert [row["shard"] for row in rows] == [3, 0]
        assert rows[1]["responses"] == 2
        assert rows[1]["p99_ms"] == pytest.approx(4.0)

    def test_qps_and_batch_totals_sum(self):
        first = MetricsRegistry()
        first.record_compress_batch(4)
        first.record_batch(6, 3)
        second = MetricsRegistry()
        second.record_compress_batch(2)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        batch = merged["batch"]
        assert batch["compress_batches"] == 2
        assert batch["compress_requests"] == 6
        assert batch["batches"] == 1
        assert batch["requests"] == 6
        assert batch["occupancy"] == pytest.approx(6.0)
