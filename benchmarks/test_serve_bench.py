"""Serving-layer benchmarks: micro-batching, fleet scaling, peer-fetch.

Three contracts:

* **Batching** -- the same Zipf-skewed decompress workload against two
  in-process servers, one with the micro-batch window and
  decoded-group cache and one with neither; the batched configuration
  must sustain at least twice the throughput.
* **Fleet scaling** -- a 4-worker sharded fleet versus a single worker
  with identical per-worker configuration, both driven by multiprocess
  load generators.  The speedup, per-shard p99 rows, and the fairness
  index are always *recorded*; the ``>= 2x`` floor is only *asserted*
  when ``SERVE_FLEET_MIN_SPEEDUP`` is set (CI exports ``2.0`` on its
  multi-core runners -- a one-core dev box cannot scale by fiat).
* **Peer-fetch** -- the tier-2 cooperative cache: serving an evicted
  hot span from the ring successor's replica tier must beat
  re-decoding it by at least ``PEER_FETCH_MIN_SPEEDUP`` (default 3x),
  byte-identically.  One localhost round trip versus a multi-group
  kernel decode -- this is the whole reason the tier exists.

All reports land in ``BENCH_serve.json`` so CI can upload one
artifact::

    pytest benchmarks/test_serve_bench.py -q -s
"""

import asyncio
import json
import os
import statistics
import time

import pytest

from repro.serve.loadgen import LoadgenConfig
from repro.serve.loadgen import run_compare_sync, run_fleet_compare
from repro.serve.server import ServerConfig

#: Minimum batched/unbatched throughput ratio (acceptance contract).
SERVE_SPEEDUP_FLOOR = 2.0

#: Fleet-vs-single floor, asserted only when the env var sets it.
FLEET_SPEEDUP_FLOOR = float(
    os.environ.get("SERVE_FLEET_MIN_SPEEDUP", "0"))

#: Peer-fetch-vs-decode floor (always asserted; env-tunable for CI).
PEER_FETCH_FLOOR = float(
    os.environ.get("PEER_FETCH_MIN_SPEEDUP", "3.0"))

REPORT_PATH = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")

#: Hot-span workload: 16-group spans over a 24-span working set with a
#: Zipf(1.1) popularity skew.  Spans this long make group decoding the
#: dominant cost, which is what the cache + coalescing attack; measured
#: headroom on a single-core runner is ~3-4x against the 2x floor.
WORKLOAD = LoadgenConfig(mode="closed", connections=4, pipeline=4,
                         requests=600, span=16, working_set=24,
                         skew=1.1, benchmark="pegwit", scale=0.05,
                         seed=1234)

SERVER = ServerConfig(batch_window=0.002, max_batch=128,
                      group_cache_entries=4096, workers=2)


def test_batched_throughput_contract():
    result = run_compare_sync(loadgen=WORKLOAD, server_config=SERVER,
                              output=REPORT_PATH)

    batched = result["batched"]
    unbatched = result["unbatched"]
    # Both passes completed the whole plan without shedding anything.
    assert batched["completed"] == WORKLOAD.requests
    assert unbatched["completed"] == WORKLOAD.requests
    assert batched["errors"] == {}
    assert unbatched["errors"] == {}
    # Identical plan both sides: same words delivered, fair comparison.
    assert batched["words_returned"] == unbatched["words_returned"]

    server_metrics = batched["server_metrics"]
    occupancy = server_metrics["batch"]["occupancy"]
    hit_rate = server_metrics["gauges"]["cache"]["hit_rate"]

    print("\nserve bench: batched %.0f rps vs unbatched %.0f rps "
          "= %.2fx (occupancy %.1f, cache hit rate %.2f) -> %s"
          % (batched["throughput_rps"], unbatched["throughput_rps"],
             result["speedup"], occupancy, hit_rate, REPORT_PATH))

    # Micro-batching must actually merge waiters, and the hot working
    # set must actually hit the cache -- otherwise the speedup would be
    # an accident of noise.
    assert occupancy > 1.0
    assert hit_rate > 0.5
    assert result["speedup"] >= SERVE_SPEEDUP_FLOOR, (
        "batched serving only %.2fx over the unbatched baseline "
        "(batched %.0f rps, unbatched %.0f rps)"
        % (result["speedup"], batched["throughput_rps"],
           unbatched["throughput_rps"]))


#: Fleet workload: milder skew than the batching bench so the working
#: set spreads across shards (span starts route independently); 8x4
#: request streams split over multiprocess drivers.
FLEET_WORKLOAD = LoadgenConfig(mode="closed", connections=8, pipeline=4,
                               requests=800, span=16, working_set=32,
                               skew=0.8, benchmark="pegwit", scale=0.05,
                               seed=1234)

FLEET_WORKERS = 4


def _merge_into_report(path, key, payload):
    """Attach *payload* under *key* in the JSON report at *path*,
    keeping whatever the other benchmark already wrote there."""
    report = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = {}
    report[key] = payload
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def test_fleet_scaling_contract():
    result = run_fleet_compare(
        loadgen=FLEET_WORKLOAD, n_workers=FLEET_WORKERS,
        batch_window=SERVER.batch_window, max_batch=SERVER.max_batch,
        group_cache_entries=SERVER.group_cache_entries,
        workers=SERVER.workers)
    _merge_into_report(REPORT_PATH, "fleet", result)

    single = result["single"]
    fleet = result["fleet"]
    assert single["completed"] == FLEET_WORKLOAD.requests
    assert fleet["completed"] == FLEET_WORKLOAD.requests
    assert single["errors"] == {}
    assert fleet["errors"] == {}
    assert fleet["words_returned"] == single["words_returned"]

    rows = result["per_shard"]
    assert len(rows) == FLEET_WORKERS
    print("\nserve fleet bench: %d workers %.0f rps vs single %.0f rps "
          "= %.2fx (fairness %.3f) -> %s"
          % (FLEET_WORKERS, fleet["throughput_rps"],
             single["throughput_rps"], result["fleet_speedup"],
             result["fairness"], REPORT_PATH))
    for row in rows:
        print("  shard %d: %5d reqs  p99 %6.2fms"
              % (row["shard"], row["completed"], row["p99_ms"]))

    # Routing must spread the working set: every shard served traffic,
    # and no shard-starvation fairness collapse.
    assert all(row["completed"] > 0 for row in rows)
    assert result["fairness"] > 1.5 / FLEET_WORKERS
    # Zero redirects in steady state: client and workers agree on the
    # ring with no coordination.
    assert fleet["fleet_metrics"]["redirected"] == 0

    if FLEET_SPEEDUP_FLOOR > 0:
        assert result["fleet_speedup"] >= FLEET_SPEEDUP_FLOOR, (
            "fleet of %d only %.2fx over one worker "
            "(fleet %.0f rps, single %.0f rps)"
            % (FLEET_WORKERS, result["fleet_speedup"],
               fleet["throughput_rps"], single["throughput_rps"]))
    else:
        print("  (SERVE_FLEET_MIN_SPEEDUP unset: %.2fx recorded, "
              "not asserted)" % result["fleet_speedup"])


#: Peer-fetch bench: spans long enough that a decode dwarfs a localhost
#: round trip.  Each timed read is the only request its owner has in
#: flight, so neither side of the compare waits for the 1ms batch
#: window.
PEER_SPAN = 16
PEER_TRIALS = 8


def test_peer_fetch_contract():
    from repro.serve.client import FleetClient
    from repro.serve.fleet import LocalFleet
    from repro.tools.container import parse_image
    from repro.workloads.suite import build_benchmark

    async def main():
        fleet = LocalFleet(n_workers=3, config=ServerConfig(
            batch_window=0.001, replicate_interval=0.01,
            workers=SERVER.workers))
        await fleet.start()
        try:
            async with FleetClient(fleet.addresses) as client:
                program = build_benchmark(WORKLOAD.benchmark,
                                          WORKLOAD.scale)
                digest, blob = await client.compress(
                    program.text, text_base=program.text_base,
                    name=program.name, timeout=60.0)
                await client.broadcast_register(image_bytes=blob)
                n_groups = parse_image(blob).n_groups
                starts = list(range(0, n_groups - PEER_SPAN,
                                    PEER_SPAN))[:PEER_TRIALS]
                assert len(starts) >= 3, "image too small for the bench"

                baseline = {}
                for start in starts:
                    words = await client.decompress(
                        digest=digest, group_start=start,
                        group_count=PEER_SPAN, timeout=60.0)
                    baseline[start] = tuple(words)

                # Wait for the write-behind pump to mirror every span
                # to its ring successor before evicting anything.
                expected = len(starts) * PEER_SPAN
                deadline = asyncio.get_running_loop().time() + 20.0
                while sum(len(s.replicas)
                          for s in fleet.servers) < expected:
                    assert asyncio.get_running_loop().time() < deadline, \
                        "replication pump never mirrored the hot set"
                    await asyncio.sleep(0.02)

                async def timed(start):
                    began = time.perf_counter()
                    words = await client.decompress(
                        digest=digest, group_start=start,
                        group_count=PEER_SPAN, timeout=60.0)
                    elapsed = time.perf_counter() - began
                    assert tuple(words) == baseline[start]
                    return elapsed * 1000.0

                # Peer path: evict the owner's primary cache; the span
                # comes back from the successor's replica tier.
                peer_ms = []
                for start in starts:
                    fleet.server(client.shard_for(
                        digest, start)).cache.clear()
                    peer_ms.append(await timed(start))
                hits = sum(s.metrics.peer_fetch_hits
                           for s in fleet.servers)
                assert hits >= len(starts), \
                    "evicted spans were not served by peers"

                # Decode path: same eviction, but no replica anywhere
                # -- the owner pays for the full span re-decode.
                for server in fleet.servers:
                    server.replicas.clear()
                decode_ms = []
                for start in starts:
                    fleet.server(client.shard_for(
                        digest, start)).cache.clear()
                    decode_ms.append(await timed(start))

                return {
                    "span_groups": PEER_SPAN,
                    "trials": len(starts),
                    "peer_fetch_p50_ms": statistics.median(peer_ms),
                    "decode_p50_ms": statistics.median(decode_ms),
                    "speedup": (statistics.median(decode_ms)
                                / statistics.median(peer_ms)),
                    "floor": PEER_FETCH_FLOOR,
                    "peer_fetch_hits": hits,
                }
        finally:
            await fleet.stop()

    result = asyncio.run(main())
    _merge_into_report(REPORT_PATH, "peer_fetch", result)

    print("\nserve peer-fetch bench: evicted %d-group span healed in "
          "%.2fms via peer vs %.2fms re-decode = %.2fx -> %s"
          % (PEER_SPAN, result["peer_fetch_p50_ms"],
             result["decode_p50_ms"], result["speedup"], REPORT_PATH))

    assert result["speedup"] >= PEER_FETCH_FLOOR, (
        "peer-fetch only %.2fx over re-decode (peer %.2fms, "
        "decode %.2fms; floor %.1fx)"
        % (result["speedup"], result["peer_fetch_p50_ms"],
           result["decode_p50_ms"], PEER_FETCH_FLOOR))


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q", "-s"]))
