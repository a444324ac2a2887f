"""Serving metrics: counters, latency percentiles, qps, gauges.

One :class:`MetricsRegistry` per server.  Everything is cheap enough to
record on every request (appending to bounded deques, integer adds);
aggregation work -- sorting for percentiles, walking the qps window --
happens only when a snapshot is taken, i.e. when somebody sends a
``metrics`` request.

The registry is event-loop-confined (the asyncio server records from
coroutine context only), so no locking is needed; the load generator
and tests read it through :meth:`snapshot`, which returns plain JSON
data.

Fleet mode adds :func:`merge_snapshots`: per-worker snapshots (fetched
in-band over the ``metrics`` request) merge into one fleet-wide view --
counters and qps sum, gauges that are cache counters combine into a
fleet hit rate, and latency percentiles are **exact** when every worker
exports its raw sample window (``snapshot(samples=True)``, requested
on the wire with a ``{"samples": true}`` payload) rather than averaged
approximations of per-worker percentiles.
"""

import time
from collections import Counter, deque

__all__ = ["MetricsRegistry", "merge_snapshots", "percentile"]

#: Samples kept for percentile estimation / the qps window.
LATENCY_WINDOW = 8192
QPS_WINDOW_SECONDS = 10.0


def percentile(samples, fraction):
    """The *fraction*-quantile of *samples* (nearest-rank, sorted copy).

    Returns ``0.0`` for an empty sample set -- metrics must never
    raise just because the server has not served anything yet.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = int(fraction * (len(ordered) - 1) + 0.5)
    return ordered[rank]


class MetricsRegistry:
    """Counters and gauges for one server instance."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self.started = clock()
        self.requests = Counter()       # by request type name
        self.responses = Counter()      # by request type name
        self.errors = Counter()         # by ERR_* name
        self.swallowed = Counter()      # fail-open handlers, by site
        self.rejected = 0               # refused before queueing
        self.redirected = 0             # answered with RESP_REDIRECT
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._completions = deque(maxlen=LATENCY_WINDOW)
        self.batches = 0
        self.batched_requests = 0
        self.batched_groups = 0
        self.compress_batches = 0
        self.compress_batched_requests = 0
        self.peer_fetch_hits = 0        # tier-2: groups a peer supplied
        self.peer_fetch_misses = 0      # tier-2: groups no peer held
        self.peer_fetch_errors = 0      # tier-2: fetches that failed
        self._peer_fetch_latencies = deque(maxlen=LATENCY_WINDOW)
        self.peer_served_groups = 0     # groups served *to* peers
        self.replicated_out_groups = 0  # pump: groups pushed to successor
        self.replicated_out_bytes = 0
        self.replicated_in_groups = 0   # groups accepted from peers
        self.replicated_in_bytes = 0
        self.handoff_out_groups = 0     # reshard: groups streamed away
        self.handoff_in_groups = 0      # reshard: groups adopted
        self.reshards = 0               # membership flips applied
        self.ring_epoch = 0
        self._gauges = {}

    # -- recording ----------------------------------------------------------

    def record_request(self, kind):
        self.requests[kind] += 1

    def record_response(self, kind, seconds):
        self.responses[kind] += 1
        self._latencies.append(seconds)
        self._completions.append(self._clock())

    def record_error(self, name):
        self.errors[name] += 1

    def record_swallowed(self, name):
        """A fail-open handler caught an exception and carried on.

        Kept apart from :attr:`errors`, which counts error frames sent
        to clients: a swallowed error never reaches a client.
        """
        self.swallowed[name] += 1

    def record_rejected(self):
        self.rejected += 1

    def record_redirect(self):
        self.redirected += 1

    def record_batch(self, n_requests, n_groups):
        """One pool call serviced *n_requests* coalesced requests that
        needed *n_groups* unique group decodes."""
        self.batches += 1
        self.batched_requests += n_requests
        self.batched_groups += n_groups

    def record_compress_batch(self, n_requests):
        """One fused encode pass served *n_requests* compress frames."""
        self.compress_batches += 1
        self.compress_batched_requests += n_requests

    def record_peer_fetch(self, hits, misses, seconds, error=False):
        """One tier-2 peer-fetch round: *hits* groups supplied by the
        peer, *misses* fell through to decode, in *seconds*."""
        self.peer_fetch_hits += hits
        self.peer_fetch_misses += misses
        if error:
            self.peer_fetch_errors += 1
        self._peer_fetch_latencies.append(seconds)

    def record_peer_served(self, n_groups):
        self.peer_served_groups += n_groups

    def record_replicated_out(self, n_groups, n_bytes):
        self.replicated_out_groups += n_groups
        self.replicated_out_bytes += n_bytes

    def record_replicated_in(self, n_groups, n_bytes):
        self.replicated_in_groups += n_groups
        self.replicated_in_bytes += n_bytes

    def record_handoff(self, n_groups, outbound):
        if outbound:
            self.handoff_out_groups += n_groups
        else:
            self.handoff_in_groups += n_groups

    def record_reshard(self, epoch):
        self.reshards += 1
        self.ring_epoch = epoch

    def register_gauge(self, name, callback):
        """Register a zero-argument callable sampled at snapshot time."""
        self._gauges[name] = callback

    # -- aggregation --------------------------------------------------------

    def qps(self, window=QPS_WINDOW_SECONDS):
        """Completions per second over the trailing *window* seconds."""
        now = self._clock()
        horizon = now - window
        recent = [t for t in self._completions if t >= horizon]
        if not recent:
            return 0.0
        span = max(now - recent[0], 1e-9)
        return len(recent) / span

    def lifetime_qps(self):
        elapsed = max(self._clock() - self.started, 1e-9)
        return sum(self.responses.values()) / elapsed

    def latency_summary(self):
        samples = list(self._latencies)
        count = len(samples)
        return {
            "count": count,
            "mean_ms": (sum(samples) / count * 1000.0) if count else 0.0,
            "p50_ms": percentile(samples, 0.50) * 1000.0,
            "p90_ms": percentile(samples, 0.90) * 1000.0,
            "p99_ms": percentile(samples, 0.99) * 1000.0,
            "max_ms": max(samples) * 1000.0 if samples else 0.0,
        }

    def batch_summary(self):
        return {
            "batches": self.batches,
            "requests": self.batched_requests,
            "groups": self.batched_groups,
            # How many coalesced requests the average pool call served;
            # > 1.0 means micro-batching is actually merging work.
            "occupancy": (self.batched_requests / self.batches
                          if self.batches else 0.0),
            "groups_per_batch": (self.batched_groups / self.batches
                                 if self.batches else 0.0),
            "compress_batches": self.compress_batches,
            "compress_requests": self.compress_batched_requests,
            "compress_occupancy": (
                self.compress_batched_requests / self.compress_batches
                if self.compress_batches else 0.0),
        }

    def tier2_summary(self):
        total = self.peer_fetch_hits + self.peer_fetch_misses
        fetch_samples = list(self._peer_fetch_latencies)
        return {
            "peer_fetch_hits": self.peer_fetch_hits,
            "peer_fetch_misses": self.peer_fetch_misses,
            "peer_fetch_errors": self.peer_fetch_errors,
            "peer_fetch_hit_rate": (self.peer_fetch_hits / total
                                    if total else 0.0),
            "peer_fetch_p50_ms": percentile(fetch_samples, 0.50) * 1000.0,
            "peer_fetch_p99_ms": percentile(fetch_samples, 0.99) * 1000.0,
            "peer_served_groups": self.peer_served_groups,
        }

    def snapshot(self, samples=False):
        """Everything as one JSON-ready dict (the ``metrics`` response).

        With *samples*, the raw latency window rides along (in ms) so a
        fleet aggregator can merge exact percentiles across workers.
        """
        gauges = {}
        for name, callback in self._gauges.items():
            try:
                gauges[name] = callback()
            except Exception:
                gauges[name] = None
        snap = {
            "uptime_seconds": self._clock() - self.started,
            "requests": dict(self.requests),
            "responses": dict(self.responses),
            "errors": dict(self.errors),
            "swallowed": dict(self.swallowed),
            "rejected": self.rejected,
            "redirected": self.redirected,
            "qps": {
                "window": self.qps(),
                "lifetime": self.lifetime_qps(),
            },
            "latency": self.latency_summary(),
            "batch": self.batch_summary(),
            "tier2": self.tier2_summary(),
            "replication": {
                "out_groups": self.replicated_out_groups,
                "out_bytes": self.replicated_out_bytes,
                "in_groups": self.replicated_in_groups,
                "in_bytes": self.replicated_in_bytes,
                "handoff_out_groups": self.handoff_out_groups,
                "handoff_in_groups": self.handoff_in_groups,
            },
            "membership": {
                "reshards": self.reshards,
                "ring_epoch": self.ring_epoch,
            },
            "gauges": gauges,
        }
        if samples:
            snap["latency_samples_ms"] = [sec * 1000.0
                                          for sec in self._latencies]
        return snap


def _merge_counters(out, key, snaps):
    merged = Counter()
    for snap in snaps:
        merged.update(snap.get(key, {}))
    out[key] = dict(merged)


def merge_snapshots(snapshots, shards=None):
    """Merge per-worker metric snapshots into one fleet-wide view.

    *snapshots* is a list of :meth:`MetricsRegistry.snapshot` dicts
    (optionally with ``latency_samples_ms``); *shards* optionally
    labels them (same length).  Counters, qps and batch totals sum;
    cache-counter gauges combine into a fleet-wide hit rate; latency
    merges exactly from the union of raw samples when every snapshot
    carries them, and falls back to count-weighted means plus
    worst-of-fleet percentiles otherwise (flagged ``approximate``).
    """
    snaps = [snap for snap in snapshots if snap]
    if not snaps:
        return {"workers": 0}
    out = {"workers": len(snaps)}
    for key in ("requests", "responses", "errors", "swallowed"):
        _merge_counters(out, key, snaps)
    for key in ("rejected", "redirected"):
        out[key] = sum(snap.get(key, 0) for snap in snaps)
    out["uptime_seconds"] = max(snap.get("uptime_seconds", 0.0)
                                for snap in snaps)
    out["qps"] = {
        "window": sum(snap.get("qps", {}).get("window", 0.0)
                      for snap in snaps),
        "lifetime": sum(snap.get("qps", {}).get("lifetime", 0.0)
                        for snap in snaps),
    }

    batch = Counter()
    for snap in snaps:
        for key, value in snap.get("batch", {}).items():
            if not key.endswith("occupancy") \
                    and not key.endswith("per_batch"):
                batch[key] += value
    batch = dict(batch)
    batch["occupancy"] = (batch.get("requests", 0)
                          / batch["batches"]) if batch.get("batches") \
        else 0.0
    out["batch"] = batch

    if all("latency_samples_ms" in snap for snap in snaps):
        merged = []
        for snap in snaps:
            merged.extend(snap["latency_samples_ms"])
        out["latency"] = {
            "count": len(merged),
            "mean_ms": sum(merged) / len(merged) if merged else 0.0,
            "p50_ms": percentile(merged, 0.50),
            "p90_ms": percentile(merged, 0.90),
            "p99_ms": percentile(merged, 0.99),
            "max_ms": max(merged) if merged else 0.0,
            "approximate": False,
        }
    else:
        total = sum(snap.get("latency", {}).get("count", 0)
                    for snap in snaps)
        weighted = sum(snap.get("latency", {}).get("mean_ms", 0.0)
                       * snap.get("latency", {}).get("count", 0)
                       for snap in snaps)
        # Name the shards that omitted their raw sample window: a
        # fleet p99 that went approximate is only debuggable if the
        # culprit worker is attributable from the merged payload.
        missing = [(shards[index] if shards and index < len(shards)
                    else index)
                   for index, snap in enumerate(snaps)
                   if "latency_samples_ms" not in snap]
        out["latency"] = {
            "count": total,
            "mean_ms": weighted / total if total else 0.0,
            "p50_ms": max(snap.get("latency", {}).get("p50_ms", 0.0)
                          for snap in snaps),
            "p90_ms": max(snap.get("latency", {}).get("p90_ms", 0.0)
                          for snap in snaps),
            "p99_ms": max(snap.get("latency", {}).get("p99_ms", 0.0)
                          for snap in snaps),
            "max_ms": max(snap.get("latency", {}).get("max_ms", 0.0)
                          for snap in snaps),
            "approximate": True,
            "missing_samples_shards": missing,
        }

    tier2 = Counter()
    have_tier2 = False
    for snap in snaps:
        section = snap.get("tier2")
        if isinstance(section, dict):
            have_tier2 = True
            for key, value in section.items():
                if not key.endswith(("_rate", "_ms")):
                    tier2[key] += value
    if have_tier2:
        tier2 = dict(tier2)
        fetches = (tier2.get("peer_fetch_hits", 0)
                   + tier2.get("peer_fetch_misses", 0))
        tier2["peer_fetch_hit_rate"] = (
            tier2.get("peer_fetch_hits", 0) / fetches if fetches else 0.0)
        tier2["peer_fetch_p99_ms"] = max(
            snap.get("tier2", {}).get("peer_fetch_p99_ms", 0.0)
            for snap in snaps)
        out["tier2"] = tier2

    replication = Counter()
    have_replication = False
    for snap in snaps:
        section = snap.get("replication")
        if isinstance(section, dict):
            have_replication = True
            replication.update(section)
    if have_replication:
        out["replication"] = dict(replication)

    membership = [snap.get("membership") for snap in snaps
                  if isinstance(snap.get("membership"), dict)]
    if membership:
        out["membership"] = {
            "reshards": sum(m.get("reshards", 0) for m in membership),
            "ring_epoch": max(m.get("ring_epoch", 0)
                              for m in membership),
        }

    hits = misses = entries = 0
    have_cache = False
    for snap in snaps:
        cache = snap.get("gauges", {}).get("cache")
        if isinstance(cache, dict):
            have_cache = True
            hits += cache.get("hits", 0)
            misses += cache.get("misses", 0)
            entries += cache.get("entries", 0)
    if have_cache:
        total = hits + misses
        out["cache"] = {"entries": entries, "hits": hits,
                        "misses": misses,
                        "hit_rate": hits / total if total else 0.0}

    per_worker = []
    for index, snap in enumerate(snaps):
        cache = snap.get("gauges", {}).get("cache") or {}
        per_worker.append({
            "shard": (shards[index] if shards and index < len(shards)
                      else index),
            "qps": snap.get("qps", {}).get("lifetime", 0.0),
            "p99_ms": snap.get("latency", {}).get("p99_ms", 0.0),
            "responses": sum(snap.get("responses", {}).values()),
            "hit_rate": cache.get("hit_rate", 0.0),
        })
    out["per_worker"] = per_worker
    return out
