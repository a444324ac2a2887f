"""Pluggable cell-pricing backends for the explorer.

A backend prices batches of sweep cells; the engine owns everything
else (dedupe, cache, journal, frontier).  Two implementations:

* :class:`LocalBackend` -- in-process, wrapping a
  :class:`~repro.eval.runner.Workbench`: trace-once replay, vectorized
  column-kernel group pricing, optional process-pool fan-out
  (``jobs``).  The default, and the fastest on one machine.
* :class:`FleetBackend` -- dispatches ``sweep_cell`` frames across a
  serve fleet through :class:`~repro.serve.client.FleetClient`.  Cells
  route deterministically (hash of the canonical spec), so repeated
  explorations land each cell on the same worker -- warm against that
  worker's in-process memo and the shared on-disk result cache.

Both backends price *identical* results for identical cells (the sim
backends are cycle-exact against each other), which is what lets the
engine's visited-cell sequence, frontier and journal be backend-
independent.
"""

from dataclasses import dataclass, field

__all__ = ["PriceJob", "PriceOutcome", "BackendError", "LocalBackend",
           "FleetBackend"]


class BackendError(RuntimeError):
    """A backend failed to price a cell (transport loss, key skew)."""


@dataclass
class PriceJob:
    """One cell to price: the lowered triple plus its wire spec."""

    cell: tuple      # (benchmark, ArchConfig, CodePackConfig|None)
    key: str         # sweep cell key (sha256 hex)
    config: dict     # wire config (repro.explore.space.cell_from_config)
    point: tuple = None


@dataclass
class PriceOutcome:
    """One priced cell: the result plus where the work happened."""

    result: object   # SimResult
    backend: str     # "local", "fleet:<shard>"
    cached: bool = False  # served from a remote worker's cache
    meta: dict = field(default_factory=dict)


class LocalBackend:
    """Price cells in-process through a Workbench sweep."""

    name = "local"

    def __init__(self, scale=0.1, max_instructions=5_000_000, jobs=1,
                 replay=True, trace_cache=None, trace_cache_limit=None):
        from repro.eval.runner import Workbench

        # cache=None on purpose: the engine owns the persistent result
        # cache (one store shared by every backend), the Workbench
        # contributes its in-process memo, replay and vec kernels.
        self.wb = Workbench(scale=scale, max_instructions=max_instructions,
                            jobs=jobs, replay=replay,
                            trace_cache=trace_cache,
                            trace_cache_limit=trace_cache_limit,
                            cache=None)
        self.scale = scale
        self.max_instructions = max_instructions

    def price(self, jobs):
        """Price *jobs*; returns one :class:`PriceOutcome` per job."""
        cells = [job.cell for job in jobs]
        self.wb.prefetch(cells)
        return [PriceOutcome(result=self.wb.run(*job.cell), backend="local")
                for job in jobs]

    def describe(self):
        return "local(jobs=%d, replay=%s)" % (self.wb.jobs, self.wb.replay)

    def stats(self):
        """SweepStats of the underlying Workbench, as plain data."""
        return {"sweep": self.wb.stats.as_dict()}

    def close(self):
        pass


class FleetBackend:
    """Price cells by dispatching ``sweep_cell`` frames over a fleet.

    The backend owns a private event loop (created lazily on the first
    :meth:`price` call) so the synchronous engine can drive an asyncio
    fleet client; connections persist across batches.  *concurrency*
    bounds in-flight frames fleet-wide (default: two per worker --
    sweeps are CPU-bound on the worker, so deeper pipelines only grow
    queues).
    """

    name = "fleet"

    def __init__(self, addresses, scale=0.1, max_instructions=5_000_000,
                 concurrency=None, timeout=600.0, replicas=None):
        if not addresses:
            raise ValueError("fleet backend needs at least one address")
        self.addresses = list(addresses)
        self.scale = scale
        self.max_instructions = max_instructions
        self.concurrency = concurrency or 2 * len(self.addresses)
        self.timeout = timeout
        self.replicas = replicas
        self.frames = 0
        self.remote_cached = 0
        self.per_shard = {}
        self._loop = None
        self._client = None

    # -- loop/client lifecycle ----------------------------------------------

    def _ensure_loop(self):
        if self._loop is None:
            import asyncio

            self._loop = asyncio.new_event_loop()
        return self._loop

    async def _ensure_client(self):
        if self._client is None:
            from repro.serve.client import FleetClient

            self._client = FleetClient(self.addresses,
                                       replicas=self.replicas)
            await self._client.connect()
        return self._client

    def shard_for(self, spec):
        """Deterministic shard for a spec (stable across runs/processes)."""
        from repro.serve.client import spec_shard

        return spec_shard(spec, len(self.addresses))

    # -- pricing -------------------------------------------------------------

    def _spec(self, job):
        return {"config": job.config, "scale": self.scale,
                "max_instructions": self.max_instructions}

    def price(self, jobs):
        if not jobs:
            return []
        loop = self._ensure_loop()
        return loop.run_until_complete(self._price(jobs))

    async def _price(self, jobs):
        import asyncio

        from repro.sim.results import SimResult

        client = await self._ensure_client()
        gate = asyncio.Semaphore(self.concurrency)

        async def one(job):
            spec = self._spec(job)
            shard = self.shard_for(spec)
            async with gate:
                response = await client.sweep_cell(spec, shard=shard,
                                                   timeout=self.timeout)
            if response.get("key") != job.key:
                # The worker rebuilt a different cell than we asked
                # for -- a version skew or spec bug; failing loudly is
                # the differential check that keeps both sides honest.
                raise BackendError(
                    "sweep key mismatch for %s on shard %d: sent %s, "
                    "got %s" % (job.cell[0], shard, job.key,
                                response.get("key")))
            self.frames += 1
            shard_stats = self.per_shard.setdefault(
                shard, {"frames": 0, "cached": 0})
            shard_stats["frames"] += 1
            cached = bool(response.get("cached"))
            if cached:
                self.remote_cached += 1
                shard_stats["cached"] += 1
            return PriceOutcome(
                result=SimResult.from_dict(response["result"]),
                backend="fleet:%d" % shard, cached=cached)

        return list(await asyncio.gather(*(one(job) for job in jobs)))

    def describe(self):
        return "fleet(%d workers, concurrency=%d)" % (
            len(self.addresses), self.concurrency)

    def stats(self):
        return {"frames": self.frames, "remote_cached": self.remote_cached,
                "per_shard": {str(k): dict(v)
                              for k, v in sorted(self.per_shard.items())}}

    def close(self):
        if self._loop is not None:
            if self._client is not None:
                self._loop.run_until_complete(self._client.close())
                self._client = None
            self._loop.close()
            self._loop = None
