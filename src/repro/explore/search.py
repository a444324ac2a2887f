"""The exploration engine: seeded random + adaptive frontier search.

One :class:`Explorer` walks a :class:`~repro.explore.space.SearchSpace`
until *budget* unique cells have been evaluated.  Proposals are
epsilon-greedy: with probability *epsilon* (or while the frontier is
empty) a uniform random point; otherwise a mutation of a random
frontier member -- one dimension changed to a different choice --
exploiting the empirical structure of compression design spaces, where
good configurations cluster (a near-Pareto cache geometry usually
stays near-Pareto under one knob twist).

Everything is deterministic under ``seed``: proposals consume a
private :class:`random.Random`, frontier state evolves only between
batches from cycle-exact results, and neither hashing (no reliance on
``hash()``) nor backend choice nor wall-clock enters any decision.
The visited-cell sequence is therefore a pure function of (space,
seed, objectives, epsilon, batch, budget) -- the property the journal
leans on for resume and tests assert across backends and
``PYTHONHASHSEED`` values.

Lookup order per proposed cell: journal memo (a resumed run re-prices
nothing), the persistent SHA-keyed result cache (concurrent and past
explorations dedupe work), then the pricing backend.
"""

import time
from dataclasses import dataclass, field

from repro.eval.sweep import cell_key
from repro.explore import EXPLORE_VERSION
from repro.explore.backends import PriceJob
from repro.explore.journal import RunJournal
from repro.explore.pareto import ParetoFrontier

__all__ = ["Explorer", "ExploreStats", "ObjectiveError", "decoder_cost",
           "OBJECTIVES", "DEFAULT_OBJECTIVES", "resolve_objectives"]


# ---------------------------------------------------------------------------
# Objectives (all minimised)
# ---------------------------------------------------------------------------

class ObjectiveError(ValueError):
    """An unknown or unusable objective name."""


def decoder_cost(codepack):
    """Abstract decompressor hardware cost, in index-entry equivalents.

    One decoder pipeline is weighted like 64 index entries, the output
    buffer like 16; native machines cost 0.  The absolute scale is
    arbitrary (it only orders cells along one frontier axis), the
    *monotonicity* is what matters: more decoders, more index cache or
    an output buffer always cost more.
    """
    if codepack is None:
        return 0.0
    cost = 64.0 * codepack.decode_rate
    if codepack.index_cache is not None:
        cost += float(codepack.index_cache.total_entries)
    if codepack.output_buffer:
        cost += 16.0
    return cost


def _obj_ratio(cell, result, context):
    bench, _arch, codepack = cell
    if codepack is None:
        return 1.0
    return context.ratio_for(bench)


def _obj_cpi(cell, result, context):
    if not result.instructions:
        return float("inf")
    return result.cycles / result.instructions


def _obj_cycles(cell, result, context):
    return float(result.cycles)


def _obj_cost(cell, result, context):
    return decoder_cost(cell[2])


def _obj_imiss(cell, result, context):
    return result.icache_miss_rate


#: Named objective extractors: f(cell, result, context) -> float.
OBJECTIVES = {
    "ratio": _obj_ratio,    # compressed/original .text bytes (native=1.0)
    "cpi": _obj_cpi,        # cycles per instruction
    "cycles": _obj_cycles,  # raw cycle count
    "cost": _obj_cost,      # decoder/index-cache hardware units
    "imiss": _obj_imiss,    # L1 I-cache miss rate
}

DEFAULT_OBJECTIVES = ("ratio", "cpi", "cost")


def resolve_objectives(names):
    """Validate objective names; returns them as a tuple."""
    names = tuple(names)
    if not names:
        raise ObjectiveError("need at least one objective")
    unknown = [n for n in names if n not in OBJECTIVES]
    if unknown:
        raise ObjectiveError("unknown objectives: %s (choose from %s)"
                             % (", ".join(unknown),
                                ", ".join(sorted(OBJECTIVES))))
    if len(set(names)) != len(names):
        raise ObjectiveError("duplicate objectives: %s" % (names,))
    return names


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class ExploreStats:
    """Counters for one exploration run."""

    visited: int = 0          # unique cells evaluated (any path)
    backend_priced: int = 0   # priced by the backend this run
    cache_hits: int = 0       # served by the persistent result cache
    journal_hits: int = 0     # replayed from the run journal (resume)
    remote_cached: int = 0    # backend says a worker's cache served it
    duplicates: int = 0       # proposals that re-hit a visited cell
    attempts: int = 0         # total proposals drawn
    batches: int = 0
    frontier_size: int = 0
    frontier_inserted: int = 0
    frontier_evicted: int = 0
    hypervolume: float = 0.0
    elapsed: float = 0.0
    stopped: str = "budget"   # "budget" | "exhausted"
    backend: str = ""
    backend_stats: dict = field(default_factory=dict)

    @property
    def cells_per_second(self):
        return self.visited / self.elapsed if self.elapsed > 0 else 0.0

    def as_dict(self):
        d = {name: getattr(self, name) for name in (
            "visited", "backend_priced", "cache_hits", "journal_hits",
            "remote_cached", "duplicates", "attempts", "batches",
            "frontier_size", "frontier_inserted", "frontier_evicted",
            "hypervolume", "elapsed", "stopped", "backend")}
        d["cells_per_second"] = self.cells_per_second
        d["backend_stats"] = dict(self.backend_stats)
        return d

    def summary(self):
        lines = [
            "explore: %d cells visited (%d priced, %d cache hits, "
            "%d journal hits, %d remote-cached), %.1f cells/s"
            % (self.visited, self.backend_priced, self.cache_hits,
               self.journal_hits, self.remote_cached,
               self.cells_per_second),
            "search: %d proposals (%d duplicates), %d batches, "
            "stopped on %s" % (self.attempts, self.duplicates,
                               self.batches, self.stopped),
            "frontier: %d members (%d inserted, %d evicted), "
            "hypervolume %.4f" % (self.frontier_size,
                                  self.frontier_inserted,
                                  self.frontier_evicted,
                                  self.hypervolume),
            "backend: %s" % self.backend,
        ]
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """What :meth:`Explorer.run` returns."""

    frontier: ParetoFrontier
    stats: ExploreStats
    visited: list          # cell keys in visit order
    bounds: list           # per-objective (lo, hi) over every visited cell


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: Consecutive duplicate proposals before declaring the space mined out.
EXHAUSTION_LIMIT = 2000


class Explorer:
    """Walks a search space toward its Pareto frontier.

    * ``space`` -- a :class:`~repro.explore.space.SearchSpace`.
    * ``backend`` -- a pricing backend (``scale``/``max_instructions``
      are read off it so cell keys bind to what the backend simulates).
    * ``objectives`` -- names from :data:`OBJECTIVES`, all minimised.
    * ``cache`` -- optional :class:`~repro.eval.sweep.ResultCache`:
      the shared store concurrent/restarted explorations dedupe
      through.
    * ``journal`` -- optional path or :class:`RunJournal`; with
      ``resume=True`` an existing journal replays (see module doc).
    * ``progress`` -- optional callback, called after every batch with
      a dict snapshot (cells/sec, frontier size, hypervolume, ...).
    """

    def __init__(self, space, backend, objectives=DEFAULT_OBJECTIVES,
                 seed=0, budget=500, batch=16, epsilon=0.35, cache=None,
                 journal=None, resume=False, progress=None):
        import random

        if budget < 1:
            raise ValueError("budget must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.space = space
        self.backend = backend
        self.objectives = resolve_objectives(objectives)
        self.seed = seed
        self.budget = budget
        self.batch = batch
        self.epsilon = epsilon
        self.cache = cache
        self.progress = progress
        self.rng = random.Random(seed)
        self.scale = backend.scale
        self.max_instructions = backend.max_instructions
        self.frontier = ParetoFrontier(len(self.objectives))
        self.stats = ExploreStats(backend=backend.describe())
        self._ratio_memo = {}
        self._memo = {}
        self.journal = None
        if journal is not None:
            self.journal = (journal if isinstance(journal, RunJournal)
                            else RunJournal(journal))
            self.journal.start(self.run_header(), resume=resume)
            if resume:
                self._memo = self.journal.memo()

    def run_header(self):
        """Everything that shapes the deterministic proposal stream
        (journal identity fields; also stamped into reports)."""
        return {
            "explore_version": EXPLORE_VERSION,
            "space_sha": self.space.fingerprint(),
            "seed": self.seed,
            "objectives": list(self.objectives),
            "scale": self.scale,
            "max_instructions": self.max_instructions,
            "epsilon": self.epsilon,
            "batch": self.batch,
        }

    # -- objective context ---------------------------------------------------

    def ratio_for(self, bench):
        """Compression ratio of *bench* at this run's scale (memoised).

        Identical on every backend, keeping objectives
        backend-independent.  A backend with a Workbench (``wb``) has
        already compressed the benchmark to price it, so the ratio is
        read off that image; otherwise the benchmark is built and
        compressed once per run here.
        """
        if bench not in self._ratio_memo:
            wb = getattr(self.backend, "wb", None)
            if wb is not None:
                image = wb.image(bench)
            else:
                from repro.codepack.compressor import compress_program
                from repro.workloads.suite import build_benchmark

                image = compress_program(build_benchmark(bench, self.scale))
            self._ratio_memo[bench] = image.compression_ratio
        return self._ratio_memo[bench]

    def evaluate(self, cell, result):
        """The objective vector for one priced cell."""
        return tuple(OBJECTIVES[name](cell, result, self)
                     for name in self.objectives)

    # -- proposals -----------------------------------------------------------

    def _propose(self):
        """One candidate point (canonicalised).  RNG-deterministic."""
        roll = self.rng.random()
        members = self.frontier.members()
        if not members or roll < self.epsilon:
            point = self.space.random_point(self.rng)
        else:
            member = members[self.rng.randrange(len(members))]
            point = self.space.mutate(member.point, self.rng)
        return self.space.canonical(point)

    # -- main loop -----------------------------------------------------------

    def run(self):
        """Explore until the budget is spent or the space is mined out.

        Returns an :class:`ExploreResult`.  Frontier updates apply in
        visit order after each batch completes, so parallel backends
        cannot perturb the deterministic proposal stream.
        """
        started = time.perf_counter()
        visited_keys = []
        visited_points = set()
        bounds = [[float("inf"), float("-inf")]
                  for _ in self.objectives]
        consecutive_dups = 0
        exhausted = False

        while len(visited_keys) < self.budget and not exhausted:
            # Propose one batch of fresh cells.
            batch_points = []
            want = min(self.batch, self.budget - len(visited_keys))
            while len(batch_points) < want:
                point = self._propose()
                self.stats.attempts += 1
                if point in visited_points:
                    self.stats.duplicates += 1
                    consecutive_dups += 1
                    if consecutive_dups >= EXHAUSTION_LIMIT:
                        exhausted = True
                        break
                    continue
                consecutive_dups = 0
                visited_points.add(point)
                batch_points.append(point)
            if not batch_points:
                break

            # Resolve each cell: journal memo, result cache, backend.
            pending = []  # (point, cell, key, source, payload)
            jobs = []
            for point in batch_points:
                cell = self.space.cell(point)
                key = cell_key(cell[0], cell[1], cell[2], self.scale,
                               self.max_instructions)
                entry = self._memo.get(key)
                if entry is not None:
                    pending.append((point, cell, key, "journal", entry))
                    continue
                cached = self.cache.get(key) if self.cache is not None \
                    else None
                if cached is not None:
                    pending.append((point, cell, key, "cache", cached))
                    continue
                job = PriceJob(cell=cell, key=key,
                               config=self.space.config(point),
                               point=point)
                jobs.append(job)
                pending.append((point, cell, key, "backend", job))

            outcomes = {}
            if jobs:
                priced = self.backend.price(jobs)
                if len(priced) != len(jobs):
                    raise RuntimeError("backend returned %d outcomes for "
                                       "%d jobs" % (len(priced), len(jobs)))
                outcomes = {job.key: outcome
                            for job, outcome in zip(jobs, priced)}

            # Apply in visit order: frontier, cache, journal, stats.
            for point, cell, key, source, payload in pending:
                seq = len(visited_keys)
                meta = {"benchmark": cell[0], "arch": cell[1].name}
                if source == "journal":
                    values = tuple(payload["objectives"])
                    self.stats.journal_hits += 1
                    meta.update(payload.get("meta") or {})
                    entry = None  # already journaled
                else:
                    if source == "cache":
                        result = payload
                        backend_label = "cache"
                        self.stats.cache_hits += 1
                    else:
                        outcome = outcomes[key]
                        result = outcome.result
                        backend_label = outcome.backend
                        self.stats.backend_priced += 1
                        if outcome.cached:
                            self.stats.remote_cached += 1
                        if self.cache is not None:
                            self.cache.put(key, result)
                    values = self.evaluate(cell, result)
                    meta.update({"mode": result.mode,
                                 "cycles": result.cycles,
                                 "instructions": result.instructions})
                    entry = {"seq": seq, "key": key,
                             "point": self.space.describe(point),
                             "objectives": list(values),
                             "backend": backend_label, "meta": meta}
                for i, value in enumerate(values):
                    bounds[i][0] = min(bounds[i][0], value)
                    bounds[i][1] = max(bounds[i][1], value)
                self.frontier.add(key, values, point=point, meta=meta,
                                  seq=seq)
                if entry is not None and self.journal is not None:
                    self.journal.append(entry)
                visited_keys.append(key)

            self.stats.batches += 1
            self._refresh_stats(visited_keys, bounds, started)
            if self.progress is not None:
                self.progress(self.progress_snapshot())

        self.stats.stopped = "exhausted" if exhausted else "budget"
        self._refresh_stats(visited_keys, bounds, started)
        self.stats.backend_stats = self.backend.stats()
        if self.journal is not None:
            self.journal.close()
        return ExploreResult(frontier=self.frontier, stats=self.stats,
                             visited=visited_keys,
                             bounds=[tuple(b) for b in bounds])

    def _refresh_stats(self, visited_keys, bounds, started):
        self.stats.visited = len(visited_keys)
        self.stats.frontier_size = len(self.frontier)
        self.stats.frontier_inserted = self.frontier.inserted
        self.stats.frontier_evicted = self.frontier.evicted
        self.stats.elapsed = time.perf_counter() - started
        if visited_keys:
            self.stats.hypervolume = self.frontier.normalized_hypervolume(
                [tuple(b) for b in bounds])

    def progress_snapshot(self):
        """A plain-dict progress line for streaming displays."""
        return {
            "visited": self.stats.visited,
            "budget": self.budget,
            "cells_per_second": round(self.stats.cells_per_second, 2),
            "frontier": self.stats.frontier_size,
            "hypervolume": round(self.stats.hypervolume, 4),
            "priced": self.stats.backend_priced,
            "cache_hits": self.stats.cache_hits,
            "journal_hits": self.stats.journal_hits,
            "backend": self.backend.name,
        }
