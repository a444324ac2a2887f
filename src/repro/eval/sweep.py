"""Parallel sweep execution with a persistent on-disk result cache.

The paper's evaluation is a few hundred independent simulator runs --
*cells*, each a ``(benchmark, arch, codepack)`` triple at a given scale.
This module supplies the machinery the
:class:`~repro.eval.runner.Workbench` uses to run them fast:

* :func:`cell_key` -- a content hash of everything that determines a
  cell's result: the frozen config dataclasses, the benchmark name and
  scale, the instruction cap, and the behaviour versions of the codec
  (:data:`repro.codepack.CODEC_VERSION`), the workload generators
  (:data:`repro.workloads.WORKLOAD_VERSION`) and the timing models
  (:data:`repro.sim.SIM_VERSION`).  The hash is canonical-JSON based,
  so it is independent of ``PYTHONHASHSEED``, dict insertion order and
  process identity -- the same cell hashes identically across runs and
  machines.
* :class:`ResultCache` -- a directory of one JSON file per cell under
  ``.repro_cache/`` (by default), written atomically; corrupt,
  truncated or unreadable entries are treated as misses and re-run.
* :func:`run_batches` -- fans cells across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  On Linux the pool
  forks, so workers price from the programs, predecoded text, traces
  and images the caller already prepared instead of rebuilding them.
  With replay on, each task is one whole pricing pass, heaviest first
  (:func:`pricing_passes`), so the workers finish together and every
  cell takes the route it takes at ``jobs=1``.
* :class:`SweepStats` -- hit/miss counters and per-phase wall-clock
  timing, reported by ``python -m repro.eval --stats``.

Versioning contract: bump the relevant ``*_VERSION`` whenever codec
output, generator output or reported timing changes; stale cache
entries then miss by construction (their key embeds the old version)
and are re-simulated.
"""

import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.codepack import CODEC_VERSION
from repro.codepack.compressor import compress_program
from repro.sim import SIM_VERSION
from repro.sim.codepack_engine import EngineStats
from repro.sim.machine import prepare, simulate
from repro.sim.results import SimResult
from repro.workloads import WORKLOAD_VERSION
from repro.workloads.suite import build_benchmark

#: Bump when the cache *file format* (not simulated behaviour) changes.
CACHE_FORMAT_VERSION = 1

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir():
    """The cache directory to use when none is given explicitly.

    ``REPRO_CACHE_DIR`` (when set and non-empty) overrides the built-in
    :data:`DEFAULT_CACHE_DIR`, so services and CI can point the result
    cache at a writable volume without threading a flag through every
    entry point.  An explicit directory argument (``--cache DIR``,
    ``ResultCache(root=...)``) always wins over the environment.
    """
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def parse_size(text):
    """Parse a byte-size flag value ('8M', '1G', '65536')."""
    s = str(text).strip().lower()
    mult = 1
    if s and s[-1] in "kmg":
        mult = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise ValueError("invalid byte size %r: expected an integer with "
                         "an optional K/M/G suffix" % (text,))
    if value < 0:
        raise ValueError("invalid byte size %r: must be >= 0" % (text,))
    return value * mult


# ---------------------------------------------------------------------------
# Cell keys
# ---------------------------------------------------------------------------

def config_fingerprint(config):
    """A JSON-ready snapshot of a frozen config dataclass (or ``None``).

    Nested dataclasses flatten recursively; the result contains only
    JSON scalar types, so :func:`canonical_json` of it is stable.
    """
    if config is None:
        return None
    if is_dataclass(config):
        return asdict(config)
    raise TypeError("cannot fingerprint %r" % (config,))


def canonical_json(payload):
    """Deterministic JSON: sorted keys, no whitespace.

    Canonicalisation makes the serialisation independent of dict
    insertion order and ``PYTHONHASHSEED``; equal payloads always
    produce byte-identical text.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cell_payload(bench, arch, codepack, scale, max_instructions):
    """The full identity of one sweep cell, as JSON-ready data."""
    return {
        "format": CACHE_FORMAT_VERSION,
        "codec_version": CODEC_VERSION,
        "workload_version": WORKLOAD_VERSION,
        "sim_version": SIM_VERSION,
        "benchmark": bench,
        "scale": scale,
        "max_instructions": max_instructions,
        "arch": config_fingerprint(arch),
        "codepack": config_fingerprint(codepack),
    }


def cell_key(bench, arch, codepack, scale, max_instructions):
    """Content hash identifying one sweep cell's result.

    Any change to the configs, the workload identity or a behaviour
    version yields a different key, which is how cache invalidation
    works: stale entries are simply never looked up again.
    """
    payload = cell_payload(bench, arch, codepack, scale, max_instructions)
    text = canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

class ResultCache:
    """One JSON file per cell under *root*; corruption-tolerant.

    Files are written atomically (temp file + :func:`os.replace`), so a
    killed run never leaves a half-written entry behind; any entry that
    fails to load for whatever reason (truncation, hand-editing, a
    format change) counts as a miss and is overwritten by the re-run.

    ``limit_bytes`` bounds the total ``.json`` entry payload, exactly
    like the trace cache's cap: after every :meth:`put` the least-
    recently-used entries (by file mtime -- :meth:`get` touches entries
    it serves) are deleted until the total fits; the entry just written
    survives even when it is alone over the limit.  ``None`` (the
    default) keeps the historical unbounded behaviour.  Only entry
    files directly under *root* are governed -- the ``traces/``
    subdirectory a Workbench keeps inside the cache has its own cap.
    """

    def __init__(self, root=None, limit_bytes=None):
        if limit_bytes is not None:
            limit_bytes = int(limit_bytes)
            if limit_bytes < 0:
                raise ValueError("limit_bytes must be >= 0 or None")
        self.root = default_cache_dir() if root is None else root
        self.limit_bytes = limit_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.pruned_files = 0
        self.pruned_bytes = 0
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.root, key + ".json")

    def get(self, key):
        """The cached :class:`SimResult` for *key*, or ``None``."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError("cache format mismatch")
            result = SimResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt/old-format entry: treat as a miss; the
            # re-run's put() replaces it.
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # mark as recently used for LRU pruning
        except OSError:
            pass
        return result

    def put(self, key, result, payload=None):
        """Store *result* under *key* (atomic; parent process only).

        Results whose ``engine`` stats are not the standard dataclass
        cannot round-trip and are not stored (custom miss paths from
        the extension experiments).
        """
        if result.engine is not None and not isinstance(result.engine,
                                                        EngineStats):
            return False
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "cell": payload,  # for debugging; the key alone is binding
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        if self.limit_bytes is not None:
            self.prune(keep=self._path(key))
        return True

    def prune(self, keep=None):
        """Delete LRU entry files until the total fits the limit.

        *keep* (a path) is exempt -- the caller just wrote it.  Only
        ``.json`` files directly under the root are considered (the
        ``traces/`` subdirectory prunes itself).  Files that vanish
        concurrently are skipped; pruning is best-effort and never
        raises for racing sweeps.  Returns the number of files deleted.
        """
        if self.limit_bytes is None:
            return 0
        entries = []
        total = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.limit_bytes:
            return 0
        deleted = 0
        for mtime, size, path in sorted(entries):
            if total <= self.limit_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            deleted += 1
            self.pruned_files += 1
            self.pruned_bytes += size
        return deleted

    def clear(self):
        """Delete every cache entry (not the directory itself)."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return 0
        for name in names:
            if name.endswith(".json") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def counters(self):
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "stores": self.stores,
                "pruned_files": self.pruned_files,
                "pruned_bytes": self.pruned_bytes}


# ---------------------------------------------------------------------------
# Sweep statistics
# ---------------------------------------------------------------------------

@dataclass
class SweepStats:
    """Counters and per-phase timing for one evaluation run."""

    memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sim_runs: int = 0  # simulations run serially in-process
    vec_cells: int = 0  # cells priced by the vectorized replay backend
    vec_routed: int = 0  # cells of narrow passes routed to scalar replay
    parallel_cells: int = 0  # simulations run by pool workers
    parallel_batches: int = 0
    worker_builds: int = 0  # artifacts pool tasks built, not inherited
    trace_pruned_files: int = 0  # trace-cache LRU evictions
    trace_pruned_bytes: int = 0
    phase_seconds: dict = field(default_factory=dict)
    backends: dict = field(default_factory=dict)  # cell label -> vec/scalar
    vec_declines: dict = field(default_factory=dict)  # reason -> cells

    def add_phase(self, name, seconds):
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def note_backend(self, label, backend):
        """Record which replay backend (vec/scalar) served a cell."""
        self.backends[label] = backend

    def note_declines(self, declines):
        """Merge a vec decline histogram (reason -> cell count)."""
        for reason, count in declines.items():
            self.vec_declines[reason] = \
                self.vec_declines.get(reason, 0) + count

    def as_dict(self, cache=None):
        d = {
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "sim_runs": self.sim_runs,
            "vec_cells": self.vec_cells,
            "vec_routed": self.vec_routed,
            "parallel_cells": self.parallel_cells,
            "parallel_batches": self.parallel_batches,
            "worker_builds": self.worker_builds,
            "trace_pruned_files": self.trace_pruned_files,
            "trace_pruned_bytes": self.trace_pruned_bytes,
            "phase_seconds": dict(self.phase_seconds),
            "backends": dict(self.backends),
            "vec_declines": dict(self.vec_declines),
        }
        if cache is not None:
            d["cache_files"] = cache.counters()
        return d

    def summary(self):
        """SimStats-style multi-line digest."""
        lines = [
            "sweep: %d simulated in-process (%d vectorized), "
            "%d in workers (%d batches)"
            % (self.sim_runs + self.vec_cells, self.vec_cells,
               self.parallel_cells, self.parallel_batches),
            "cache: %d hits, %d misses, %d memo hits"
            % (self.cache_hits, self.cache_misses, self.memo_hits),
        ]
        if self.worker_builds:
            lines.append("worker builds: %d artifacts built or loaded by "
                         "the pricing tasks, not taken from the parent"
                         % self.worker_builds)
        if self.trace_pruned_files:
            lines.append("trace cache: pruned %d files (%d bytes)"
                         % (self.trace_pruned_files,
                            self.trace_pruned_bytes))
        if self.vec_routed:
            lines.append("vec routed: %d cells of passes under the lane "
                         "crossover, priced by scalar replay"
                         % self.vec_routed)
        if self.vec_declines:
            parts = ["%s (%d)" % (reason, count) for reason, count
                     in sorted(self.vec_declines.items())]
            lines.append("vec declines: " + ", ".join(parts))
        if self.backends:
            by_backend = {}
            for label, backend in sorted(self.backends.items()):
                by_backend.setdefault(backend, []).append(label)
            for backend in sorted(by_backend):
                cells = by_backend[backend]
                lines.append("backend %-7s %4d cells: %s"
                             % (backend, len(cells), ", ".join(cells)))
        for name in sorted(self.phase_seconds):
            lines.append("phase %-24s %8.2fs" % (name,
                                                 self.phase_seconds[name]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

def resolve_jobs(jobs):
    """Normalise a ``--jobs`` value: int, ``"auto"`` or ``None``.

    The single place ``auto`` is resolved (one worker per CPU, via
    :func:`os.cpu_count`); every entry point funnels through here so
    bad values fail the same way everywhere.  On a single-CPU host
    ``auto`` resolves to 1, which prices the grid in-process with no
    pool at all.
    """
    if jobs in (None, 0, 1):
        return 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                "invalid jobs value %r: expected a positive integer or "
                "'auto'" % (jobs,))
    if jobs < 1:
        raise ValueError(
            "invalid jobs value %r: must be >= 1 (or 'auto' for one "
            "worker per CPU)" % (jobs,))
    return jobs


def partition_cells(cells, jobs):
    """Deterministically partition cells into per-benchmark batches.

    Cells sharing a benchmark land in the same batch (a worker that
    lacks the program builds and compresses it once for all of them);
    the execute-driven sweep uses these batches.  When there are
    fewer batches than job slots, the largest batch is split in half
    repeatedly, preserving cell order.  The output depends only on the
    input order and *jobs* -- never on hashing or timing.
    """
    groups = {}
    order = []
    for cell in cells:
        bench = cell[0]
        if bench not in groups:
            groups[bench] = []
            order.append(bench)
        groups[bench].append(cell)
    batches = [groups[bench] for bench in order]
    while len(batches) < jobs:
        largest = max(range(len(batches)), key=lambda i: len(batches[i]))
        batch = batches[largest]
        if len(batch) < 2:
            break
        mid = (len(batch) + 1) // 2
        batches[largest:largest + 1] = [batch[:mid], batch[mid:]]
    return batches


def pricing_passes(cells, lengths=None):
    """The pricing passes of *cells*, heaviest first: the pool's tasks.

    A pass is one (benchmark, pipeline shape) pair --
    :func:`repro.sim.vecreplay._group_key` -- the unit one kernel
    traversal of a trace prices, so it is never split: splitting it
    would run the same trace pass twice for part of the lanes each,
    and could route a cell that the whole pass prices on the kernels
    (``price_grid`` routes by the width of the pass).  A pass weighs
    its lanes times its benchmark's trace length from *lengths*
    (``{bench: instructions}``), or its lanes alone where the trace is
    not known.  Heaviest first lets the pool's queue balance the load:
    the long passes start early and the short ones fill the gaps.
    Ties keep first-seen order, so the list depends only on the input
    order and *lengths*.
    """
    from repro.sim.vecreplay import _group_key

    passes = {}
    for cell in cells:
        passes.setdefault((cell[0], _group_key(cell[1])), []).append(cell)
    lengths = lengths or {}
    return sorted(passes.values(),
                  key=lambda p: -len(p) * lengths.get(p[0][0], 1))


#: Start method of the sweep pool.  A ``fork`` inherits the parent's
#: :data:`_WORKER_MEMO`, so workers price from the artifacts the parent
#: already holds; it is asked for by name because Python 3.14 changes
#: the Linux default to ``forkserver``.  ``None`` (the platform default)
#: elsewhere, where workers build what they lack once each.
_START_METHOD = "fork" if sys.platform.startswith("linux") else None

#: ``{bench: (program, static, trace, image)}`` that :func:`_run_batch`
#: prices from: filled by :func:`run_batches` from its caller's prepared
#: artifacts for the life of one pool, plus whatever a worker had to
#: build itself.  ``trace`` and ``image`` may be ``None`` (not needed).
#: One :func:`run_batches` call owns it at a time, so a process must
#: not run two from different threads.
_WORKER_MEMO = {}


def _worker_artifacts(cells, scale, max_instructions, replay, trace_dir):
    """The ``price_grid`` benches of *cells* from :data:`_WORKER_MEMO`.

    Builds (or loads from the trace cache under *trace_dir*) only what
    the memo lacks, stores it there for the worker's later tasks, and
    returns ``(benches, builds)``, *builds* counting those artifacts.
    """
    needs_image = {bench for bench, _arch, codepack in cells
                   if codepack is not None}
    benches = {}
    builds = 0
    for bench in dict.fromkeys(cell[0] for cell in cells):
        program, static, trace, image = _WORKER_MEMO.get(bench,
                                                         (None,) * 4)
        if program is None:
            program = build_benchmark(bench, scale)
            builds += 1
        if static is None:
            static = prepare(program)
            builds += 1
        if replay and trace is None:
            if trace_dir is not None:
                from repro.sim.replay import TraceCache
                trace = TraceCache(trace_dir).get_or_record(
                    program, static=static,
                    max_instructions=max_instructions)
            else:
                from repro.sim.replay import record_trace
                trace = record_trace(program, static=static,
                                     max_instructions=max_instructions)
            builds += 1
        if bench in needs_image and image is None:
            image = compress_program(program)
            builds += 1
        benches[bench] = _WORKER_MEMO[bench] = (program, static, trace,
                                                image)
    return benches, builds


def _run_batch(scale, max_instructions, cells, replay=False, trace_dir=None):
    """Pool worker: simulate one batch of cells.

    Artifacts come from :data:`_WORKER_MEMO`: a forked worker inherits
    the parent's, and builds nothing; any other worker builds (or, with
    ``replay``, loads from the trace cache under *trace_dir*) what it
    lacks once, and reuses it for its later tasks.  Results travel back
    as ``{"results": [(dict, backend), ...], "declines": {...},
    "routed": n, "builds": n}``, *backend* being ``"vec"`` or
    ``"scalar"``, *declines* the vec backend's reason histogram for the
    batch, *routed* how many of its cells the vec backend routed to
    scalar replay, and *builds* how many artifacts the batch had to
    build or load itself.

    With ``replay`` on, the whole batch prices over the benchmarks'
    traces through :func:`repro.sim.vecreplay.price_grid` in one
    invocation; whatever it routes or declines runs on scalar replay.
    """
    benches, builds = _worker_artifacts(cells, scale, max_instructions,
                                        replay, trace_dir)
    vec_results = {}
    declines = {}
    routes = {}
    if replay:
        from repro.sim import vecreplay
        vec_results = vecreplay.price_grid(
            benches, list(cells), max_instructions=max_instructions,
            declines=declines, routes=routes)

    out = []
    for pos, (bench, arch, codepack) in enumerate(cells):
        result = vec_results.get(pos)
        if result is not None:
            out.append((result.to_dict(), "vec"))
            continue
        program, static, trace, image = benches[bench]
        result = simulate(program, arch, codepack=codepack, image=image,
                          static=static, max_instructions=max_instructions,
                          replay=trace if replay else None)
        out.append((result.to_dict(), "scalar"))
    return {"results": out, "declines": declines,
            "routed": sum(routes.values()), "builds": builds}


def run_batches(cells, scale, max_instructions, jobs, stats=None,
                replay=False, trace_dir=None, prepared=None):
    """Run *cells* across a process pool; returns ``{cell: SimResult}``.

    ``cells`` is a sequence of ``(bench, arch, codepack)`` triples
    (hashable: the configs are frozen dataclasses).  *prepared* maps a
    benchmark to the caller's ``(program, static, trace, image)``
    (``trace``/``image`` may be ``None``); the pool prices from them,
    and builds only what they lack (see :func:`_run_batch`).  Cache
    lookups and stores are the caller's business -- workers never touch
    the cache, so concurrent sweeps cannot race on files beyond the
    atomic replace.  ``replay``/``trace_dir`` select the trace-replay
    fast path, with vectorized pricing, in the workers.

    With ``replay`` on, each task is one pricing pass
    (:func:`pricing_passes`), heaviest first, so routes and results are
    those of ``jobs=1``; otherwise cells go in per-benchmark batches
    (:func:`partition_cells`).  Results are collected in task order,
    whatever order the workers finish in.
    """
    cells = list(cells)
    if not cells:
        return {}
    jobs = resolve_jobs(jobs)
    results = {}

    def collect(batch, payload):
        scalar = 0
        for cell, (d, backend) in zip(batch, payload["results"]):
            results[cell] = SimResult.from_dict(d)
            if stats is None:
                continue
            if backend == "vec":
                stats.vec_cells += 1
            else:
                scalar += 1
            bench, arch, _codepack = cell
            stats.note_backend("%s/%s/%s" % (bench, arch.name,
                                             results[cell].mode), backend)
        if stats is not None:
            stats.note_declines(payload["declines"])
            stats.vec_routed += payload["routed"]
            stats.worker_builds += payload["builds"]
        return scalar

    _WORKER_MEMO.update(prepared or {})
    try:
        if jobs == 1 or len(cells) == 1:
            scalar = collect(cells, _run_batch(
                scale, max_instructions, cells, replay=replay,
                trace_dir=trace_dir))
            if stats is not None:
                stats.sim_runs += scalar
            return results
        if replay:
            batches = pricing_passes(cells, {
                bench: art[2].n for bench, art in _WORKER_MEMO.items()
                if art[2] is not None})
        else:
            batches = partition_cells(cells, jobs)
        if stats is not None:
            stats.parallel_cells += len(cells)
            stats.parallel_batches += len(batches)
        context = multiprocessing.get_context(_START_METHOD)
        with ProcessPoolExecutor(max_workers=min(jobs, len(batches)),
                                 mp_context=context) as pool:
            futures = [pool.submit(_run_batch, scale, max_instructions,
                                   batch, replay, trace_dir)
                       for batch in batches]
            for batch, future in zip(batches, futures):
                collect(batch, future.result())
    finally:
        _WORKER_MEMO.clear()
    return results


def timed_phase(stats, name):
    """Context manager recording a phase's wall-clock into *stats*."""
    return _TimedPhase(stats, name)


class _TimedPhase:
    def __init__(self, stats, name):
        self.stats = stats
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.stats is not None:
            self.stats.add_phase(self.name,
                                 time.perf_counter() - self.start)
        return False
