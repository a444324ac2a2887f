"""The Workbench: shared artifacts and memoised simulation runs.

The paper's evaluation needs a few hundred simulator runs, many of
which share the native baseline (every speedup table divides by it).
The Workbench builds each benchmark once, compresses it once, predecodes
it once, and memoises every (benchmark, architecture, decompressor)
simulation, keyed by the frozen config dataclasses plus the workload
identity (scale and instruction cap).

Two optional layers speed up sweeps (see :mod:`repro.eval.sweep`):

* ``cache`` -- a persistent on-disk :class:`~repro.eval.sweep
  .ResultCache`; results survive across processes and are invalidated
  by content hash when configs or behaviour versions change.
* ``jobs`` -- :meth:`Workbench.prefetch` fans outstanding cells across
  a process pool that prices from the Workbench's own artifacts;
  subsequent :meth:`run` calls hit the memo.
"""

import os

from repro.codepack.compressor import compress_program
from repro.eval.sweep import (
    ResultCache,
    SweepStats,
    cell_key,
    cell_payload,
    resolve_jobs,
    run_batches,
    timed_phase,
)
from repro.sim import vecreplay
from repro.sim.machine import prepare, simulate
from repro.sim.replay import TraceCache, record_trace
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark


class Workbench:
    """Caches programs, images and simulation results for experiments.

    * ``scale`` shortens benchmark trip counts (1.0 = the calibrated
      defaults; pytest benchmarks use ~0.1).
    * ``max_instructions`` is a safety cap per simulation.
    * ``cache`` -- ``None`` (default) for no persistence, a directory
      path, or a ready :class:`~repro.eval.sweep.ResultCache`.
    * ``jobs`` -- worker processes for :meth:`prefetch`: an int,
      ``"auto"`` (one per CPU), or ``None``/1 for serial.
    * ``replay`` -- default ``True``: record each benchmark's
      functional trace once and run every simulation through the
      timing-only replay engines (:mod:`repro.sim.replay`).  Replay is
      cycle-exact against the execute-driven models, so results (and
      hence memo/cache keys) are identical either way; ``False``
      forces execute-driven runs.
    * ``trace_cache`` -- a :class:`~repro.sim.replay.TraceCache` or a
      directory path for persisted traces.  Defaults to a ``traces/``
      directory inside the result cache when one is configured,
      in-memory otherwise.
    * ``trace_cache_limit`` -- byte cap for the trace cache directory
      (LRU-pruned after each store); ``None`` = unbounded.
    * ``cache_limit`` -- byte cap for the persistent result cache
      (LRU-pruned after each store, mtime order); ``None`` = unbounded.

    With replay on, :meth:`prefetch` prices cells with the vectorized
    replay backend (:mod:`repro.sim.vecreplay`); in-order passes, and
    out-of-order passes too narrow for the column kernel to pay, are
    routed to the scalar stream kernel per cell, as are cells the
    kernel cannot serve.  :meth:`run` prices a lone cell on the stream
    kernel.  The backends are cycle-exact against each other, so every
    result -- and every memo and cache key -- is the same whichever one
    priced it.
    """

    def __init__(self, scale=1.0, max_instructions=5_000_000, cache=None,
                 jobs=1, replay=True, trace_cache=None,
                 trace_cache_limit=None, cache_limit=None):
        self.scale = scale
        self.max_instructions = max_instructions
        self.jobs = resolve_jobs(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache, limit_bytes=cache_limit)
        elif isinstance(cache, ResultCache) and cache_limit is not None:
            cache.limit_bytes = int(cache_limit)
        self.cache = cache
        self.replay = replay
        if trace_cache is None and cache is not None:
            trace_cache = os.path.join(cache.root, "traces")
        if trace_cache is not None and not isinstance(trace_cache,
                                                      TraceCache):
            trace_cache = TraceCache(trace_cache,
                                     limit_bytes=trace_cache_limit)
        elif isinstance(trace_cache, TraceCache) \
                and trace_cache_limit is not None:
            trace_cache.limit_bytes = int(trace_cache_limit)
        self.trace_cache = trace_cache if replay else None
        self.stats = SweepStats()
        self._programs = {}
        self._images = {}
        self._static = {}
        self._traces = {}
        self._results = {}

    def program(self, bench):
        """The benchmark program (built once)."""
        if bench not in self._programs:
            with timed_phase(self.stats, "build"):
                self._programs[bench] = build_benchmark(bench, self.scale)
        return self._programs[bench]

    def image(self, bench):
        """The benchmark's CodePack image (compressed once)."""
        if bench not in self._images:
            program = self.program(bench)
            with timed_phase(self.stats, "compress"):
                self._images[bench] = compress_program(program)
        return self._images[bench]

    def static(self, bench):
        """The benchmark's predecoded text (decoded once)."""
        if bench not in self._static:
            program = self.program(bench)
            with timed_phase(self.stats, "predecode"):
                self._static[bench] = prepare(program)
        return self._static[bench]

    def trace(self, bench):
        """The benchmark's functional trace (recorded or loaded once)."""
        # Scale and cap are part of the key for the same reason they
        # are part of _memo_key: both change the recorded stream.
        key = (bench, self.scale, self.max_instructions)
        if key not in self._traces:
            # Built before the phase opens: build and predecode time
            # land in phases of their own.
            program = self.program(bench)
            static = self.static(bench)
            with timed_phase(self.stats, "trace"):
                if self.trace_cache is not None:
                    self._traces[key] = self.trace_cache.get_or_record(
                        program, static=static,
                        max_instructions=self.max_instructions)
                    self.stats.trace_pruned_files = \
                        self.trace_cache.pruned_files
                    self.stats.trace_pruned_bytes = \
                        self.trace_cache.pruned_bytes
                else:
                    self._traces[key] = record_trace(
                        program, static=static,
                        max_instructions=self.max_instructions)
        return self._traces[key]

    def _memo_key(self, bench, arch, codepack):
        # The workload identity (scale, cap) is part of the key: two
        # Workbenches at different scales sharing a cache must not
        # collide, and neither must two caps on one bench/arch pair.
        return (bench, arch, codepack, self.scale, self.max_instructions)

    def _cell_key(self, bench, arch, codepack):
        return cell_key(bench, arch, codepack, self.scale,
                        self.max_instructions)

    def run(self, bench, arch, codepack=None):
        """Memoised :func:`repro.sim.machine.simulate` call.

        Lookup order: in-process memo, persistent cache (if any), then
        a fresh simulation whose result is written back to both.
        """
        key = self._memo_key(bench, arch, codepack)
        if key in self._results:
            self.stats.memo_hits += 1
            return self._results[key]
        result = None
        ck = None
        if self.cache is not None:
            ck = self._cell_key(bench, arch, codepack)
            result = self.cache.get(ck)
            if result is None:
                self.stats.cache_misses += 1
            else:
                self.stats.cache_hits += 1
        if result is None:
            result = self._simulate_cell(bench, arch, codepack)
            if self.cache is not None:
                self.cache.put(ck, result,
                               payload=cell_payload(bench, arch, codepack,
                                                    self.scale,
                                                    self.max_instructions))
        self._results[key] = result
        return result

    def _simulate_cell(self, bench, arch, codepack):
        """One scalar (per-cell) simulation, with stats accounting."""
        program = self.program(bench)
        image = self.image(bench) if codepack is not None else None
        static = self.static(bench)
        replay = self.trace(bench) if self.replay else False
        with timed_phase(self.stats, "simulate"):
            result = simulate(
                program, arch, codepack=codepack, image=image,
                static=static,
                max_instructions=self.max_instructions,
                replay=replay)
        self.stats.sim_runs += 1
        self.stats.note_backend(
            "%s/%s/%s" % (bench, arch.name, result.mode), "scalar")
        return result

    def _store(self, cell, result):
        bench, arch, codepack = cell
        self._results[self._memo_key(bench, arch, codepack)] = result
        if self.cache is not None:
            self.cache.put(self._cell_key(*cell), result,
                           payload=cell_payload(bench, arch, codepack,
                                                self.scale,
                                                self.max_instructions))

    def _prepared(self, cells):
        """``{bench: (program, static, trace, image)}`` for *cells*.

        Built here if missing: the trace when replay is on, the image
        for benchmarks with CodePack cells; ``None`` otherwise.
        """
        needs_image = {c[0] for c in cells if c[2] is not None}
        return {bench: (self.program(bench), self.static(bench),
                        self.trace(bench) if self.replay else None,
                        self.image(bench) if bench in needs_image else None)
                for bench in sorted({c[0] for c in cells})}

    def _prefetch_vec(self, cells):
        """Price *cells* through the column kernels; returns the cells
        left for the scalar engines.

        The whole set goes through :func:`vecreplay.price_grid` in one
        invocation, which prices each (pipeline shape, benchmark) pass
        on the kernel or, when the pass is in-order or narrower than the
        kernel's measured lane crossover, routes its cells back to run
        on the scalar stream kernel.  A pass is never split, so a cell
        takes the same route at any ``--jobs`` value.  Routes are
        counted in ``stats.vec_routed``; cells the kernel cannot serve
        land in the ``stats.vec_declines`` histogram, and the kernel's
        work counts in ``stats.vec_ooo_fe_steps``/``vec_ooo_windows``.
        """
        benches = self._prepared(cells)
        routes = {}
        work = {}
        with timed_phase(self.stats, "simulate"):
            priced = vecreplay.price_grid(
                benches, list(cells),
                max_instructions=self.max_instructions,
                declines=self.stats.vec_declines, routes=routes,
                work=work)
        self.stats.vec_routed += sum(routes.values())
        self.stats.note_work(work)
        leftover = []
        for pos, cell in enumerate(cells):
            result = priced.get(pos)
            if result is None:
                leftover.append(cell)
                continue
            self._store(cell, result)
            self.stats.vec_cells += 1
            self.stats.note_backend(
                "%s/%s/%s" % (cell[0], cell[1].name, result.mode), "vec")
        return leftover

    def prefetch(self, cells):
        """Run outstanding *cells* in parallel and memoise the results.

        ``cells`` is an iterable of ``(bench, arch, codepack)`` triples
        (e.g. from :func:`repro.eval.experiments.sweep_cells`).  Cells
        already memoised or in the persistent cache are skipped; the
        rest are priced in-process (``jobs=1``) or by ``jobs`` worker
        processes, one pricing pass per task
        (:func:`~repro.eval.sweep.run_batches`).  The workers price from
        this Workbench's programs, predecoded text, traces and images,
        built here first if missing.  Results, and so cache writes, are
        stored in the order of *cells*, only here in the parent.
        Returns the number of cells actually simulated.
        """
        todo = []
        seen = set()
        with timed_phase(self.stats, "prefetch"):
            for cell in cells:
                bench, arch, codepack = cell
                key = self._memo_key(bench, arch, codepack)
                if key in self._results or cell in seen:
                    continue
                seen.add(cell)
                if self.cache is not None:
                    cached = self.cache.get(self._cell_key(*cell))
                    if cached is not None:
                        self.stats.cache_hits += 1
                        self._results[key] = cached
                        continue
                    self.stats.cache_misses += 1
                todo.append(cell)
            if not todo:
                return 0
            if self.jobs == 1:
                # Serial: vectorized group pricing in-process, scalar
                # runs for whatever the column kernels cannot serve
                # (reusing this process's built programs and images
                # beats a single-worker pool).
                scalar_cells = todo
                if self.replay:
                    scalar_cells = self._prefetch_vec(todo)
                for cell in scalar_cells:
                    self._store(cell, self._simulate_cell(*cell))
                return len(todo)
            trace_dir = (self.trace_cache.root
                         if self.trace_cache is not None else None)
            results = run_batches(todo, self.scale, self.max_instructions,
                                  self.jobs, stats=self.stats,
                                  replay=self.replay, trace_dir=trace_dir,
                                  prepared=self._prepared(todo))
            for cell in todo:
                self._store(cell, results[cell])
        return len(todo)

    def speedup(self, bench, arch, codepack):
        """Speedup of a CodePack configuration over native on *arch*."""
        native = self.run(bench, arch)
        compressed = self.run(bench, arch, codepack)
        return compressed.speedup_over(native)

    def benchmarks(self, names=None):
        """Benchmark-name iterator (defaults to the whole suite)."""
        return tuple(names or BENCHMARK_NAMES)
