"""Per-layer spans for the traced benchmark run, installed from outside.

The package under ``src/`` is not edited: :func:`install_pricing` and
:func:`install_serve` rebind the public entry point of each layer to a
timing wrapper.  ``from``-imports bind early, so every module that
imported a layer function by name gets the wrapper too (for example
``repro.eval.runner.build_benchmark``); a binding that no longer points
at the original function raises instead of silently going untraced.

Each span records its *self* time: its duration minus the spans nested
inside it on the same thread.  Spans stay in memory until
:meth:`Tracer.flush`; a forked pool worker leaves through ``os._exit``
without running ``atexit``, so there every span is appended to the
worker's own file as it closes.  :func:`layer_metrics` folds the span
files of one traced rep into the per-layer metrics.
"""

import contextlib
import functools
import glob
import json
import os
import threading
import time

#: Layers a sweep pool worker rebuilds although the parent already has
#: them (rows 1-3 of the layer table in README.md).
REBUILD_SPANS = ("workloads.build", "sim.predecode", "codec.compress",
                 "sim.trace_record", "sim.trace_load", "vec.columns",
                 "vec.profiles")
KERNEL_SPANS = ("vec.kernel_ooo", "vec.kernel_inorder")


class Tracer:
    """Collects spans for one process (and the workers it forks)."""

    def __init__(self, directory):
        self.directory = directory
        self.pid = os.getpid()
        self.records = []
        self._local = threading.local()

    def _path(self, pid):
        return os.path.join(self.directory, "spans-%d.jsonl" % pid)

    @contextlib.contextmanager
    def span(self, name, **fields):
        """Time the block as span *name*; the yielded dict takes counts."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = dict(fields, name=name)
        nested = [0.0]
        stack.append(nested)
        start = time.perf_counter()
        try:
            yield record
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            record["dur"] = duration
            record["self"] = duration - nested[0]
            self.emit(record)

    def emit(self, record):
        pid = os.getpid()
        record["pid"] = pid
        if pid == self.pid:
            self.records.append(record)
            return
        with open(self._path(pid), "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def flush(self):
        with open(self._path(self.pid), "a") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        self.records = []


def _rebind(owners, attr, wrapper_for):
    """Point ``owner.attr`` at one wrapper of the original, for every owner."""
    original = getattr(owners[0], attr)
    wrapped = wrapper_for(original)
    for owner in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError("%s.%s is not the function the benchmark "
                               "traces" % (owner.__name__, attr))
        setattr(owner, attr, wrapped)


def install_pricing(tracer):
    """Wrap the sweep/explore layers: build to kernels to result cache."""
    import repro.codepack.compressor as compressor
    import repro.eval.runner as runner
    import repro.eval.sweep as sweep
    import repro.explore.pareto as pareto
    import repro.explore.search as search
    import repro.sim.machine as machine
    import repro.sim.replay as replay
    import repro.sim.vecreplay as vecreplay
    import repro.workloads.suite as suite

    def plain(name):
        return lambda fn: tracer.wrap(fn, name)

    _rebind([suite, runner, sweep], "build_benchmark",
            plain("workloads.build"))
    _rebind([machine, runner, sweep], "prepare", plain("sim.predecode"))
    _rebind([compressor, runner, sweep], "compress_program",
            plain("codec.compress"))
    _rebind([replay, runner], "record_trace", plain("sim.trace_record"))
    _rebind([replay.TraceCache], "get_or_record", plain("sim.trace_load"))
    _rebind([runner, sweep], "run_batches", plain("sweep.pool"))
    _rebind([search.Explorer], "evaluate", plain("explore.objectives"))
    _rebind([pareto.ParetoFrontier], "add", plain("explore.frontier"))
    _rebind([pareto.ParetoFrontier], "normalized_hypervolume",
            plain("explore.frontier"))

    def columns(fn):
        # Memo hits cost nothing and get no span: spans count builds.
        @functools.wraps(fn)
        def traced(trace, static):
            memo = getattr(trace, "_columns", None)
            if memo is not None and memo[0] == vecreplay.COLUMNS_VERSION:
                return fn(trace, static)
            with tracer.span("vec.columns"):
                return fn(trace, static)
        return traced

    def profiles(fn):
        @functools.wraps(fn)
        def traced(static, trace, arch, *args, **kwargs):
            key = (arch.icache, arch.dcache, arch.predictor)
            if key in getattr(trace, "_profiles", {}):
                return fn(static, trace, arch, *args, **kwargs)
            with tracer.span("vec.profiles"):
                return fn(static, trace, arch, *args, **kwargs)
        return traced

    def price_grid(fn):
        # One opaque call per sweep hides which kernel ran; call through
        # once per (in_order, issue_width) class instead.  vecreplay
        # never groups cells across those classes, so results are the
        # same.  Lazily built columns and profiles nest inside and are
        # subtracted, leaving kernel self time.
        @functools.wraps(fn)
        def traced(benches, cells, declines=None, **kwargs):
            cells = list(cells)
            classes = {}
            for pos, cell in enumerate(cells):
                arch = cell[1]
                classes.setdefault((arch.in_order, arch.issue_width),
                                   []).append(pos)
            out = {}
            for (in_order, _width), positions in classes.items():
                name = "vec.kernel_inorder" if in_order else "vec.kernel_ooo"
                local = {}
                with tracer.span(name) as record:
                    priced = fn(benches, [cells[p] for p in positions],
                                declines=local, **kwargs)
                    record["cells"] = len(priced)
                    record["instructions"] = sum(
                        r.instructions for r in priced.values())
                    record["cycles"] = sum(r.cycles for r in priced.values())
                    record["declines"] = sum(local.values())
                for index, result in priced.items():
                    out[positions[index]] = result
                if declines is not None:
                    for reason, count in local.items():
                        declines[reason] = declines.get(reason, 0) + count
            return out
        return traced

    def result_cache(method, put):
        @functools.wraps(method)
        def traced(*args, **kwargs):
            with tracer.span("eval.result_cache", put=put):
                return method(*args, **kwargs)
        return traced

    _rebind([vecreplay], "trace_columns", columns)
    _rebind([replay], "get_profile", profiles)
    _rebind([vecreplay], "price_grid", price_grid)
    _rebind([sweep.ResultCache], "get", lambda fn: result_cache(fn, 0))
    _rebind([sweep.ResultCache], "put", lambda fn: result_cache(fn, 1))


def install_serve(tracer):
    """Wrap the server's codec calls and the batcher's span path."""
    import repro.serve.batcher as batcher

    def decode(fn):
        @functools.wraps(fn)
        def traced(items, *args, **kwargs):
            items = list(items)
            with tracer.span("serve.decode", groups=len(items)):
                return fn(items, *args, **kwargs)
        return traced

    def span_path(fn):
        # Coroutines interleave on the loop thread, so this span is kept
        # off the nesting stack and records its whole duration.
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.emit({"name": "serve.span", "dur": duration,
                             "self": duration})
        return traced

    _rebind([batcher], "compress_many",
            lambda fn: tracer.wrap(fn, "serve.compress"))
    _rebind([batcher], "decode_groups_batch", decode)
    _rebind([batcher.MicroBatcher], "decode_span", span_path)


def span_cost_s(calls=20000):
    """Seconds a span adds to a call, timed on a wrapped no-op."""
    def noop():
        pass

    traced = Tracer(None).wrap(noop, "noop")
    costs = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    return (costs[1] - costs[0]) / calls


def read_spans(directory):
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def layer_metrics(spans, main_pid):
    """Per-layer metrics of one traced rep (see README.md for the map).

    *main_pid* is the process that ran the workload; spans from any
    other pid of a pricing rep come from sweep pool workers.
    """
    def total(name, key="self", pid=None):
        return sum(s.get(key, 0) for s in spans if s["name"] == name
                   and (pid is None or s["pid"] == pid))

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    m = {
        "workloads.build_s": total("workloads.build"),
        "sim.predecode_s": total("sim.predecode"),
        "codec.compress_s": total("codec.compress"),
        "sim.trace_record_s": total("sim.trace_record"),
        "sim.trace_load_s": total("sim.trace_load"),
        "vec.columns_s": total("vec.columns"),
        "vec.columns_built": count("vec.columns"),
        "vec.profiles_s": total("vec.profiles"),
        "vec.profiles_built": count("vec.profiles"),
        "eval.tables_s": total("eval.tables"),
        "eval.result_cache_s": total("eval.result_cache"),
        "eval.result_cache_puts": total("eval.result_cache", "put"),
        "sweep.pool_s": total("sweep.pool"),
        "explore.objectives_s": total("explore.objectives"),
        "explore.frontier_s": total("explore.frontier"),
        "serve.compress_s": total("serve.compress"),
        "serve.compress_batches": count("serve.compress"),
        "serve.decode_s": total("serve.decode"),
        "serve.decode_groups": total("serve.decode", "groups"),
    }
    for kind in ("ooo", "inorder"):
        name = "vec.kernel_" + kind
        m[name + "_s"] = total(name)
        m["vec.cells_" + kind] = total(name, "cells")
        instructions = total(name, "instructions")
        m["vec.%s_ns_per_inst" % kind] = (
            m[name + "_s"] * 1e9 / instructions if instructions else 0.0)
    m["vec.declines"] = sum(total(n, "declines") for n in KERNEL_SPANS)
    m["sim.instructions"] = sum(total(n, "instructions")
                                for n in KERNEL_SPANS)
    m["sim.cycles"] = sum(total(n, "cycles") for n in KERNEL_SPANS)
    decodes = count("serve.decode")
    m["serve.groups_per_batch"] = (m["serve.decode_groups"] / decodes
                                   if decodes else 0.0)
    # Span time not spent decoding: the batch window plus queue wait.
    m["serve.span_wait_s"] = max(
        0.0, total("serve.span", "dur") - total("serve.decode", "dur"))

    workers = sorted({s["pid"] for s in spans} - {main_pid})
    rebuild = price = 0.0
    busy_max = 0.0
    for pid in workers:
        r = sum(total(n, pid=pid) for n in REBUILD_SPANS)
        p = sum(total(n, pid=pid) for n in KERNEL_SPANS)
        rebuild += r
        price += p
        busy_max = max(busy_max, r + p)
    m["sweep.worker_rebuild_s"] = rebuild
    m["sweep.worker_price_s"] = price
    m["sweep.worker_busy_max_s"] = busy_max
    return m
