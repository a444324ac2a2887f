"""One cold rep of a pricing workload: ``sweep``, ``sweep-jobs2``, ``explore``.

Run by ``perfbench/run.py`` in a fresh interpreter, so that module-level
decode and closure caches start empty as they do for a user's
``python -m repro.eval all``.  Imports are not timed.  A full rep times

* setup: build, predecode, trace and compress the six suite programs
  into a fresh Workbench (for ``explore``, the backend's Workbench);
* work: the 309-cell paper sweep plus its 13 exhibits, or a seeded
  explore campaign over ``default_space()``;

then checks the results against ``perfbench/goldens.json`` and writes one
JSON record to ``--out``.  ``--mode traced`` installs the layer wrappers
of ``layers.py`` first.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Benchmark trip-count scale of every pricing workload.
SCALE = 0.1
#: Explore campaign: unique cells priced, cells per backend batch.
EXPLORE_BUDGET = 24
EXPLORE_BATCH = 16
#: Campaigns with committed goldens: the default seed and a held-out one.
#: A rep's ``--seed`` picks one of them, modulo 2.
EXPLORE_SEEDS = (0, 1)
GOLDENS = os.path.join(HERE, "goldens.json")


def golden_key(workload, seed):
    if workload == "explore":
        return "explore-%d" % EXPLORE_SEEDS[seed % len(EXPLORE_SEEDS)]
    return "sweep"  # results do not depend on --jobs


def digest(payload):
    from repro.eval.sweep import canonical_json

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def peak_rss_mb(with_children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def no_span(name):
    return contextlib.nullcontext()


def prepare_all(wb):
    for bench in wb.benchmarks():
        wb.program(bench)
        wb.static(bench)
        wb.trace(bench)
        wb.image(bench)


def run_sweep(args, span):
    from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
    from repro.eval.runner import Workbench
    from repro.eval.tables import format_table

    jobs = 2 if args.workload == "sweep-jobs2" else 1
    cache = os.path.join(args.work, "result-cache") if jobs > 1 else None
    start = time.perf_counter()
    wb = Workbench(scale=SCALE, jobs=jobs, cache=cache)
    prepare_all(wb)
    setup = time.perf_counter() - start

    names = list(ALL_EXPERIMENTS)
    start = time.perf_counter()
    cells = sweep_cells(names, wb=wb)
    wb.prefetch(cells)
    priced = time.perf_counter() - start
    for name in names:
        with span("eval.tables"):
            format_table(ALL_EXPERIMENTS[name](wb=wb))
    wall = time.perf_counter() - start

    payload = [wb.run(*cell).to_dict() for cell in cells]
    return {
        "setup_s": setup, "wall_s": wall,
        # Every cell is asked for when the grid is submitted and can be
        # read once the pricing call holding it returns.
        "read_ms": [priced * 1000.0] * len(cells),
        "peak_rss_mb": peak_rss_mb(with_children=jobs > 1),
        "attempted": len(cells),
        "digest": {"cells": len(cells), "results": digest(payload)},
        "declines": wb.stats.vec_declines,
    }


def run_explore(args, span):
    from repro.eval.sweep import ResultCache
    from repro.explore.backends import LocalBackend
    from repro.explore.search import Explorer
    from repro.explore.space import default_space

    seed = EXPLORE_SEEDS[args.seed % len(EXPLORE_SEEDS)]
    start = time.perf_counter()
    backend = LocalBackend(scale=SCALE)
    prepare_all(backend.wb)
    setup = time.perf_counter() - start

    batches = []  # (cells visited, time) after each batch
    cache = ResultCache(os.path.join(args.work, "result-cache"))
    explorer = Explorer(default_space(), backend, seed=seed,
                        budget=EXPLORE_BUDGET, batch=EXPLORE_BATCH,
                        cache=cache, progress=lambda snapshot: batches.append(
                            (snapshot["visited"], time.perf_counter())))
    start = time.perf_counter()
    result = explorer.run()
    wall = time.perf_counter() - start

    # A cell's result can be read once its batch is done.
    read_ms = []
    done, last = 0, start
    for visited, at in batches:
        read_ms += [(at - last) * 1000.0] * (visited - done)
        done, last = visited, at

    frontier = [[m.key, list(m.values)] for m in result.frontier.members()]
    return {
        "setup_s": setup, "wall_s": wall, "read_ms": read_ms,
        "peak_rss_mb": peak_rss_mb(with_children=False),
        "attempted": len(result.visited),
        "digest": {"visited": digest(result.visited),
                   "frontier": digest(frontier)},
        "declines": backend.wb.stats.vec_declines,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sweep-jobs2", "explore"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True,
                        help="fresh scratch directory for this rep")
    parser.add_argument("--mode", choices=("full", "traced"),
                        default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    span = no_span
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer(args.work)
        layers.install_pricing(tracer)
        span = tracer.span
    run = run_explore if args.workload == "explore" else run_sweep
    record = run(args, span)
    record["pid"] = os.getpid()
    with open(GOLDENS) as handle:
        golden = json.load(handle).get(golden_key(args.workload, args.seed))
    # A result that differs from its golden fails every cell it covers.
    ok = record["digest"] == golden and not record["declines"]
    record["failed"] = 0 if ok else record["attempted"]
    from repro.serve.metrics import percentile

    read = record.pop("read_ms")
    record["read_p50_ms"] = percentile(read, 0.50)
    record["read_p99_ms"] = percentile(read, 0.99)
    if tracer is not None:
        tracer.flush()
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
