"""Command-line entry point: regenerate paper exhibits.

Usage::

    python -m repro.eval table5            # one exhibit
    python -m repro.eval table3 table4     # several, sharing a Workbench
    python -m repro.eval all               # everything
    python -m repro.eval all --scale 0.2   # quicker, shorter runs

Sweep acceleration::

    python -m repro.eval all --jobs auto   # parallel simulation workers
    python -m repro.eval all --cache       # persist results (.repro_cache/)
    python -m repro.eval all --cache /tmp/c --clear-cache
    python -m repro.eval all --stats --timing-json timings.json

The vectorized replay backend prices the sweep grid in columnar trace
passes -- the cells of one benchmark that share a pipeline shape make
one pass.  A pass too narrow to beat per-cell scalar replay is routed
to it.  ``--jobs N`` composes with it: each worker task is one whole
pass, heaviest first, so every cell takes the route it takes at
``--jobs 1``.  On Linux the workers are forks of this process and
price from the programs, traces and images it already built; other
platforms build each benchmark once per worker.  On a multi-core host
prefer ``--jobs auto`` (one worker per CPU); on a single CPU it
resolves to 1, which prices in-process.  ``--stats`` /
``--stats-json`` include the routed cell count, a decline histogram
and ``worker_builds``.  On the default grid the histogram is empty,
so any entry means some cells the kernels should price fell back to
scalar replay; ``worker_builds`` counts the artifacts workers had to
build themselves, 0 when they are forks.
"""

import argparse
import json
import sys
import time

from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
from repro.eval.extensions import EXTENSION_EXPERIMENTS
from repro.eval.runner import Workbench
from repro.eval.sweep import (
    DEFAULT_CACHE_DIR,
    default_cache_dir,
    parse_size,  # re-exported; historical home of the size parser
    resolve_jobs,
)
from repro.eval.tables import format_table, table_to_csv


def profile_hottest(wb):
    """cProfile the sweep's hottest cell; print top-20 by cumulative time.

    The hottest cell is the memoised result that simulated the most
    dynamic instructions (ties broken by cycles) -- the one worth
    optimising.  It is re-simulated fresh (memo and cache bypassed) so
    the profile reflects real simulation work, using the same
    replay-vs-execute configuration as the sweep that just ran.
    """
    import cProfile
    import pstats

    from repro.sim.machine import describe_mode, simulate

    if not wb._results:
        print("[--profile: no simulated cells to profile]")
        return
    key, _ = max(wb._results.items(),
                 key=lambda kv: (kv[1].instructions, kv[1].cycles))
    bench, arch, codepack = key[0], key[1], key[2]
    print("[profiling hottest cell: %s on %s, %s]"
          % (bench, arch.name, describe_mode(codepack)))
    program = wb.program(bench)
    static = wb.static(bench)
    image = wb.image(bench) if codepack is not None else None
    replay = wb.trace(bench) if wb.replay else None
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(program, arch, codepack=codepack, image=image, static=static,
             max_instructions=wb.max_instructions, replay=replay)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate tables/figures from 'Evaluation of a High "
                    "Performance Code Compression Method' (MICRO-32).")
    parser.add_argument("exhibits", nargs="+",
                        help="exhibit names (table1..table12, figure2, "
                             "or the extensions scheme_comparison, "
                             "software_decompression, "
                             "compressed_fetch_traffic), or 'all' / "
                             "'extensions'")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="benchmark trip-count multiplier "
                             "(default 1.0 = calibrated length)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these benchmarks")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each exhibit as CSV into DIR")
    parser.add_argument("--jobs", default=1, metavar="N|auto",
                        help="simulation worker processes for the sweep "
                             "(an integer, or 'auto' for one per CPU; "
                             "default 1 = serial)")
    parser.add_argument("--cache", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="persist simulation results on disk "
                             "(default directory: $REPRO_CACHE_DIR, "
                             "else %s; an explicit DIR wins over both)"
                             % DEFAULT_CACHE_DIR)
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the result cache before running "
                             "(requires --cache)")
    parser.add_argument("--cache-limit", metavar="BYTES", default=None,
                        help="cap the on-disk result cache at BYTES total "
                             "(suffixes K/M/G allowed); least-recently-used "
                             "entries are pruned after each store "
                             "(default: unbounded)")
    parser.add_argument("--stats", action="store_true",
                        help="print sweep statistics (cache hits/misses, "
                             "per-phase timing) after the exhibits")
    parser.add_argument("--timing-json", metavar="PATH", default=None,
                        help="write sweep statistics as JSON to PATH")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the raw sweep stats object (cache "
                             "counters included) as JSON to PATH")
    parser.add_argument("--replay", dest="replay", action="store_true",
                        default=True,
                        help="trace each benchmark once and run all cells "
                             "through the timing-only replay engines "
                             "(cycle-exact; the default)")
    parser.add_argument("--no-replay", dest="replay", action="store_false",
                        help="force execute-driven simulation for every "
                             "cell")
    parser.add_argument("--trace-cache", metavar="DIR", default=None,
                        help="persist functional traces under DIR (default: "
                             "traces/ inside the result cache when --cache "
                             "is on, else in-memory only)")
    parser.add_argument("--trace-cache-limit", metavar="BYTES", default=None,
                        help="cap the on-disk trace cache at BYTES total "
                             "(suffixes K/M/G allowed); least-recently-used "
                             "traces are pruned after each store "
                             "(default: unbounded)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the hottest cell (the largest "
                             "uncached simulation) and print the top-20 "
                             "cumulative entries")
    args = parser.parse_args(argv)

    registry = dict(ALL_EXPERIMENTS)
    registry.update(EXTENSION_EXPERIMENTS)
    if "all" in args.exhibits:
        names = list(ALL_EXPERIMENTS)
    elif "extensions" in args.exhibits:
        names = list(EXTENSION_EXPERIMENTS)
    else:
        names = args.exhibits
    unknown = [n for n in names if n not in registry]
    if unknown:
        parser.error("unknown exhibits: %s (choose from %s)"
                     % (", ".join(unknown), ", ".join(registry)))
    if args.clear_cache and args.cache is None:
        parser.error("--clear-cache requires --cache")
    if args.cache == "":
        # Bare --cache: environment override, then the built-in default.
        args.cache = default_cache_dir()
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    limit = args.trace_cache_limit
    if limit is not None:
        try:
            limit = parse_size(limit)
        except ValueError as exc:
            parser.error(str(exc))
    cache_limit = args.cache_limit
    if cache_limit is not None:
        if args.cache is None:
            parser.error("--cache-limit requires --cache")
        try:
            cache_limit = parse_size(cache_limit)
        except ValueError as exc:
            parser.error(str(exc))
    wb = Workbench(scale=args.scale, cache=args.cache, jobs=jobs,
                   replay=args.replay, trace_cache=args.trace_cache,
                   trace_cache_limit=limit, cache_limit=cache_limit)
    if args.clear_cache:
        wb.cache.clear()

    # Run the whole sweep up front: cells the named exhibits will ask
    # for are simulated across the worker pool (or pulled from the
    # cache); the exhibit functions then only format memoised results.
    wb.prefetch(sweep_cells(names, wb=wb, benchmarks=args.benchmarks))

    for name in names:
        start = time.time()
        table = registry[name](wb=wb, benchmarks=args.benchmarks)
        print(format_table(table))
        if args.csv:
            import os
            os.makedirs(args.csv, exist_ok=True)
            csv_path = os.path.join(args.csv, "%s.csv" % name)
            with open(csv_path, "w") as handle:
                handle.write(table_to_csv(table))
        elapsed = time.time() - start
        wb.stats.add_phase("exhibit:%s" % name, elapsed)
        print("[%s regenerated in %.1fs]" % (name, elapsed))
        print()

    if args.profile:
        profile_hottest(wb)
    if args.stats:
        print(wb.stats.summary())
    if args.timing_json:
        payload = {
            "scale": args.scale,
            "jobs": wb.jobs,
            "exhibits": names,
            "stats": wb.stats.as_dict(cache=wb.cache),
        }
        with open(args.timing_json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(wb.stats.as_dict(cache=wb.cache), handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
