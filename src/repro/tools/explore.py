"""``python -m repro.tools.explore`` -- Pareto design-space exploration.

Walks the architecture x scheme x workload space of
:mod:`repro.explore.space` with the seeded adaptive search of
:mod:`repro.explore.search`, pricing cells locally (Workbench replay +
vec kernels) or across a serve fleet, and reporting the Pareto
frontier over the chosen objectives.

Examples::

    python -m repro.tools.explore --budget 500 --seed 7
    python -m repro.tools.explore --budget 200 --benchmarks cjpeg pegwit
    python -m repro.tools.explore --backend fleet --fleet 4 --budget 1000
    python -m repro.tools.explore --backend fleet --connect 127.0.0.1:7633
    python -m repro.tools.explore --journal run.jsonl --budget 300
    python -m repro.tools.explore --journal run.jsonl --resume --budget 600
    python -m repro.tools.explore --report frontier.json \
        --markdown frontier.md --stats-json stats.json

The visited-cell sequence is a pure function of (space, seed,
objectives, scale, cap, epsilon, batch) -- identical on both backends
and across ``PYTHONHASHSEED`` values.  ``--resume`` replays a journal:
already-priced cells are satisfied from it (0 re-priced), then the
search continues to the (possibly larger) budget.
"""

import argparse
import json
import sys

from repro.eval.sweep import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    default_cache_dir,
    parse_size,
    resolve_jobs,
)
from repro.explore.report import frontier_report, render_markdown, \
    write_report
from repro.explore.search import (
    DEFAULT_OBJECTIVES,
    Explorer,
    ObjectiveError,
    resolve_objectives,
)
from repro.explore.space import SpaceError, default_space


def _progress_line(snap):
    return ("[%5d/%d] %7.2f cells/s  frontier %3d  hv %.4f  "
            "priced %d  cache %d  journal %d  (%s)"
            % (snap["visited"], snap["budget"], snap["cells_per_second"],
               snap["frontier"], snap["hypervolume"], snap["priced"],
               snap["cache_hits"], snap["journal_hits"], snap["backend"]))


def _build_backend(args, parser, cache_root):
    """The pricing backend plus the fleet to stop afterwards (or None)."""
    if args.backend == "local":
        from repro.explore.backends import LocalBackend

        try:
            return None, LocalBackend(
                scale=args.scale,
                max_instructions=args.max_instructions,
                jobs=resolve_jobs(args.jobs))
        except ValueError as exc:
            parser.error(str(exc))
    from repro.explore.backends import FleetBackend

    fleet = None
    if args.connect:
        addresses = [a for a in args.connect.replace(",", " ").split()
                     if a]
    elif args.fleet:
        from repro.serve.fleet import Fleet

        fleet = Fleet(n_workers=args.fleet,
                      request_timeout=args.timeout,
                      sweep_cache=cache_root is not None,
                      sweep_cache_dir=cache_root)
        fleet.start()
        addresses = fleet.addresses
        print("spawned fleet of %d workers: %s"
              % (args.fleet, " ".join(addresses)))
        sys.stdout.flush()
    else:
        parser.error("--backend fleet needs --connect HOST:PORT[,...] "
                     "or --fleet N")
    return fleet, FleetBackend(addresses, scale=args.scale,
                               max_instructions=args.max_instructions,
                               concurrency=args.concurrency,
                               timeout=args.timeout)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.explore",
        description="Pareto-frontier design-space exploration over the "
                    "CodePack evaluation grid.")
    parser.add_argument("--budget", type=int, default=500,
                        help="unique cells to evaluate (default 500)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search RNG seed (default 0); the visited "
                             "sequence is deterministic under it")
    parser.add_argument("--backend", choices=("local", "fleet"),
                        default="local",
                        help="price cells in-process (default) or across "
                             "a serve fleet")
    parser.add_argument("--objectives", default=",".join(DEFAULT_OBJECTIVES),
                        metavar="A,B,...",
                        help="comma-separated objective names, all "
                             "minimised (default %s; also: cycles, imiss)"
                             % ",".join(DEFAULT_OBJECTIVES))
    parser.add_argument("--scale", type=float, default=0.1,
                        help="benchmark trip-count multiplier "
                             "(default 0.1)")
    parser.add_argument("--max-instructions", type=int, default=5_000_000,
                        help="per-simulation instruction cap")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict the workload dimension")
    parser.add_argument("--epsilon", type=float, default=0.35,
                        help="random-exploration probability; the rest "
                             "mutates frontier members (default 0.35)")
    parser.add_argument("--batch", type=int, default=16,
                        help="cells priced per backend round (default 16)")
    parser.add_argument("--jobs", default=1, metavar="N|auto",
                        help="local backend: simulation worker processes")
    parser.add_argument("--connect", metavar="HOST:PORT[,...]",
                        default=None,
                        help="fleet backend: worker addresses of a "
                             "running fleet")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="fleet backend: spawn N worker processes "
                             "for the run")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="fleet backend: in-flight frames "
                             "(default: 2 per worker)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="fleet backend: per-cell deadline seconds")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR, else %s)"
                             % DEFAULT_CACHE_DIR)
    parser.add_argument("--cache-limit", metavar="BYTES", default=None,
                        help="cap the result cache (K/M/G suffixes); "
                             "LRU entries pruned after each store")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent "
                             "result cache")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="append a resumable run journal (JSONL)")
    parser.add_argument("--resume", action="store_true",
                        help="replay an existing --journal: journaled "
                             "cells are not re-priced")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the frontier report as JSON")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="write the frontier report as markdown")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the run stats object as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-batch progress lines and the "
                             "frontier table")
    args = parser.parse_args(argv)

    objectives = tuple(name.strip()
                       for name in args.objectives.split(",")
                       if name.strip())
    try:
        objectives = resolve_objectives(objectives)
    except ObjectiveError as exc:
        parser.error(str(exc))
    try:
        space = default_space(args.benchmarks or None)
    except SpaceError as exc:
        parser.error(str(exc))
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")

    cache = None
    cache_root = None
    if not args.no_cache:
        cache_root = args.cache or default_cache_dir()
        cache_limit = args.cache_limit
        if cache_limit is not None:
            try:
                cache_limit = parse_size(cache_limit)
            except ValueError as exc:
                parser.error(str(exc))
        cache = ResultCache(cache_root, limit_bytes=cache_limit)
    elif args.cache or args.cache_limit:
        parser.error("--no-cache conflicts with --cache/--cache-limit")

    fleet, backend = _build_backend(args, parser, cache_root)

    def progress(snap):
        print(_progress_line(snap))
        sys.stdout.flush()

    try:
        try:
            explorer = Explorer(
                space, backend, objectives=objectives, seed=args.seed,
                budget=args.budget, batch=args.batch,
                epsilon=args.epsilon, cache=cache, journal=args.journal,
                resume=args.resume,
                progress=None if args.quiet else progress)
        except ValueError as exc:  # bad knobs, journal identity mismatch
            parser.error(str(exc))
        result = explorer.run()
    finally:
        backend.close()
        if fleet is not None:
            fleet.stop()

    report = frontier_report(result, space, objectives,
                             header=explorer.run_header())
    if not args.quiet:
        print()
        print(render_markdown(report))
    print(result.stats.summary())
    if args.report or args.markdown:
        write_report(report, args.report or args.markdown + ".json",
                     markdown_path=args.markdown)
        for path in filter(None, (args.report, args.markdown)):
            print("wrote %s" % path)
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(result.stats.as_dict(), handle, indent=2)
            handle.write("\n")
        print("wrote %s" % args.stats_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
