"""``python -m repro.tools.run`` -- execute a program on a machine model.

Examples::

    python -m repro.tools.run prog.ss32
    python -m repro.tools.run prog.ss32 --arch 1-issue --codepack
    python -m repro.tools.run prog.ss32 --codepack --optimized --image p.cpk
    python -m repro.tools.run prog.ss32 --compare
    python -m repro.tools.run prog.ss32 --compare --replay
    python -m repro.tools.run prog.ss32 --trace-cache .repro_cache/traces
"""

import argparse
import sys

from repro.sim.config import BASELINES, CodePackConfig
from repro.sim.machine import simulate
from repro.sim.replay import TraceCache, record_trace
from repro.tools.container import load_for_cli, load_image, load_program


def _report(result):
    print("run report: %s" % result.summary())
    print("  cycles:        %d" % result.cycles)
    print("  instructions:  %d" % result.instructions)
    print("  IPC:           %.3f" % result.ipc)
    print("  I-cache:       %d accesses, %d misses (%.2f%%)"
          % (result.icache_accesses, result.icache_misses,
             100 * result.icache_miss_rate))
    print("  D-cache:       %d accesses, %d misses"
          % (result.dcache_accesses, result.dcache_misses))
    print("  branches:      %d, %.2f%% mispredicted"
          % (result.branch_lookups, 100 * result.mispredict_rate))
    if result.engine is not None:
        engine = result.engine
        print("  decompressor:  %d misses, %d buffer hits, "
              "%d index fetches, %d blocks (%d compressed bytes)"
              % (engine.misses, engine.buffer_hits, engine.index_fetches,
                 engine.blocks_fetched, engine.compressed_bytes_fetched))
    if result.output:
        print("  program output: %s" % result.output)
    print("  exit code:     %d" % result.exit_code)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.run",
        description="Run a .ss32 program on a simulated machine.")
    parser.add_argument("program", help=".ss32 image path")
    parser.add_argument("--arch", choices=sorted(BASELINES),
                        default="4-issue")
    parser.add_argument("--codepack", action="store_true",
                        help="execute through the CodePack decompressor")
    parser.add_argument("--optimized", action="store_true",
                        help="use the optimized decompressor "
                             "(index cache + 2 decoders)")
    parser.add_argument("--image", help="pre-compressed .cpk image")
    parser.add_argument("--compare", action="store_true",
                        help="run native, baseline and optimized and "
                             "print a comparison")
    parser.add_argument("--max-instructions", type=int,
                        default=5_000_000)
    parser.add_argument("--replay", action="store_true", default=None,
                        help="functional/timing split: record the trace "
                             "once and drive the timing-only replay "
                             "engine (implied by --trace-cache)")
    parser.add_argument("--no-replay", dest="replay",
                        action="store_false",
                        help="force execute-driven simulation")
    parser.add_argument("--trace-cache", metavar="DIR",
                        help="persist/reuse recorded traces under DIR")
    args = parser.parse_args(argv)

    program = load_for_cli(load_program, args.program)
    if program is None:
        return 1
    arch = BASELINES[args.arch]
    image = None
    if args.image:
        image = load_for_cli(load_image, args.image)
        if image is None:
            return 1

    trace_cache = TraceCache(args.trace_cache) if args.trace_cache \
        else None
    replay = args.replay if args.replay is not None \
        else trace_cache is not None

    if args.compare:
        # One functional pass serves all three timing models.
        if replay:
            if trace_cache is not None:
                replay = trace_cache.get_or_record(
                    program, max_instructions=args.max_instructions)
            else:
                replay = record_trace(
                    program, max_instructions=args.max_instructions)
        native = simulate(program, arch, replay=replay,
                          max_instructions=args.max_instructions)
        baseline = simulate(program, arch, codepack=CodePackConfig(),
                            image=image, replay=replay,
                            max_instructions=args.max_instructions)
        optimized = simulate(program, arch,
                             codepack=CodePackConfig.optimized(),
                             image=image, replay=replay,
                             max_instructions=args.max_instructions)
        print("%-24s %10s %8s %9s" % ("model", "cycles", "IPC",
                                      "speedup"))
        for result in (native, baseline, optimized):
            print("%-24s %10d %8.3f %8.3fx"
                  % (result.mode, result.cycles, result.ipc,
                     result.speedup_over(native)))
        return 0

    codepack = None
    if args.codepack or args.optimized:
        codepack = CodePackConfig.optimized() if args.optimized \
            else CodePackConfig()
    result = simulate(program, arch, codepack=codepack, image=image,
                      max_instructions=args.max_instructions,
                      replay=replay, trace_cache=trace_cache)
    _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
