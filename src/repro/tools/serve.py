"""``python -m repro.tools.serve`` -- run or benchmark the CodePack server.

Subcommands::

    serve                       run a server (or, with --fleet N, a
                                sharded multi-worker fleet) until
                                interrupted
    bench                       loadgen: self-hosted A/B compare,
                                --connect HOST:PORT for a running
                                server, or --fleet N for the fleet
                                scaling comparison

Examples::

    python -m repro.tools.serve serve --port 7633 --batch-window-ms 2
    python -m repro.tools.serve serve --fleet 4 --snapshot-dir /tmp/snap
    python -m repro.tools.serve bench --requests 600 -o BENCH_serve.json
    python -m repro.tools.serve bench --connect 127.0.0.1:7633 --mode open
    python -m repro.tools.serve bench --fleet 4 -o BENCH_serve_fleet.json
    python -m repro.tools.serve bench --fleet 4 --churn -o BENCH_serve.json
"""

import argparse
import asyncio
import json
import signal
import sys
import time

from repro.serve.loadgen import (
    LoadgenConfig,
    run_compare,
    run_fleet_churn,
    run_fleet_compare,
    run_load,
)
from repro.serve.server import CodePackServer, ServerConfig


def _server_kwargs(args):
    return {
        "batch_window": args.batch_window_ms / 1000.0,
        "max_batch": args.max_batch,
        "group_cache_entries": args.group_cache,
        "queue_limit": args.queue_limit,
        "request_timeout": args.request_timeout,
        "workers": args.workers,
        "snapshot_dir": args.snapshot_dir,
        "snapshot_interval": args.snapshot_interval,
        "shared_dictionaries": args.shared_dicts,
    }


def _server_config(args):
    return ServerConfig(host=args.host, port=args.port,
                        **_server_kwargs(args))


def _add_server_options(parser):
    parser.add_argument("--snapshot-dir", default=None,
                        help="directory for warm-start hot-set "
                             "snapshots (default: disabled)")
    parser.add_argument("--snapshot-interval", type=float, default=30.0,
                        help="seconds between hot-set snapshot writes")
    parser.add_argument("--shared-dicts", default=None, metavar="BENCH",
                        help="pin fleet-wide dictionaries built from "
                             "this suite benchmark (enables fused "
                             "compress batching)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7633,
                        help="listen port (0 = ephemeral; default 7633)")
    parser.add_argument("--batch-window-ms", type=float, default=2.0,
                        help="micro-batch coalescing window in ms; a "
                             "lone request never waits for it "
                             "(0 disables batching; default 2)")
    parser.add_argument("--max-batch", type=int, default=128,
                        help="max group decodes per pool call")
    parser.add_argument("--group-cache", type=int, default=4096,
                        help="LRU entries of decoded groups "
                             "(0 disables; default 4096)")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="admitted requests before 'overloaded' "
                             "errors (default 256)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--workers", type=int, default=2,
                        help="codec executor threads")


def _trap_sigterm():
    """Treat SIGTERM (systemd/docker stop) like ^C: drain, then exit.

    Without this the default disposition kills the process mid-request
    -- and a fleet parent would die without stopping its workers.
    """
    def _raise(signum, frame):
        raise KeyboardInterrupt
    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        pass  # not the main thread (embedded use); keep the default


def _cmd_serve(args):
    _trap_sigterm()
    if args.fleet and args.fleet > 1:
        return _cmd_serve_fleet(args)
    config = _server_config(args)

    async def main():
        server = await CodePackServer(config).start()
        print("repro.serve listening on %s:%d "
              "(window %.1fms, cache %d groups, queue limit %d)"
              % (config.host, server.port, config.batch_window * 1000.0,
                 config.group_cache_entries, config.queue_limit))
        sys.stdout.flush()
        # From here SIGTERM is handled on the loop, as in a fleet
        # worker: the KeyboardInterrupt of _trap_sigterm is dropped when
        # it lands in a finalizer (a __del__ or a weakref callback), and
        # the server would serve on.
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel)
        except (NotImplementedError, RuntimeError):
            pass  # no loop signal handling here; the trap stays
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining...")
            await server.shutdown()
            print("shutdown complete")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_fleet(args):
    from repro.serve.fleet import Fleet

    fleet = Fleet(n_workers=args.fleet, host=args.host,
                  **_server_kwargs(args))
    fleet.start()
    print("repro.serve fleet of %d workers: %s"
          % (args.fleet, " ".join(fleet.addresses)))
    if args.snapshot_dir:
        print("warm-start snapshots every %.0fs under %s"
              % (args.snapshot_interval, args.snapshot_dir))
    sys.stdout.flush()
    try:
        while all(fleet.alive()):
            time.sleep(0.5)
        down = [shard for shard, alive in enumerate(fleet.alive())
                if not alive]
        print("worker(s) %s exited; stopping fleet" % down,
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("draining fleet...")
        return 0
    finally:
        fleet.stop()


def _loadgen_config(args, host, port):
    return LoadgenConfig(
        host=host, port=port, mode=args.mode,
        connections=args.connections, pipeline=args.pipeline,
        requests=args.requests, rate=args.rate, span=args.span,
        working_set=args.working_set, skew=args.skew,
        benchmark=args.benchmark, scale=args.scale, seed=args.seed)


def _print_report(label, report):
    latency = report["latency_ms"]
    print("%-10s %6d ok %4d err  %8.0f req/s  %9.0f words/s  "
          "p50 %6.2fms  p99 %6.2fms"
          % (label, report["completed"],
             sum(report["errors"].values()), report["throughput_rps"],
             report["words_per_second"], latency["p50"], latency["p99"]))


def _merge_output(path, key, payload):
    """Merge *payload* under *key* into an existing JSON report file."""
    try:
        with open(path, "r") as handle:
            report = json.load(handle)
        if not isinstance(report, dict):
            report = {}
    except (OSError, ValueError):
        report = {}
    report[key] = payload
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _cmd_bench_churn(args):
    loadgen = _loadgen_config(args, "127.0.0.1", 0)
    result = run_fleet_churn(config=loadgen, n_workers=args.fleet,
                             **_server_kwargs(args))
    for row in result["phases"]:
        print("%-11s %5d/%-5d ok  %4d err  %7.0f req/s  "
              "p50 %6.2fms  p99 %6.2fms"
              % (row["phase"], row["completed"], row["requests"],
                 sum(row["errors"].values()), row["qps"],
                 row["p50_ms"], row["p99_ms"]))
    for event in result["events"]:
        extra = ""
        if "moved_fraction" in event:
            extra = "  moved %.3f of working set (1/N = %.3f)" \
                % (event["moved_fraction"], event["expected_fraction"])
        print("event @%d: %s shard %s -> epoch %d%s"
              % (event["at"], event["action"], event.get("shard"),
                 event["epoch"], extra))
    print("peer-fetch hit ratio %.3f (%d hits / %d misses); "
          "join p99 ratio %s"
          % (result["peer_fetch_hit_ratio"], result["peer_fetch_hits"],
             result["peer_fetch_misses"],
             "%.2f" % result["join_p99_ratio"]
             if result["join_p99_ratio"] is not None else "n/a"))
    if args.output:
        _merge_output(args.output, "fleet_churn", result)
        print("wrote %s (fleet_churn section)" % args.output)
    return 0


def _cmd_bench(args):
    if args.fleet and args.fleet > 1:
        if args.churn:
            return _cmd_bench_churn(args)
        loadgen = _loadgen_config(args, "127.0.0.1", 0)
        kwargs = _server_kwargs(args)
        result = run_fleet_compare(loadgen=loadgen, n_workers=args.fleet,
                                   drivers=args.drivers, **kwargs)
        _print_report("single", result["single"])
        _print_report("fleet", result["fleet"])
        for row in result["per_shard"]:
            print("  shard %d: %5d reqs  p99 %6.2fms"
                  % (row["shard"], row["completed"], row["p99_ms"]))
        print("fleet speedup: %.2fx over one worker "
              "(%d workers, fairness %.3f)"
              % (result["fleet_speedup"], args.fleet,
                 result["fairness"]))
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(result, handle, indent=2)
                handle.write("\n")
            print("wrote %s" % args.output)
        return 0
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        loadgen = _loadgen_config(args, host or "127.0.0.1", int(port))

        async def main():
            return await run_load(loadgen)

        report = asyncio.run(main())
        _print_report("loadgen", report)
        result = {"bench": "serve", "mode": "external",
                  "report": report}
    else:
        loadgen = _loadgen_config(args, "127.0.0.1", 0)
        server_config = _server_config(args)
        server_config.port = 0
        if server_config.batch_window <= 0:
            print("bench compare needs --batch-window-ms > 0",
                  file=sys.stderr)
            return 2
        result = asyncio.run(run_compare(loadgen=loadgen,
                                         server_config=server_config))
        _print_report("unbatched", result["unbatched"])
        _print_report("batched", result["batched"])
        print("speedup: %.2fx (micro-batching + group cache vs "
              "window 0)" % result["speedup"])

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print("wrote %s" % args.output)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve",
        description="Batched, backpressured CodePack compression "
                    "service and load generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a server until interrupted")
    _add_server_options(serve)
    serve.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="run N sharded worker processes instead of "
                            "one in-process server")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser("bench",
                           help="drive a workload; by default compares "
                                "batched vs unbatched in-process servers")
    _add_server_options(bench)
    bench.add_argument("--connect", metavar="HOST:PORT", default=None,
                       help="drive an already-running server instead of "
                            "self-hosting the A/B compare")
    bench.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="fleet scaling comparison: N sharded "
                            "workers vs one (multiprocess drivers)")
    bench.add_argument("--drivers", type=int, default=None,
                       help="loadgen driver processes for --fleet "
                            "(default: scaled to the core count)")
    bench.add_argument("--churn", action="store_true",
                       help="with --fleet N: run the scripted "
                            "kill/join/leave churn schedule and report "
                            "per-phase latency plus tier-2 peer-fetch "
                            "counters (merged under 'fleet_churn' in "
                            "the -o report)")
    bench.add_argument("--mode", choices=("closed", "open"),
                       default="closed")
    bench.add_argument("--connections", type=int, default=4)
    bench.add_argument("--pipeline", type=int, default=4)
    bench.add_argument("--requests", type=int, default=600)
    bench.add_argument("--rate", type=float, default=400.0,
                       help="open-loop arrivals per second")
    bench.add_argument("--span", type=int, default=16,
                       help="compression groups per decompress request")
    bench.add_argument("--working-set", type=int, default=24,
                       help="distinct spans in the workload")
    bench.add_argument("--skew", type=float, default=1.1,
                       help="Zipf popularity exponent (0 = uniform)")
    bench.add_argument("--benchmark", default="pegwit")
    bench.add_argument("--scale", type=float, default=0.05)
    bench.add_argument("--seed", type=int, default=1234)
    bench.add_argument("-o", "--output", default=None,
                       metavar="PATH", help="write the JSON report here")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
