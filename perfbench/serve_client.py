"""One cold rep of the ``serve`` workload: a server process and this client.

The client builds the corpus (the six suite programs), launches
``python -m repro.tools.serve serve`` through ``serve_server.py`` and
times

* setup: launch until the first ping answers, then the ingest of the
  corpus as ``compress`` frames (writes): ``COPIES`` named copies of
  each suite program, which the server registers as distinct images;
* work: a closed loop of Zipf-skewed span reads on one connection
  over a decoded-group working set larger than the server's group
  cache.  The next read goes out when the last reply has arrived, as
  the serve tier's callers do.  With a second read connection, a cache
  hit would wait for the server's GIL behind the other connection's
  decode, and how long it waits moves with the host's speed more than
  the hit itself does.

Request frames are encoded before the timed phase and replies are
checked after it, so a read costs the client one write, two reads and
a clock call.  Every read must equal, byte for byte, the program-text
slice the client holds; every compress reply must decode back to its
input; a frame left unanswered by its phase deadline or answered with
an error fails too.  One JSON record goes to ``--out``.  ``--mode
traced`` starts the server with the serve-layer wrappers of
``layers.py``.
"""

import argparse
import asyncio
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Connections of the ingest phase; reads run on the first one alone.
CONNECTIONS = 2
#: Copies of the six suite programs ingested (the server keeps 64 images).
COPIES = 8
#: Span reads per rep -- more than the server's 8192-response latency
#: window, so its metrics frame covers reads only -- and groups per read.
READS = 8200
SPAN_GROUPS = 4
#: Zipf exponent of span popularity over the whole corpus.
SKEW = 1.3
#: Build scale of the corpus; the static text does not depend on it.
CORPUS_SCALE = 0.02
#: Deadline of each timed phase; unanswered requests count as failed.
PHASE_TIMEOUT_S = 30.0

_LENGTH = struct.Struct("<I")


async def exchange(reader, writer, frames, replies, latencies):
    """Closed loop on one connection: send, wait for the reply, repeat."""
    clock = time.perf_counter
    for frame in frames:
        began = clock()
        writer.write(frame)
        (length,) = _LENGTH.unpack(await reader.readexactly(4))
        replies.append(await reader.readexactly(length))
        latencies.append(clock() - began)


async def closed_loop(conns, frames_per_conn):
    """One timed phase: the replies per connection, the latencies, and
    whether every frame was answered before the deadline."""
    replies = [[] for _ in conns]
    latencies = []
    loops = [exchange(r, w, f, out, latencies) for (r, w), f, out
             in zip(conns, frames_per_conn, replies)]
    try:
        await asyncio.wait_for(asyncio.gather(*loops), PHASE_TIMEOUT_S)
    except asyncio.TimeoutError:
        return replies, latencies, False
    return replies, latencies, True


def reply_payload(body, request_id, rtype):
    """The payload of a reply body, or None for a wrong or error frame."""
    if len(body) < 5 or body[0] != rtype \
            or struct.unpack_from("<I", body, 1)[0] != request_id:
        return None
    return body[5:]


def read_plan(ingested, rng):
    """``READS`` seeded Zipf picks of aligned spans across the
    ``(program, digest)`` pairs the server ingested."""
    from repro.codepack.compressor import GROUP_INSTRUCTIONS

    spans = []
    for program, digest in ingested:
        n_groups = -(-len(program.text) // GROUP_INSTRUCTIONS)
        for start in range(0, n_groups - SPAN_GROUPS + 1, SPAN_GROUPS):
            spans.append((program, digest, start))
    rng.shuffle(spans)
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(spans))]
    return rng.choices(spans, weights=weights, k=READS)


def launch_server(args):
    command = [sys.executable, os.path.join(HERE, "serve_server.py")]
    if args.mode == "traced":
        command += ["--trace-dir", args.work]
    command += ["--", "serve", "--port", "0"]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


async def open_connections(port):
    return [await asyncio.open_connection("127.0.0.1", port)
            for _ in range(CONNECTIONS)]


async def reopen(conns, port):
    """Fresh connections after a phase that missed its deadline: the old
    ones may still hold replies to the frames it cancelled."""
    await close_connections(conns)
    return await open_connections(port)


async def server_metrics(conns):
    """The server's metrics frame as a dict, or None if not answered."""
    from repro.serve import protocol

    frame = protocol.encode_frame(protocol.REQ_METRICS, 0)
    replies, _, _ = await closed_loop(conns[:1], [[frame]])
    payload = replies[0] and reply_payload(replies[0][0], 0,
                                           protocol.RESP_METRICS)
    return json.loads(payload) if payload else None


async def run(args, server, launched):
    from repro.serve import protocol

    line = server.stdout.readline()
    port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
    conns = await open_connections(port)
    ping = protocol.encode_frame(protocol.REQ_PING, 0)
    replies, _, _ = await closed_loop(conns[:1], [[ping]])
    ready = time.perf_counter()
    if not replies[0] or reply_payload(replies[0][0], 0,
                                       protocol.RESP_PING) is None:
        raise RuntimeError("server did not answer its first ping")

    corpus = args.corpus
    writes = [[] for _ in conns]
    for i, program in enumerate(corpus):
        writes[i % CONNECTIONS].append(protocol.encode_frame(
            protocol.REQ_COMPRESS, i, protocol.encode_compress_request(
                program.text, text_base=program.text_base,
                name="%s-%d" % (program.name, i))))
    written, _, answered = await closed_loop(conns, writes)
    ingested = time.perf_counter()
    if not answered:
        conns = await reopen(conns, port)

    images = {}
    for c, bodies in enumerate(written):
        for k, body in enumerate(bodies):
            request_id = c + k * CONNECTIONS
            payload = reply_payload(body, request_id,
                                    protocol.RESP_COMPRESS)
            if payload is not None:
                images[request_id] = protocol.decode_compress_response(
                    payload)
    if not images:
        raise RuntimeError("the server ingested no program")
    outcome = {"start": ready - launched, "ingest": ingested - ready,
               "images": images}

    plan = read_plan([(corpus[i], images[i][0]) for i in sorted(images)],
                     random.Random(args.seed))
    frames = [protocol.encode_frame(
        protocol.REQ_DECOMPRESS, n, protocol.encode_decompress_request(
            digest=digest, group_start=start, group_count=SPAN_GROUPS))
        for n, (_program, digest, start) in enumerate(plan)]
    began = time.perf_counter()
    replies, latencies, answered = await closed_loop(conns[:1], [frames])
    wall = time.perf_counter() - began
    if not answered:
        conns = await reopen(conns, port)

    metrics = await server_metrics(conns)
    await close_connections(conns)
    outcome.update(wall=wall, latencies=latencies, plan=plan,
                   replies=replies[0], metrics=metrics)
    return outcome


async def close_connections(conns):
    for _reader, writer in conns:
        writer.close()
        await writer.wait_closed()


def failed_writes(images, corpus):
    """Compress frames without an image, or whose image does not decode
    back to its input."""
    from repro.codepack.batch import decompress_many
    from repro.tools.container import parse_image

    order = sorted(images)
    decoded = decompress_many([parse_image(images[i][1]) for i in order])
    return len(corpus) - len(order) + sum(
        list(words) != list(corpus[i].text)
        for i, words in zip(order, decoded))


def failed_reads(outcome):
    """Reads whose reply is missing, an error or not the expected bytes."""
    from repro.codepack.compressor import GROUP_INSTRUCTIONS
    from repro.serve import protocol

    plan, replies = outcome["plan"], outcome["replies"]
    failed = len(plan) - len(replies)
    for n, ((program, digest, start), body) in enumerate(zip(plan, replies)):
        expected = program.text[start * GROUP_INSTRUCTIONS:
                                (start + SPAN_GROUPS) * GROUP_INSTRUCTIONS]
        payload = reply_payload(body, n, protocol.RESP_DECOMPRESS)
        failed += payload != protocol.encode_decompress_response(
            digest, start, expected)
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="serve", choices=("serve",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=("full", "traced"),
                        default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.serve.metrics import percentile
    from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

    suite = [build_benchmark(name, CORPUS_SCALE) for name in BENCHMARK_NAMES]
    args.corpus = suite * COPIES
    launched = time.perf_counter()
    server = launch_server(args)
    try:
        outcome = asyncio.run(run(args, server, launched))
    finally:
        server.send_signal(signal.SIGTERM)
        _pid, status, usage = os.wait4(server.pid, 0)
        server.returncode = os.waitstatus_to_exitcode(status)
        server.stdout.close()
    if server.returncode != 0:
        raise RuntimeError("server exited with %d" % server.returncode)

    # An unanswered metrics frame fails, and its figures read 0.
    metrics = outcome["metrics"] or {
        "gauges": {"cache": {"hits": 0, "misses": 0}},
        "latency": {"p50_ms": 0.0, "p99_ms": 0.0},
        "errors": {}, "rejected": 0}
    cache = metrics["gauges"]["cache"]
    latency = [s * 1000.0 for s in outcome["latencies"]]
    record = {
        "setup_s": outcome["start"] + outcome["ingest"],
        "wall_s": outcome["wall"],
        "read_p50_ms": percentile(latency, 0.50),
        "read_p99_ms": percentile(latency, 0.99),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": len(args.corpus) + READS + 1,
        "failed": (failed_writes(outcome["images"], args.corpus)
                   + failed_reads(outcome)
                   + (outcome["metrics"] is None)),
        "pid": os.getpid(),
        "serve.start_s": outcome["start"],
        "serve.ingest_s": outcome["ingest"],
        "serve.cache_hit_ratio": cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
        "serve.server_p50_ms": metrics["latency"]["p50_ms"],
        "serve.server_p99_ms": metrics["latency"]["p99_ms"],
        "serve.errors": sum(metrics["errors"].values()),
        "serve.rejected": metrics["rejected"],
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
