"""End-to-end server tests over real sockets.

Covers the acceptance contract: round trips, non-trivial metrics,
the adversarial protocol suite (server answers with typed error frames
and keeps serving), backpressure, deadlines, and graceful shutdown
completing admitted requests.
"""

import asyncio
import contextlib
import dataclasses
import os
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

import repro
from repro.codepack.compressor import GROUP_INSTRUCTIONS, compress_words
from repro.codepack.decompressor import decompress_program
from repro.codepack.reference import compress_words_reference
from repro.serve import batcher as batcher_mod
from repro.serve import protocol
from repro.serve.client import ServeClient, ServerClosedError
from repro.serve.protocol import FrameDecoder, ProtocolError
from repro.serve.server import CodePackServer, ServerConfig
from repro.tools.container import dump_image

from tests.conftest import random_word_program

#: A 400-word program spans ~13 compression groups -- enough for
#: interesting spans while keeping each test fast.
PROGRAM = random_word_program(11, size=400, kind="workload")
EXPECTED_WORDS = decompress_program(
    compress_words(PROGRAM.text, name=PROGRAM.name))


@contextlib.asynccontextmanager
async def running_server(**overrides):
    overrides.setdefault("port", 0)
    server = CodePackServer(ServerConfig(**overrides))
    await server.start()
    try:
        yield server
    finally:
        await server.shutdown()


@contextlib.asynccontextmanager
async def connected(server):
    client = ServeClient(port=server.port)
    await client.connect()
    try:
        yield client
    finally:
        await client.close()


async def raw_exchange(port, data):
    """Write raw bytes; return whatever the server sends before EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    received = b""
    while True:
        chunk = await asyncio.wait_for(reader.read(65536), timeout=5.0)
        if not chunk:
            break
        received += chunk
    writer.close()
    with contextlib.suppress(Exception):
        await writer.wait_closed()
    return received


def run(coro):
    return asyncio.run(coro)


class TestRoundTrips:
    def test_ping(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    assert await client.ping(timeout=5.0)

        run(main())

    def test_compress_then_decompress_by_digest(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    digest, blob = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    assert len(digest) == protocol.DIGEST_BYTES
                    words = await client.decompress(digest=digest,
                                                    timeout=30.0)
            return blob, words

        blob, words = run(main())
        assert words == EXPECTED_WORDS
        # The returned blob is the canonical container: same digest
        # as the reference encoder's image of the same words.
        image = compress_words_reference(PROGRAM.text, name=PROGRAM.name)
        assert blob == dump_image(image)

    def test_decompress_inline_image(self):
        image = compress_words(PROGRAM.text, name=PROGRAM.name)
        blob = dump_image(image)
        per_group = image.block_instructions * image.group_blocks

        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    return await client.decompress(image_bytes=blob,
                                                   group_start=2,
                                                   group_count=3,
                                                   timeout=30.0)

        words = run(main())
        assert words == EXPECTED_WORDS[2 * per_group:5 * per_group]

    @pytest.mark.parametrize("group_blocks", [0, 7])
    def test_decompress_inline_image_bad_geometry(self, group_blocks):
        # A group size the blocks do not match would decode an empty
        # group (0) or the wrong blocks (7); the load rejects both.
        image = compress_words(PROGRAM.text, name=PROGRAM.name)
        blob = dump_image(dataclasses.replace(image,
                                              group_blocks=group_blocks))

        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.decompress(image_bytes=blob,
                                                group_start=1,
                                                group_count=1,
                                                timeout=30.0)
                    return excinfo.value.code

        assert run(main()) == protocol.ERR_BAD_REQUEST

    def test_stats(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    digest, _blob = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    return await client.stats(digest, timeout=30.0)

        stats = run(main())
        image = compress_words_reference(PROGRAM.text, name=PROGRAM.name)
        assert stats["n_instructions"] == len(PROGRAM.text)
        assert stats["n_groups"] == image.n_groups
        assert stats["compression_ratio"] == \
            pytest.approx(image.compression_ratio)
        assert stats["dictionary_entries"]["high"] == len(image.high_dict)
        assert 0.0 < sum(stats["composition"].values()) <= 1.001

    def test_unknown_digest_not_found(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.decompress(digest=b"\x01" * 32,
                                                timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_NOT_FOUND
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.stats(b"\x02" * 32, timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_NOT_FOUND

        run(main())


class TestMetricsEndpoint:
    def test_metrics_nontrivial_after_traffic(self):
        """qps, latency percentiles, batch occupancy, cache hit rate and
        queue depth are all present and reflect the traffic served."""

        async def main():
            async with running_server(batch_window=0.01,
                                      queue_limit=64) as server:
                async with connected(server) as client:
                    digest, _ = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    # Eight concurrent identical spans: coalesced into
                    # few batches (occupancy > 1), then repeated
                    # sequentially to generate cache hits.
                    await asyncio.gather(*[
                        client.decompress(digest=digest, group_start=0,
                                          group_count=4, timeout=30.0)
                        for _ in range(8)])
                    for _ in range(4):
                        await client.decompress(digest=digest,
                                                group_start=0,
                                                group_count=4,
                                                timeout=30.0)
                    return await client.metrics(timeout=30.0)

        snap = run(main())
        assert snap["requests"]["compress"] == 1
        assert snap["requests"]["decompress"] == 12
        assert snap["responses"]["decompress"] == 12
        assert snap["qps"]["lifetime"] > 0.0
        assert snap["qps"]["window"] > 0.0

        latency = snap["latency"]
        assert latency["count"] == 13  # compress + 12 decompress
        assert 0.0 < latency["p50_ms"] <= latency["p99_ms"] \
            <= latency["max_ms"]

        batch = snap["batch"]
        assert batch["batches"] >= 1
        # Eight coalesced requests over few batches: real merging.
        assert batch["occupancy"] > 1.0

        cache = snap["gauges"]["cache"]
        assert cache["hits"] >= 16  # 4 repeat spans x 4 groups
        assert 0.0 < cache["hit_rate"] <= 1.0

        # The metrics request itself is the only one in flight.
        assert snap["gauges"]["queue_depth"] == 1
        assert snap["gauges"]["queue_limit"] == 64
        assert snap["gauges"]["queue_peak"] >= 8
        assert snap["gauges"]["images"] == 1

    def test_metrics_on_idle_server(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    return await client.metrics(timeout=5.0)

        snap = run(main())
        assert snap["latency"]["count"] == 0
        assert snap["qps"]["window"] == 0.0
        assert snap["batch"]["occupancy"] == 0.0


class TestAdversarial:
    """Malformed/oversized/unknown input gets typed error frames and the
    server keeps serving -- the acceptance criterion, end to end."""

    def _decode_error_frames(self, received):
        decoder = FrameDecoder()
        decoder.feed(received)
        frames = []
        while True:
            frame = decoder.next_frame()
            if frame is None:
                break
            frames.append(frame)
        return frames

    def test_oversized_length_prefix_closes_with_error(self):
        async def main():
            async with running_server(max_frame=4096) as server:
                received = await raw_exchange(server.port,
                                              b"\xff\xff\xff\xff")
                # ...and the server still answers a fresh connection.
                async with connected(server) as client:
                    alive = await client.ping(timeout=5.0)
            return received, alive

        received, alive = run(main())
        frames = self._decode_error_frames(received)
        assert len(frames) == 1
        assert frames[0].type == protocol.RESP_ERROR
        code, _message = protocol.decode_error(frames[0].payload)
        assert code == protocol.ERR_TOO_LARGE
        assert alive

    def test_undersized_length_prefix_closes_with_error(self):
        async def main():
            async with running_server() as server:
                received = await raw_exchange(server.port,
                                              b"\x02\x00\x00\x00ab")
                async with connected(server) as client:
                    alive = await client.ping(timeout=5.0)
            return received, alive

        received, alive = run(main())
        frames = self._decode_error_frames(received)
        code, _message = protocol.decode_error(frames[0].payload)
        assert code == protocol.ERR_MALFORMED
        assert alive

    def test_unknown_request_type_keeps_connection(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.request(0x55, b"junk", timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_UNKNOWN_TYPE
                    # Same connection still serves real requests.
                    assert await client.ping(timeout=5.0)

        run(main())

    def test_malformed_payload_keeps_connection(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.request(protocol.REQ_DECOMPRESS,
                                             b"\x07\x01", timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_MALFORMED
                    assert await client.ping(timeout=5.0)

        run(main())

    def test_errors_are_counted(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    for _ in range(3):
                        with pytest.raises(ProtocolError):
                            await client.request(protocol.REQ_DECOMPRESS,
                                                 b"zz", timeout=5.0)
                    return await client.metrics(timeout=5.0)

        snap = run(main())
        assert snap["errors"]["malformed"] == 3


def _slow_dispatch(server, delay):
    """Wrap the server's dispatch with a sleep (deadline/drain tests)."""
    real = server._dispatch

    async def slow(frame):
        await asyncio.sleep(delay)
        return await real(frame)

    server._dispatch = slow


class TestDeadlinesAndBackpressure:
    def test_deadline_returns_timeout_error(self):
        async def main():
            async with running_server(request_timeout=0.05) as server:
                async with connected(server) as client:
                    _slow_dispatch(server, 0.5)
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.ping(timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_TIMEOUT

        run(main())

    def test_overload_rejected_with_typed_error(self):
        async def main():
            async with running_server(queue_limit=1) as server:
                async with connected(server) as client:
                    _slow_dispatch(server, 0.3)
                    results = await asyncio.gather(
                        *[client.ping(timeout=5.0) for _ in range(5)],
                        return_exceptions=True)
                    rejected = server.metrics.rejected
            return results, rejected

        results, rejected = run(main())
        ok = [r for r in results if r is True]
        overloaded = [r for r in results
                      if isinstance(r, ProtocolError)
                      and r.code == protocol.ERR_OVERLOADED]
        assert ok, "at least one request must be admitted"
        assert overloaded, "queue_limit=1 must shed concurrent load"
        assert rejected == len(overloaded)


class TestDeadlineOnRequestTask:
    """The deadline cancels the request's own task; only that cancel
    becomes a ``timeout`` frame."""

    def test_deadline_mid_decode_still_warms_the_cache(self, monkeypatch):
        decoded = []
        real = batcher_mod.decode_groups_batch

        def slow(items):
            items = list(items)
            time.sleep(0.3)
            decoded.extend(group for _image, group in items)
            return real(items)

        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    digest, _ = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    monkeypatch.setattr(batcher_mod, "decode_groups_batch",
                                        slow)
                    server.config.request_timeout = 0.1
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.decompress(digest=digest, group_start=1,
                                                group_count=2, timeout=5.0)
                    assert excinfo.value.code == protocol.ERR_TIMEOUT
                    # The expired request's batch runs on and lands.
                    deadline = time.monotonic() + 5.0
                    while server.cache.peek((digest, 2)) is None:
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.01)
                    server.config.request_timeout = 30.0
                    hits = server.cache.hits
                    words = await client.decompress(
                        digest=digest, group_start=1, group_count=2,
                        timeout=5.0)
                    return (words, server.cache.hits - hits,
                            server.metrics.snapshot())

        words, new_hits, snap = run(main())
        assert words == EXPECTED_WORDS[GROUP_INSTRUCTIONS:
                                       3 * GROUP_INSTRUCTIONS]
        assert new_hits == 2
        assert decoded == [1, 2]
        assert snap["errors"] == {"timeout": 1}

    def test_timeout_error_from_a_handler_maps_to_timeout_frame(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    async def raising(frame):
                        raise asyncio.TimeoutError()

                    server._dispatch = raising
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.ping(timeout=5.0)
            return excinfo.value

        error = run(main())
        assert error.code == protocol.ERR_TIMEOUT
        assert error.message == "request exceeded 30.000s deadline"

    def test_external_cancel_propagates(self):
        """A cancel from outside (shutdown, loop teardown) ends the
        request task instead of turning into a timeout frame."""
        started = []

        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    async def parked(frame):
                        started.append(asyncio.current_task())
                        await asyncio.sleep(10.0)

                    server._dispatch = parked
                    ping = asyncio.ensure_future(client.ping(timeout=10.0))
                    while not started:
                        await asyncio.sleep(0.005)
                    started[0].cancel()
                    await asyncio.wait(started)
                    ping.cancel()
                    await asyncio.gather(ping, return_exceptions=True)
                    return dict(server.metrics.errors)

        errors = run(main())
        assert started[0].cancelled()
        assert errors == {}

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tasks count their cancel requests "
                               "from Python 3.11")
    def test_external_cancel_beside_an_expired_deadline_propagates(self):
        started = []

        async def main():
            async with running_server(request_timeout=0.05) as server:
                async with connected(server) as client:
                    async def blocking(frame):
                        task = asyncio.current_task()
                        started.append(task)
                        asyncio.get_running_loop().call_later(0.05,
                                                              task.cancel)
                        # Both cancels fall due while the loop is held,
                        # so both reach the task before it resumes.
                        time.sleep(0.2)
                        await asyncio.sleep(10.0)

                    server._dispatch = blocking
                    ping = asyncio.ensure_future(client.ping(timeout=10.0))
                    while not started:
                        await asyncio.sleep(0.005)
                    await asyncio.wait(started)
                    ping.cancel()
                    await asyncio.gather(ping, return_exceptions=True)
                    return dict(server.metrics.errors)

        errors = run(main())
        assert started[0].cancelled()
        assert errors == {}

    def test_late_result_after_a_dropped_deadline_cancel_is_discarded(self):
        """Something inside the handler drops the deadline's cancel (as
        wait_for on 3.9-3.11 can) and returns anyway: the late result
        still becomes a timeout frame, and the task is not left with a
        cancel request pending."""
        tasks = []

        async def main():
            async with running_server(request_timeout=0.05) as server:
                async with connected(server) as client:
                    async def stubborn(frame):
                        tasks.append(asyncio.current_task())
                        try:
                            await asyncio.sleep(10.0)
                        except asyncio.CancelledError:
                            pass
                        return b""

                    server._dispatch = stubborn
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.ping(timeout=5.0)
                    await asyncio.wait(tasks)
                    return excinfo.value, dict(server.metrics.errors)

        error, errors = run(main())
        assert error.code == protocol.ERR_TIMEOUT
        assert errors == {"timeout": 1}
        assert not tasks[0].cancelled()
        if hasattr(tasks[0], "cancelling"):
            assert tasks[0].cancelling() == 0


class TestBatchWindow:
    """The server's count of admitted requests tells the batcher whether
    a window could gather co-riders."""

    #: Long enough that a request which waited it out cannot pass.
    WINDOW = 0.5

    def test_lone_requests_skip_the_window(self):
        async def main():
            async with running_server(batch_window=self.WINDOW) as server:
                async with connected(server) as client:
                    began = time.perf_counter()
                    digest, _ = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    compressed = time.perf_counter()
                    words = await client.decompress(
                        digest=digest, group_start=1, group_count=2,
                        timeout=30.0)
                    done = time.perf_counter()
                    return (words, compressed - began, done - compressed,
                            server.metrics.snapshot())

        words, compress_s, decompress_s, snap = run(main())
        assert words == EXPECTED_WORDS[GROUP_INSTRUCTIONS:
                                       3 * GROUP_INSTRUCTIONS]
        assert compress_s < self.WINDOW / 2
        assert decompress_s < self.WINDOW / 2
        assert snap["batch"]["batches"] == 1
        assert snap["batch"]["compress_batches"] == 1

    def test_concurrent_spans_share_one_batch(self):
        async def main():
            async with running_server(batch_window=self.WINDOW) as server:
                async with connected(server) as client:
                    digest, _ = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                    results = await asyncio.gather(
                        *[client.decompress(digest=digest, group_start=g,
                                            group_count=1, timeout=30.0)
                          for g in range(10)])
                    return results, server.metrics.snapshot()

        results, snap = run(main())
        for group, words in enumerate(results):
            assert words == EXPECTED_WORDS[group * GROUP_INSTRUCTIONS:
                                           (group + 1) * GROUP_INSTRUCTIONS]
        assert snap["batch"]["batches"] == 1
        assert snap["batch"]["requests"] == 10
        assert snap["batch"]["groups"] == 10


class TestSwallowedCounters:
    """Fail-open paths stay fail-open but count under their own names,
    apart from the error frames in ``errors``."""

    def test_farewell_snapshot_into_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the snapshot directory goes")

        async def main():
            server = CodePackServer(ServerConfig(
                port=0, snapshot_dir=str(blocker / "snapshots")))
            await server.start()
            await server.shutdown()  # must not raise
            return server.metrics.snapshot()

        snap = run(main())
        assert snap["swallowed"] == {"snapshot_farewell": 1}
        assert snap["errors"] == {}

    def test_periodic_snapshot_into_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the snapshot directory goes")

        async def main():
            async with running_server(
                    snapshot_dir=str(blocker / "snapshots"),
                    snapshot_interval=0.01) as server:
                async with connected(server) as client:
                    deadline = time.monotonic() + 5.0
                    while not server.metrics.swallowed["snapshot_write"]:
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.01)
                    return await client.metrics(timeout=5.0)

        snap = run(main())
        assert snap["swallowed"]["snapshot_write"] >= 1
        assert snap["errors"] == {}

    def test_undeliverable_response_is_counted(self):
        async def main():
            async with running_server() as server:
                _slow_dispatch(server, 0.1)
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(protocol.encode_frame(protocol.REQ_PING, 1,
                                                   b""))
                await writer.drain()
                await asyncio.sleep(0.02)  # let the server admit it
                # Linger 0 makes the close a reset: the reply has nowhere
                # to go.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
                writer.transport.abort()
                deadline = time.monotonic() + 5.0
                while not server.metrics.swallowed["send_undeliverable"]:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                return server.metrics.snapshot()

        snap = run(main())
        assert snap["swallowed"]["send_undeliverable"] >= 1
        assert snap["errors"] == {}


#: ``repro.tools.serve serve`` with a finalizer that spins for a second
#: shortly after the server starts, announcing itself first.
SLOW_FINALIZER_SERVE = """
import asyncio, sys, time
from repro.serve.server import CodePackServer
from repro.tools import serve

class SlowFinalizer:
    def __del__(self):
        print("finalizing", flush=True)
        end = time.monotonic() + 1.0
        while time.monotonic() < end:
            pass

started = CodePackServer.start

async def start(self):
    await started(self)
    asyncio.get_running_loop().call_later(0.1, SlowFinalizer)
    return self

CodePackServer.start = start
sys.exit(serve.main(["serve", "--port", "0"]))
"""


#: ``repro.tools.serve serve --fleet 2`` whose parent prints its worker
#: pids, then runs a finalizer that spins for a second inside its poll
#: loop, announcing itself first.  Spawned workers re-import this file,
#: so only the parent runs the command.
SLOW_FINALIZER_FLEET = """
import sys, time
from repro.serve.fleet import Fleet
from repro.tools import serve

class SlowFinalizer:
    def __del__(self):
        print("finalizing", flush=True)
        end = time.monotonic() + 1.0
        while time.monotonic() < end:
            pass

started, alive, polls = Fleet.start, Fleet.alive, []

def start(self):
    started(self)
    print("workers", *[p.pid for p in self._processes.values()],
          flush=True)
    return self

def poll(self):
    polls.append(None)
    if len(polls) == 2:
        SlowFinalizer()  # unreferenced: its __del__ runs right here
    return alive(self)

Fleet.start, Fleet.alive = start, poll
if __name__ == "__main__":
    sys.exit(serve.main(["serve", "--fleet", "2"]))
"""


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestGracefulShutdown:
    def test_sigterm_during_a_finalizer_drains_the_serve_command(
            self, tmp_path):
        """A KeyboardInterrupt raised by a signal handler is dropped
        when it lands in a finalizer; SIGTERM must still drain the
        server and exit 0."""
        script = tmp_path / "serve_slow_finalizer.py"
        script.write_text(SLOW_FINALIZER_SERVE)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert "listening" in proc.stdout.readline()
            assert proc.stdout.readline().strip() == "finalizing"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=20.0)
            out = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert code == 0
        assert "shutdown complete" in out

    def test_sigterm_during_a_finalizer_drains_the_fleet_command(
            self, tmp_path):
        """The fleet parent's SIGTERM sets a flag its poll loop reads,
        so a finalizer running when the signal lands cannot drop it:
        the fleet drains, exits 0 and leaves no worker behind."""
        script = tmp_path / "fleet_slow_finalizer.py"
        script.write_text(SLOW_FINALIZER_FLEET)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        workers = []
        try:
            first = proc.stdout.readline().split()
            assert first[0] == "workers"
            workers = [int(pid) for pid in first[1:]]
            assert "fleet of 2 workers" in proc.stdout.readline()
            assert proc.stdout.readline().strip() == "finalizing"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30.0)
            out = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            orphans = [pid for pid in workers if _pid_exists(pid)]
            for pid in orphans:
                os.kill(pid, signal.SIGKILL)
        assert code == 0
        assert "draining fleet..." in out
        assert len(workers) == 2
        assert orphans == []

    def test_shutdown_completes_admitted_request(self):
        """A request in flight when shutdown starts still gets its
        response before the connection is torn down."""

        async def main():
            server = CodePackServer(ServerConfig(port=0,
                                                 batch_window=0.005))
            await server.start()
            client = await ServeClient(port=server.port).connect()
            try:
                digest, _ = await client.compress(
                    PROGRAM.text, name=PROGRAM.name, timeout=30.0)
                _slow_dispatch(server, 0.15)
                pending = asyncio.get_running_loop().create_task(
                    client.decompress(digest=digest, timeout=30.0))
                await asyncio.sleep(0.05)  # let the server admit it
                await server.shutdown(drain=True)
                return await pending
            finally:
                await client.close()
                await server.shutdown()

        assert run(main()) == EXPECTED_WORDS

    def test_requests_after_shutdown_fail(self):
        async def main():
            server = CodePackServer(ServerConfig(port=0))
            await server.start()
            client = await ServeClient(port=server.port).connect()
            try:
                assert await client.ping(timeout=5.0)
                await server.shutdown()
                with pytest.raises((ProtocolError, ServerClosedError,
                                    ConnectionError)):
                    await client.ping(timeout=5.0)
            finally:
                await client.close()

        run(main())


class TestSweepCell:
    def test_sweep_cell_caches_via_configured_dir(self, tmp_path):
        spec = {"benchmark": "pegwit", "arch": "4-issue",
                "codepack": False, "scale": 0.02,
                "max_instructions": 200_000}

        async def main():
            async with running_server(
                    sweep_cache_dir=str(tmp_path)) as server:
                async with connected(server) as client:
                    cold = await client.sweep_cell(spec, timeout=60.0)
                    warm = await client.sweep_cell(spec, timeout=60.0)
            return cold, warm

        cold, warm = run(main())
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]
        assert cold["result"]["instructions"] > 0
        assert list(tmp_path.glob("*.json")), \
            "sweep results must persist in the configured cache dir"

    def test_sweep_cell_bad_benchmark_typed_error(self):
        async def main():
            async with running_server(sweep_cache=False) as server:
                async with connected(server) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.sweep_cell({"benchmark": "no-such"},
                                                timeout=30.0)
                    assert excinfo.value.code == protocol.ERR_BAD_REQUEST

        run(main())


class TestCompressBatching:
    """PR 7: compress frames flow through the micro-batch window and
    come out as one fused ``compress_many`` call per window."""

    def test_batched_compress_matches_direct_path(self):
        async def main():
            async with running_server(batch_window=0.002) as server:
                async with connected(server) as client:
                    digest, blob = await client.compress(
                        PROGRAM.text, name=PROGRAM.name, timeout=30.0)
            return digest, blob

        digest, blob = run(main())
        image = compress_words_reference(PROGRAM.text, name=PROGRAM.name)
        assert blob == dump_image(image)

    def test_concurrent_compresses_share_windows(self):
        async def main():
            async with running_server(batch_window=0.01) as server:
                async with connected(server) as client:
                    jobs = [
                        client.compress(PROGRAM.text,
                                        name="prog-%d" % i,
                                        timeout=30.0)
                        for i in range(8)]
                    results = await asyncio.gather(*jobs)
                    snap = server.metrics.snapshot()
            return results, snap

        results, snap = run(main())
        assert len({digest for digest, _blob in results}) == 8
        batch = snap["batch"]
        assert batch["compress_requests"] == 8
        assert batch["compress_batches"] >= 1
        # Windows actually merged concurrent compress frames.
        assert batch["compress_occupancy"] > 1.0

    def test_shared_dictionaries_identical_across_workers(self):
        """Two workers pinning the same corpus benchmark produce
        byte-identical containers for the same program -- the property
        that makes fleet-side compress deterministic shard-to-shard."""
        async def main():
            blobs = []
            for _ in range(2):
                async with running_server(
                        batch_window=0.002,
                        shared_dictionaries="pegwit",
                        shared_dict_scale=0.02) as server:
                    assert server.shared_dicts[0] is not None
                    async with connected(server) as client:
                        _digest, blob = await client.compress(
                            PROGRAM.text, name=PROGRAM.name,
                            timeout=30.0)
                        words = await client.decompress(
                            image_bytes=blob, timeout=30.0)
                        assert words == EXPECTED_WORDS
                    blobs.append(blob)
            return blobs

        first, second = run(main())
        assert first == second
        # Pinned dictionaries are corpus-built, not per-program: the
        # container differs from the self-tuned one.
        image = compress_words_reference(PROGRAM.text, name=PROGRAM.name)
        assert first != dump_image(image)

    def test_unknown_shared_dictionary_benchmark_rejected(self):
        async def main():
            server = CodePackServer(ServerConfig(
                port=0, shared_dictionaries="no-such-benchmark"))
            with pytest.raises(ValueError):
                await server.start()
            await server.shutdown()

        run(main())


class TestMetricsSamples:
    def test_samples_payload_exports_latency_window(self):
        async def main():
            async with running_server() as server:
                async with connected(server) as client:
                    for _ in range(3):
                        await client.ping(timeout=5.0)
                    plain = await client.metrics(timeout=5.0)
                    sampled = await client.metrics(samples=True,
                                                   timeout=5.0)
            return plain, sampled

        plain, sampled = run(main())
        assert "latency_samples_ms" not in plain
        samples = sampled["latency_samples_ms"]
        assert len(samples) >= 3
        assert all(isinstance(value, float) for value in samples)
