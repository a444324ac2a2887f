"""The asyncio CodePack compression server.

One :class:`CodePackServer` owns:

* a TCP listener speaking the frame protocol of
  :mod:`repro.serve.protocol` (pipelined, length-prefixed);
* a worker :class:`~concurrent.futures.ThreadPoolExecutor` shared by
  every codec call (and injected into the batch API of
  :mod:`repro.codepack.batch`, so pool startup is paid once per server,
  not once per request);
* the :class:`~repro.serve.batcher.MicroBatcher` with its image
  registry and LRU group cache;
* a :class:`~repro.serve.metrics.MetricsRegistry` served over the
  ``metrics`` request.

Robustness model:

* **Backpressure** -- at most ``queue_limit`` requests may be admitted
  (queued or in flight) at once; excess requests are answered
  immediately with an ``overloaded`` error frame instead of growing an
  unbounded queue.
* **Deadlines** -- every admitted request gets
  ``request_timeout`` seconds, enforced by a timer on the request's own
  task; an expired request is answered with a ``timeout`` error frame
  and its late result (if any) is discarded.  A decode it started
  still lands in the group cache.
* **Malformed input** -- payloads that fail to parse produce typed
  ``malformed`` error frames; an unparseable *envelope* (bad length
  prefix) is answered where possible and then the connection is closed,
  because framing cannot be resynchronised.  The server itself keeps
  serving other connections in every case.
* **Fail-open paths** -- best-effort work (snapshot writes,
  replication, handoff, closing peer clients and writers, responses to
  vanished clients) swallows its errors, but each site counts under its
  own name in the ``swallowed`` section of the metrics snapshot.
* **Graceful shutdown** -- :meth:`shutdown` stops accepting
  connections and frames, lets every already-admitted request finish
  and flush its response, then tears down the batcher and executor.
"""

import asyncio
import concurrent.futures
import hashlib
import threading
import time
from dataclasses import dataclass

from collections import OrderedDict

from repro.codepack.batch import compress_words_parallel
from repro.codepack.errors import DecompressionError
from repro.serve import protocol, snapshot as snapshot_format
from repro.serve.batcher import (
    GroupCache,
    ImageRegistry,
    MicroBatcher,
    ReplicaCache,
)
from repro.serve.metrics import MetricsRegistry, merge_snapshots
from repro.serve.protocol import ProtocolError
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, routing_key
from repro.tools.container import ContainerError, dump_image, parse_image

__all__ = ["ServerConfig", "CodePackServer"]

_REQUEST_NAMES = {
    protocol.REQ_COMPRESS: "compress",
    protocol.REQ_DECOMPRESS: "decompress",
    protocol.REQ_STATS: "stats",
    protocol.REQ_SWEEP_CELL: "sweep_cell",
    protocol.REQ_METRICS: "metrics",
    protocol.REQ_PING: "ping",
    protocol.REQ_FLEET: "fleet",
    protocol.REQ_PEER_GET: "peer_get",
    protocol.REQ_REPLICATE: "replicate",
    protocol.REQ_JOIN: "join",
    protocol.REQ_LEAVE: "leave",
}

#: Span anchors remembered for peer-fetch / replication routing.
_MAX_SPAN_ANCHORS = 65536

#: Replicate frames chunk at this many groups so a huge hot set can
#: never build a frame over the protocol ceiling.
_HANDOFF_CHUNK_GROUPS = 1024


class _Redirect(Exception):
    """Internal: this request belongs to another shard."""

    def __init__(self, shard_id, with_epoch=False):
        super().__init__("owned by shard %d" % shard_id)
        self.shard_id = shard_id
        self.with_epoch = with_epoch


@dataclass
class ServerConfig:
    """Tunables for one server instance.

    The fleet fields turn a standalone server into one shard of a
    worker fleet: *shard_id* names this worker on the consistent-hash
    ring, *fleet* lists every shard's ``host:port`` (index = shard id),
    and misrouted by-digest decompress requests are answered with a
    redirect frame naming the owner.  *snapshot_dir* enables the
    warm-start layer: the hot set is persisted every
    *snapshot_interval* seconds (and on graceful shutdown), and
    restored on start so a rebooted worker rejoins warm.
    """

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = pick an ephemeral port
    # Seconds a miss waits for co-riders while other requests are in
    # flight (a lone request never waits); 0 disables micro-batching.
    batch_window: float = 0.002
    max_batch: int = 128           # group decodes per pool call
    group_cache_entries: int = 4096  # 0 disables the decoded-group cache
    max_images: int = 64
    queue_limit: int = 256         # admitted requests before overload
    request_timeout: float = 30.0  # per-request deadline, seconds
    max_frame: int = protocol.MAX_FRAME_BYTES
    workers: int = 2               # codec executor threads
    sweep_cache: bool = True       # persist sweep_cell results on disk
    sweep_cache_dir: str = None    # None = $REPRO_CACHE_DIR / default
    shard_id: int = None           # this worker's id on the ring
    fleet: tuple = None            # ("host:port", ...) indexed by shard
    ring_replicas: int = DEFAULT_REPLICAS
    ring_epoch: int = 0            # membership generation at launch
    snapshot_dir: str = None       # None disables warm-start snapshots
    snapshot_interval: float = 30.0  # seconds between hot-set writes
    snapshot_groups: int = 2048    # hottest decoded groups persisted
    shared_dictionaries: str = None  # suite benchmark pinning fleet dicts
    shared_dict_scale: float = 0.05  # build scale for the pinned corpus
    peer_fetch: bool = True        # tier-2: ask the successor before decode
    peer_timeout: float = 2.0      # seconds per peer-fetch round-trip
    replica_budget: int = 8 * 1024 * 1024  # tier-2 cache bytes; 0 disables
    replicate_interval: float = 0.05  # write-behind pump period, seconds
    replicate_batch_bytes: int = 256 * 1024  # pump budget per cycle

    def describe(self):
        return {
            "host": self.host, "port": self.port,
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "group_cache_entries": self.group_cache_entries,
            "max_images": self.max_images,
            "queue_limit": self.queue_limit,
            "request_timeout": self.request_timeout,
            "max_frame": self.max_frame,
            "workers": self.workers,
            "shard_id": self.shard_id,
            "fleet": list(self.fleet) if self.fleet else None,
            "ring_replicas": self.ring_replicas,
            "snapshot_dir": self.snapshot_dir,
            "snapshot_interval": self.snapshot_interval,
            "snapshot_groups": self.snapshot_groups,
            "shared_dictionaries": self.shared_dictionaries,
            "peer_fetch": self.peer_fetch,
            "replica_budget": self.replica_budget,
            "replicate_interval": self.replicate_interval,
        }


def _build_shared_dictionaries(benchmark, scale):
    """Pin one dictionary pair for every compress on this worker.

    The paper fixes dictionaries at program load time; a fleet that
    pins them to a canonical corpus benchmark trades a little
    compression ratio for *fused* batch encoding -- every compress
    window becomes one shared-dictionary kernel pass -- and for
    cross-program dictionary reuse.  Deterministic: same benchmark and
    scale give byte-identical dictionaries on every worker.
    """
    from repro.codepack.dictionary import build_dictionaries
    from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

    if benchmark not in BENCHMARK_NAMES:
        raise ValueError("unknown shared-dictionary benchmark %r "
                         "(choose from %s)"
                         % (benchmark, ", ".join(BENCHMARK_NAMES)))
    program = build_benchmark(benchmark, scale)
    return build_dictionaries(program.text)


class _Connection:
    """Per-connection state: writer lock and in-flight request tasks."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks = set()


class CodePackServer:
    """The serving loop.  Use::

        server = CodePackServer(ServerConfig(port=0))
        await server.start()
        ...
        await server.shutdown()
    """

    def __init__(self, config=None, metrics=None):
        self.config = config or ServerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.registry = ImageRegistry(max_images=self.config.max_images)
        self.cache = GroupCache(max_entries=self.config.group_cache_entries)
        self.batcher = None
        self.executor = None
        self._server = None
        self._connections = set()
        self._active = 0            # admitted (queued + running) requests
        self._peak_active = 0
        self._closing = False
        self._sweep_cache = None
        self._sweep_lock = threading.Lock()
        self._sweep_workbenches = {}
        self._sweep_state = {"priced": 0, "memo_hits": 0, "cache_hits": 0}
        self.shared_dicts = (None, None)
        self.ring = None
        self._members = None  # OrderedDict shard_id -> "host:port"
        if self.config.fleet:
            if self.config.shard_id is None:
                raise ValueError("a fleet member needs a shard_id")
            self._members = OrderedDict(
                (shard, address)
                for shard, address in enumerate(self.config.fleet))
            self.ring = HashRing(self._members,
                                 replicas=self.config.ring_replicas,
                                 epoch=self.config.ring_epoch)
        self._snapshot_task = None
        self._snapshot_state = {"restored_images": 0,
                                "restored_groups": 0,
                                "writes": 0, "last_bytes": 0,
                                "last_groups": 0}
        self._peer_clients = {}
        # -- tier 2: replica store + write-behind bookkeeping ------------
        self.replicas = ReplicaCache(max_bytes=self.config.replica_budget)
        self._replicated = set()    # (digest, group) already pushed
        self._sent_images = set()   # (target, digest) container sent
        self._span_anchors = OrderedDict()  # (digest, group) -> span start
        self._replicate_task = None
        self._membership_state = {"reshards": 0, "handoff_out": 0,
                                  "handoff_in": 0}

    @property
    def shard_id(self):
        return self.config.shard_id if self.config.shard_id is not None \
            else 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self):
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self):
        """Bind the listener and start the batch scheduler.

        With a snapshot directory configured, the previous hot set of
        this shard is restored first (corrupt or stale snapshots are
        silently ignored -- a cold start, never a crash) and the
        periodic snapshot writer starts alongside the batcher.
        """
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="codepack-serve")
        if self.config.shared_dictionaries:
            self.shared_dicts = _build_shared_dictionaries(
                self.config.shared_dictionaries,
                self.config.shared_dict_scale)
        self.batcher = MicroBatcher(
            self.registry, self.cache,
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
            executor=self.executor, metrics=self.metrics,
            high_dict=self.shared_dicts[0],
            low_dict=self.shared_dicts[1],
            peer_fetch=(self._peer_fetch if self.config.peer_fetch
                        else None),
            in_flight=lambda: self._active).start()
        self.metrics.register_gauge("queue_depth", lambda: self._active)
        self.metrics.register_gauge("queue_limit",
                                    lambda: self.config.queue_limit)
        self.metrics.register_gauge("queue_peak", lambda: self._peak_active)
        self.metrics.register_gauge("batcher_depth", self.batcher.depth)
        self.metrics.register_gauge("cache", self.cache.counters)
        self.metrics.register_gauge("replicas", self.replicas.counters)
        self.metrics.register_gauge("images", lambda: len(self.registry))
        self.metrics.register_gauge("shard", self._shard_gauge)
        self.metrics.register_gauge("sweep", self._sweep_gauge)
        self.metrics.register_gauge("snapshot",
                                    lambda: dict(self._snapshot_state))
        if self.config.snapshot_dir:
            self._restore_snapshot()
            if self.config.snapshot_interval > 0:
                self._snapshot_task = asyncio.get_running_loop() \
                    .create_task(self._snapshot_loop())
        if self.config.replicate_interval > 0 \
                and self.config.replica_budget > 0:
            self._replicate_task = asyncio.get_running_loop() \
                .create_task(self._replicate_pump())
        self._server = await asyncio.start_server(
            self._on_connect, host=self.config.host, port=self.config.port)
        return self

    def set_fleet(self, addresses, shard_id=None, epoch=None):
        """Join (or re-shape) a fleet after construction.

        In-loop fleets bind ephemeral ports first and distribute the
        address table afterwards; ownership never changes here unless
        the shard set does, because the ring hashes shard ids, not
        addresses.  *addresses* is either a plain list (index = shard
        id, the launch-time form) or ``[(shard_id, address), ...]``
        pairs (the live-membership form, where ids may have gaps).
        """
        if shard_id is not None:
            self.config.shard_id = shard_id
        if self.config.shard_id is None:
            raise ValueError("a fleet member needs a shard_id")
        members = OrderedDict()
        for index, item in enumerate(addresses):
            if isinstance(item, str):
                members[index] = item
            else:
                sid, address = item
                members[int(sid)] = str(address)
        self._members = members
        self.config.fleet = tuple(members.values())
        if epoch is None:
            epoch = self.ring.epoch if self.ring is not None \
                else self.config.ring_epoch
        self.ring = HashRing(members, replicas=self.config.ring_replicas,
                             epoch=epoch)
        self.metrics.ring_epoch = epoch

    def _member_list(self):
        return [[shard, address]
                for shard, address in self._members.items()] \
            if self._members else []

    def _shard_gauge(self):
        return {"id": self.shard_id,
                "workers": len(self._members) if self._members else 1,
                "sharded": self.ring is not None}

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain=True):
        """Stop accepting work; with *drain*, finish what was admitted.

        A final hot-set snapshot is written (when snapshots are
        configured) after the drain, so a graceful restart rejoins with
        the freshest possible cache.
        """
        self._closing = True
        if self._replicate_task is not None:
            self._replicate_task.cancel()
            try:
                await self._replicate_task
            except asyncio.CancelledError:
                pass
            self._replicate_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            pending = [task for conn in list(self._connections)
                       for task in list(conn.tasks)]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.stop(drain=drain)
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self.config.snapshot_dir:
            try:
                self._write_snapshot()
            except Exception:
                # A failed farewell snapshot must not block exit.
                self.metrics.record_swallowed("snapshot_farewell")
        for client in self._peer_clients.values():
            try:
                await client.close()
            except Exception:
                self.metrics.record_swallowed("peer_close_shutdown")
        self._peer_clients.clear()
        for conn in list(self._connections):
            try:
                conn.writer.close()
            except Exception:
                self.metrics.record_swallowed("writer_close")
        self._connections.clear()
        if self.executor is not None:
            self.executor.shutdown(wait=True)

    # -- warm-start snapshots ------------------------------------------------

    def _snapshot_file(self):
        return snapshot_format.snapshot_path(self.config.snapshot_dir,
                                             self.shard_id)

    def _serve_version(self):
        from repro.serve import SERVE_VERSION
        return SERVE_VERSION

    def _restore_snapshot(self):
        body = snapshot_format.load_snapshot(
            self._snapshot_file(), self.shard_id, self._serve_version())
        if body is None:
            return
        n_images, n_groups = snapshot_format.restore_hot_set(
            body, self.registry, self.cache)
        self._snapshot_state["restored_images"] = n_images
        self._snapshot_state["restored_groups"] = n_groups

    def _write_snapshot(self, body=None):
        """Persist the hot set (synchronous, atomic)."""
        if body is None:
            body = snapshot_format.collect_hot_set(
                self.registry, self.cache,
                max_groups=self.config.snapshot_groups)
        size = snapshot_format.write_snapshot(
            self._snapshot_file(), body, self.shard_id,
            self._serve_version())
        self._snapshot_state["writes"] += 1
        self._snapshot_state["last_bytes"] = size
        self._snapshot_state["last_groups"] = len(body["groups"])
        return {"path": self._snapshot_file(), "bytes": size,
                "images": len(body["images"]),
                "groups": len(body["groups"])}

    async def snapshot_now(self):
        """Write a snapshot; returns the write summary.

        The hot set is collected on the event loop (reference copies of
        loop-confined structures -- no mutation races), only the file
        write runs on the default executor.
        """
        if not self.config.snapshot_dir:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "snapshots are not configured")
        body = snapshot_format.collect_hot_set(
            self.registry, self.cache,
            max_groups=self.config.snapshot_groups)
        return await asyncio.get_running_loop().run_in_executor(
            None, self._write_snapshot, body)

    async def _snapshot_loop(self):
        while True:
            await asyncio.sleep(self.config.snapshot_interval)
            try:
                await self.snapshot_now()
            except Exception:
                # Persistence is best-effort; serving goes on.
                self.metrics.record_swallowed("snapshot_write")

    # -- connection handling -------------------------------------------------

    async def _on_connect(self, reader, writer):
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            while not self._closing:
                try:
                    frame = await protocol.read_frame(
                        reader, max_frame=self.config.max_frame)
                except ProtocolError as exc:
                    # Unrecoverable framing damage: answer (the id is
                    # unknowable, so 0) and hang up this connection.
                    self.metrics.record_error(
                        protocol.ERROR_NAMES.get(exc.code, "malformed"))
                    await self._send_error(conn, 0, exc)
                    break
                if frame is None:
                    break
                self._admit(conn, frame)
            # Let this connection's admitted requests finish before the
            # writer goes away (graceful even on client half-close).
            if conn.tasks:
                await asyncio.gather(*list(conn.tasks),
                                     return_exceptions=True)
        except asyncio.CancelledError:
            # Event-loop teardown cancels handler tasks; finish
            # normally so StreamReaderProtocol's done-callback does
            # not log the cancellation as an error.
            pass
        finally:
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except asyncio.CancelledError:
                # wait_closed re-raises CancelledError while the task
                # is being torn down; nothing left to clean up.
                pass
            except Exception:
                self.metrics.record_swallowed("writer_close")

    def _admit(self, conn, frame):
        """Admission control: reject, or spawn a tracked request task."""
        if frame.type not in protocol.REQUEST_TYPES:
            error = ProtocolError(protocol.ERR_UNKNOWN_TYPE,
                                  "unknown request type 0x%02x" % frame.type)
            self._reject(conn, frame, error)
            return
        if self._closing:
            self._reject(conn, frame, ProtocolError(
                protocol.ERR_SHUTTING_DOWN, "server is draining"))
            return
        if self._active >= self.config.queue_limit:
            self.metrics.record_rejected()
            self._reject(conn, frame, ProtocolError(
                protocol.ERR_OVERLOADED,
                "request queue full (%d in flight)" % self._active))
            return
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)
        self.metrics.record_request(_REQUEST_NAMES[frame.type])
        task = asyncio.get_running_loop().create_task(
            self._serve_request(conn, frame))
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    def _reject(self, conn, frame, error):
        self.metrics.record_error(
            protocol.ERROR_NAMES.get(error.code, "internal"))
        task = asyncio.get_running_loop().create_task(
            self._send_error(conn, frame.request_id, error))
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    # -- request dispatch ----------------------------------------------------

    async def _serve_request(self, conn, frame):
        started = time.perf_counter()
        kind = _REQUEST_NAMES[frame.type]
        try:
            try:
                try:
                    payload = await self._dispatch_by_deadline(frame)
                except asyncio.TimeoutError:
                    raise ProtocolError(
                        protocol.ERR_TIMEOUT,
                        "request exceeded %.3fs deadline"
                        % self.config.request_timeout)
                except ProtocolError:
                    raise
                except _Redirect as exc:
                    # Misrouted: answer with the owning shard's address
                    # so a shard-aware client re-issues it there.
                    self.metrics.record_redirect()
                    await self._send_redirect(conn, frame.request_id,
                                              exc.shard_id,
                                              with_epoch=exc.with_epoch)
                    return
                except (ContainerError, DecompressionError, ValueError,
                        KeyError) as exc:
                    raise ProtocolError(protocol.ERR_BAD_REQUEST, str(exc))
                except Exception as exc:
                    raise ProtocolError(protocol.ERR_INTERNAL,
                                        "%s: %s" % (type(exc).__name__, exc))
                # A response larger than the frame ceiling is the
                # server's fault; report it rather than dying silently.
                await self._send(conn,
                                 protocol.response_type_for(frame.type),
                                 frame.request_id, payload)
                self.metrics.record_response(
                    kind, time.perf_counter() - started)
            except ProtocolError as exc:
                self.metrics.record_error(
                    protocol.ERROR_NAMES.get(exc.code, "internal"))
                await self._send_error(conn, frame.request_id, exc)
        finally:
            self._active -= 1

    async def _dispatch_by_deadline(self, frame):
        """:meth:`_dispatch` on this request's own task, under its deadline.

        A timer cancels the task if the deadline passes while it is
        still inside ``_dispatch``; after that, whatever ``_dispatch``
        ends with leaves here as :class:`asyncio.TimeoutError`, a late
        result included.  Any other cancel (shutdown, loop teardown)
        propagates.  ``asyncio.wait_for`` would run every dispatch in a
        second task, and ``asyncio.timeout`` needs 3.11.
        """
        task = asyncio.current_task()
        expired = False

        def expire():
            nonlocal expired
            expired = True
            task.cancel()

        timer = asyncio.get_running_loop().call_later(
            self.config.request_timeout, expire)
        try:
            payload = await self._dispatch(frame)
        except (asyncio.CancelledError, Exception):
            if not expired:
                raise
        finally:
            timer.cancel()
        if not expired:
            return payload
        # The timer's cancel came out of _dispatch, or something inside
        # dropped it (wait_for on 3.9-3.11 does when its future finished
        # in the same tick).  From 3.11 tasks count cancel requests:
        # withdraw ours, and propagate another (shutdown) still pending.
        if hasattr(task, "uncancel") and task.uncancel():
            raise asyncio.CancelledError()
        raise asyncio.TimeoutError()

    async def _dispatch(self, frame):
        if frame.type == protocol.REQ_PING:
            return b""
        if frame.type == protocol.REQ_METRICS:
            return self._handle_metrics(frame.payload)
        if frame.type == protocol.REQ_COMPRESS:
            return await self._handle_compress(frame.payload)
        if frame.type == protocol.REQ_DECOMPRESS:
            return await self._handle_decompress(frame.payload)
        if frame.type == protocol.REQ_STATS:
            return self._handle_stats(frame.payload)
        if frame.type == protocol.REQ_SWEEP_CELL:
            return await self._handle_sweep_cell(frame.payload)
        if frame.type == protocol.REQ_FLEET:
            return await self._handle_fleet(frame.payload)
        if frame.type == protocol.REQ_PEER_GET:
            return self._handle_peer_get(frame.payload)
        if frame.type == protocol.REQ_REPLICATE:
            return self._handle_replicate(frame.payload)
        if frame.type == protocol.REQ_JOIN:
            return await self._handle_membership(frame.payload,
                                                 leaving=False)
        if frame.type == protocol.REQ_LEAVE:
            return await self._handle_membership(frame.payload,
                                                 leaving=True)
        raise ProtocolError(protocol.ERR_UNKNOWN_TYPE,
                            "unknown request type 0x%02x" % frame.type)

    def _handle_metrics(self, payload):
        """An empty payload keeps the v1 behaviour; a JSON object may
        ask for the raw latency window (``{"samples": true}``) so a
        fleet aggregator can merge exact percentiles."""
        samples = False
        if payload:
            spec = protocol.decode_json_payload(payload)
            if not isinstance(spec, dict):
                raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                    "metrics payload must be an object")
            samples = bool(spec.get("samples", False))
        return protocol.encode_json_payload(
            self.metrics.snapshot(samples=samples))

    # -- handlers ------------------------------------------------------------

    async def _handle_compress(self, payload):
        words, text_base, name = protocol.decode_compress_request(payload)
        if self.config.batch_window > 0:
            # Through the batching window: a window of compress frames
            # becomes one compress_many call -- the fused shared-dict
            # vec path when this worker pins fleet dictionaries.
            image = await self.batcher.compress(words, text_base=text_base,
                                                name=name)
            blob = dump_image(image)
            digest = hashlib.sha256(blob).digest()
            self.registry.register(digest, image)
            return protocol.encode_compress_response(digest, blob)
        loop = asyncio.get_running_loop()
        # The compressor runs on the default loop executor and fans its
        # per-group encoding out over the shared codec pool (the
        # injected-executor path of repro.codepack.batch), so nested
        # submission cannot deadlock the codec pool.
        digest, blob = await loop.run_in_executor(
            None, self._compress_sync, words, text_base, name)
        return protocol.encode_compress_response(digest, blob)

    def _compress_sync(self, words, text_base, name):
        image = compress_words_parallel(
            words, text_base=text_base, name=name,
            executor=self.executor,
            high_dict=self.shared_dicts[0],
            low_dict=self.shared_dicts[1])
        blob = dump_image(image)
        digest = hashlib.sha256(blob).digest()
        self.registry.register(digest, image)
        return digest, blob

    async def _handle_decompress(self, payload):
        digest, image_bytes, start, count, epoch = \
            protocol.decode_decompress_request(payload)
        if image_bytes is not None:
            # Inline image: canonicalise (parse + re-dump) so the digest
            # never depends on how the client serialised it.  Inline
            # requests are always served locally -- the client chose
            # this shard deliberately (e.g. re-registering after a
            # NOT_FOUND), so no ownership check applies.
            image = parse_image(image_bytes)
            digest = hashlib.sha256(dump_image(image)).digest()
            self.registry.register(digest, image)
        elif self.ring is not None:
            owner = self.ring.owner(routing_key(digest, start))
            if owner != self.shard_id:
                # An epoch-stamped (v3) request earns an epoch-stamped
                # redirect so a stale client knows to rediscover; a v2
                # request gets the legacy layout byte-for-byte.
                raise _Redirect(owner, with_epoch=epoch is not None)
            self._record_span_anchor(digest, start, count)
        words = await self.batcher.decode_span(digest, start, count)
        return protocol.encode_decompress_response(digest, start, words)

    def _record_span_anchor(self, digest, start, count):
        """Remember which span start routed each group here.

        Peer-fetch and replication both pick the successor of the
        *span's* routing key, so the anchor map is what keeps a group's
        replica target and its later fetch target consistent even
        though the cache itself is keyed per group.
        """
        if self.ring is None:
            return
        anchors = self._span_anchors
        if count == 0 or count > 512:
            count = min(count or 512, 512)
        for group in range(start, start + count):
            anchors[(digest, group)] = start
            anchors.move_to_end((digest, group))
        while len(anchors) > _MAX_SPAN_ANCHORS:
            anchors.popitem(last=False)

    def _handle_stats(self, payload):
        digest = protocol.decode_stats_request(payload)
        image = self.registry.get(digest)
        raw_blocks = sum(1 for block in image.blocks if block.is_raw)
        return protocol.encode_json_payload({
            "name": image.name,
            "digest": digest.hex(),
            "n_instructions": image.n_instructions,
            "original_bytes": image.original_bytes,
            "compressed_bytes": image.compressed_bytes,
            "compression_ratio": image.compression_ratio,
            "n_blocks": image.n_blocks,
            "n_groups": image.n_groups,
            "raw_blocks": raw_blocks,
            "block_instructions": image.block_instructions,
            "group_blocks": image.group_blocks,
            "dictionary_entries": {"high": len(image.high_dict),
                                   "low": len(image.low_dict)},
            "composition": image.stats.fractions(),
        })

    async def _handle_sweep_cell(self, payload):
        spec = protocol.decode_json_payload(payload)
        if not isinstance(spec, dict):
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "sweep_cell payload must be an object")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, self._sweep_cell_sync,
                                            spec)
        return protocol.encode_json_payload(result)

    def _decode_sweep_cell(self, spec):
        """Lower a sweep_cell payload to its simulation quintuple.

        Two spec shapes are accepted: the exploration wire form (a
        ``config`` object naming every architecture and scheme knob,
        rebuilt through the same builders the explorer lowers points
        with -- see :func:`repro.explore.space.cell_from_config`) and
        the legacy named-arch form (``benchmark``/``arch``/``codepack``
        /``optimized``) kept for v2 clients.
        """
        try:
            scale = float(spec.get("scale", 0.1))
            max_instructions = int(spec.get("max_instructions", 5_000_000))
        except (TypeError, ValueError):
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "scale/max_instructions must be numeric")
        if not 0.0 < scale <= 10.0 or max_instructions < 1:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "scale or max_instructions out of range")
        if "config" in spec:
            from repro.explore.space import SpaceError, cell_from_config

            try:
                bench, arch, codepack = cell_from_config(spec["config"])
            except SpaceError as exc:
                raise ProtocolError(protocol.ERR_BAD_REQUEST, str(exc))
            return bench, arch, codepack, scale, max_instructions
        from repro.sim.config import (
            ARCH_1_ISSUE,
            ARCH_4_ISSUE,
            ARCH_8_ISSUE,
            CodePackConfig,
        )
        from repro.workloads.suite import BENCHMARK_NAMES

        arches = {"1-issue": ARCH_1_ISSUE, "4-issue": ARCH_4_ISSUE,
                  "8-issue": ARCH_8_ISSUE}
        bench = spec.get("benchmark")
        if bench not in BENCHMARK_NAMES:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "unknown benchmark %r (choose from %s)"
                                % (bench, ", ".join(BENCHMARK_NAMES)))
        arch_name = spec.get("arch", "4-issue")
        if arch_name not in arches:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "unknown arch %r (choose from %s)"
                                % (arch_name, ", ".join(sorted(arches))))
        arch = arches[arch_name]
        codepack = None
        if spec.get("codepack", False):
            codepack = (CodePackConfig.optimized()
                        if spec.get("optimized", False)
                        else CodePackConfig())
        return bench, arch, codepack, scale, max_instructions

    def _sweep_workbench(self, scale, max_instructions):
        """The per-(scale, cap) Workbench memo (call under the lock).

        A Workbench records each benchmark's functional trace once and
        replays every architecture variant against it -- exactly the
        access pattern an exploration's consistent-hash routing
        produces (the same cells keep landing on this worker), and
        cycle-exact against the execute-driven path, so the cached
        results are indistinguishable.
        """
        key = (scale, max_instructions)
        wb = self._sweep_workbenches.get(key)
        if wb is None:
            from repro.eval.runner import Workbench

            # cache=None: the persistent sweep cache is consulted (and
            # filled) by the handler itself, so the workbench only adds
            # the in-process trace/program/result memo.
            wb = Workbench(scale=scale, max_instructions=max_instructions,
                           cache=None, jobs=1)
            self._sweep_workbenches[key] = wb
        return wb

    def _sweep_cell_sync(self, spec):
        from repro.eval.sweep import ResultCache, cell_key

        bench, arch, codepack, scale, max_instructions = \
            self._decode_sweep_cell(spec)
        key = cell_key(bench, arch, codepack, scale, max_instructions)
        cache = self._sweep_result_cache(ResultCache)
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                with self._sweep_lock:
                    self._sweep_state["cache_hits"] += 1
                return {"cached": True, "key": key,
                        "result": cached.to_dict()}
        # Serialised: handlers run on executor threads but Workbench
        # state is not thread-safe, and sweep pricing is CPU-bound
        # anyway -- concurrent frames would only contend on the GIL.
        with self._sweep_lock:
            wb = self._sweep_workbench(scale, max_instructions)
            memo_hits = wb.stats.memo_hits
            result = wb.run(bench, arch, codepack)
            warm = wb.stats.memo_hits > memo_hits
            self._sweep_state["memo_hits" if warm else "priced"] += 1
        if cache is not None:
            # The persistent cache missed above (even on a memo hit),
            # so writing back always either fills or heals it.
            cache.put(key, result)
        return {"cached": warm, "key": key, "result": result.to_dict()}

    def _sweep_gauge(self):
        with self._sweep_lock:
            return dict(self._sweep_state,
                        workbenches=len(self._sweep_workbenches))

    def _sweep_result_cache(self, result_cache_cls):
        if not self.config.sweep_cache:
            return None
        if self._sweep_cache is None:
            # Root resolution honours $REPRO_CACHE_DIR (see
            # repro.eval.sweep.default_cache_dir) unless the config
            # pins an explicit directory.
            self._sweep_cache = result_cache_cls(
                root=self.config.sweep_cache_dir)
        return self._sweep_cache

    # -- fleet control -------------------------------------------------------

    async def _handle_fleet(self, payload):
        """Fleet control ops (JSON): ``describe`` returns topology and
        snapshot state, ``snapshot`` forces a hot-set write, and
        ``metrics`` fans out to every peer worker and returns the
        merged fleet-wide snapshot."""
        spec = protocol.decode_json_payload(payload) if payload else {}
        if not isinstance(spec, dict):
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "fleet payload must be an object")
        op = spec.get("op", "describe")
        if op == "describe":
            return protocol.encode_json_payload(self._describe_fleet())
        if op == "snapshot":
            return protocol.encode_json_payload(await self.snapshot_now())
        if op == "metrics":
            samples = bool(spec.get("samples", True))
            return protocol.encode_json_payload(
                await self._fleet_metrics(samples))
        raise ProtocolError(protocol.ERR_BAD_REQUEST,
                            "unknown fleet op %r" % (op,))

    def _describe_fleet(self):
        return {
            "shard_id": self.shard_id,
            "workers": len(self._members) if self._members else 1,
            "addresses": list(self._members.values())
            if self._members else [],
            "members": self._member_list(),
            "epoch": self.ring.epoch if self.ring else 0,
            "ring": self.ring.describe() if self.ring else None,
            "snapshot": dict(self._snapshot_state,
                             dir=self.config.snapshot_dir),
            "membership": dict(self._membership_state),
            "shared_dictionaries": self.config.shared_dictionaries,
            "serve_version": self._serve_version(),
            "protocol_version": protocol.PROTOCOL_VERSION,
        }

    async def _peer_client(self, shard):
        """A cached pipelined connection to peer *shard* (dial once)."""
        from repro.serve.client import ServeClient

        client = self._peer_clients.get(shard)
        if client is not None:
            return client
        address = (self._members or {}).get(shard)
        if address is None:
            raise ProtocolError(protocol.ERR_NOT_FOUND,
                                "unknown fleet shard %d" % shard)
        host, _, port = address.rpartition(":")
        client = ServeClient(host or "127.0.0.1", int(port))
        await client.connect()
        return await self._adopt_peer_client(shard, client)

    async def _adopt_peer_client(self, shard, client):
        """File a freshly dialed *client* under *shard* -- unless a
        concurrent caller won the dial race while we awaited connect(),
        in which case ours is closed and theirs returned (an orphaned
        connection would leak its read-loop task past shutdown)."""
        existing = self._peer_clients.get(shard)
        if existing is not None:
            await client.close()
            return existing
        self._peer_clients[shard] = client
        return client

    async def _fleet_metrics(self, samples=True):
        """Merge this worker's metrics with every reachable peer's."""
        snaps = [self.metrics.snapshot(samples=samples)]
        shards = [self.shard_id]
        unreachable = []
        if self._members:
            for shard in list(self._members):
                if shard == self.shard_id:
                    continue
                try:
                    client = await self._peer_client(shard)
                    frame = await client.request(
                        protocol.REQ_METRICS,
                        protocol.encode_json_payload(
                            {"samples": samples}),
                        timeout=5.0)
                    snaps.append(protocol.decode_json_payload(
                        frame.payload))
                    shards.append(shard)
                except Exception:
                    self._peer_clients.pop(shard, None)
                    unreachable.append(shard)
        merged = merge_snapshots(snaps, shards=shards)
        merged["unreachable"] = unreachable
        return merged

    async def _send_redirect(self, conn, request_id, owner,
                             with_epoch=False):
        host, port = "", 0
        address = (self._members or {}).get(owner)
        if address is not None:
            host, _, port_text = address.rpartition(":")
            port = int(port_text)
        epoch = self.ring.epoch if with_epoch and self.ring else None
        await self._send(conn, protocol.RESP_REDIRECT, request_id,
                         protocol.encode_redirect(owner, host, port,
                                                  epoch=epoch))

    # -- tier 2: cooperative cache -------------------------------------------

    def _successor_for(self, digest, group):
        """The replica / peer-fetch target of one cached group.

        Routes by the group's recorded span anchor (falling back to the
        group index itself), then asks the ring for the key's successor
        -- the shard that would own the key if this one vanished.  The
        pump pushes there and the miss path fetches from there, so the
        two sides agree by construction.
        """
        anchor = self._span_anchors.get((digest, group), group)
        key = routing_key(digest, anchor)
        if self.ring.owner(key) != self.shard_id:
            return None
        return self.ring.successor(key)

    async def _peer_fetch(self, digest, groups):
        """The MicroBatcher tier-2 hook: try the ring successor for
        locally-missing groups before paying for a decode.

        Strictly best-effort -- any failure (no fleet, unreachable
        peer, peer miss) just leaves the group on the decode path.
        Returns ``{group: words}`` for the groups a peer supplied.
        """
        if self.ring is None or len(self.ring) < 2 or self._closing:
            return {}
        by_target = {}
        for group in groups:
            target = self._successor_for(digest, group)
            if target is not None and target != self.shard_id:
                by_target.setdefault(target, []).append(group)
        got = {}
        for target, wanted in by_target.items():
            started = time.perf_counter()
            hits = 0
            error = False
            try:
                client = await self._peer_client(target)
                frame = await client.request(
                    protocol.REQ_PEER_GET,
                    protocol.encode_peer_get_request(digest, wanted),
                    timeout=self.config.peer_timeout)
                _digest, entries = protocol.decode_peer_get_response(
                    frame.payload)
                for group, words in entries:
                    if words is not None and group in wanted:
                        got[group] = words
                        hits += 1
            except Exception:
                self._peer_clients.pop(target, None)
                error = True
            self.metrics.record_peer_fetch(
                hits, len(wanted) - hits,
                time.perf_counter() - started, error=error)
        return got

    def _handle_peer_get(self, payload):
        """Serve decoded groups a peer asks for -- replica tier first,
        then a non-perturbing peek at the primary cache.  A miss is a
        present-flag 0 entry, never an error and never a decode: the
        asking shard decides whether decoding is worth it."""
        digest, groups = protocol.decode_peer_get_request(payload)
        entries = []
        hits = 0
        for group in groups:
            words = self.replicas.peek((digest, group))
            if words is None:
                words = self.cache.peek((digest, group))
            if words is None:
                entries.append((group, None))
            else:
                entries.append((group, list(words)))
                hits += 1
        self.metrics.record_peer_served(hits)
        return protocol.encode_peer_get_response(digest, entries)

    def _handle_replicate(self, payload):
        """Accept pushed decoded groups.

        Mode 0 (tier-2) files them in the byte-budgeted replica cache;
        mode 1 (handoff) adopts them into the primary cache because
        ownership is flipping to this shard.  A riding image container
        is re-hashed against its claimed digest before registration --
        exactly the snapshot-restore validation -- so a peer can never
        poison the content-addressed registry.
        """
        mode, image_bytes, digest, entries = \
            protocol.decode_replicate_request(payload)
        image_registered = False
        if image_bytes is not None and digest not in self.registry:
            try:
                image = parse_image(image_bytes)
                if hashlib.sha256(
                        dump_image(image)).digest() == digest:
                    self.registry.register(digest, image)
                    image_registered = True
            except (ContainerError, ValueError):
                # A bad rider drops; the groups may still serve.
                self.metrics.record_swallowed("replicate_rider")
        accepted = 0
        n_bytes = 0
        if mode == protocol.REPLICATE_HANDOFF:
            # Adoption needs the container (follow-up spans must
            # decode); without it the entries would be dead weight.
            if digest in self.registry:
                for group, words in entries:
                    self.cache.put((digest, group), tuple(words))
                    accepted += 1
                    n_bytes += 4 * len(words)
                self.metrics.record_handoff(accepted, outbound=False)
                self._membership_state["handoff_in"] += accepted
        else:
            for group, words in entries:
                if self.replicas.put((digest, group), words):
                    accepted += 1
                    n_bytes += 4 * len(words)
        self.metrics.record_replicated_in(accepted, n_bytes)
        return protocol.encode_replicate_response(accepted,
                                                  image_registered)

    async def _replicate_pump(self):
        """Write-behind replication: push the warmest primary-cache
        groups to their ring successors, newest heat first, bounded per
        cycle so replication can never crowd out serving.

        The loop re-checks ``_closing`` rather than trusting
        cancellation alone: on 3.11, ``wait_for`` can swallow an
        external cancel when the awaited peer response completes in the
        same tick (e.g. failed by a peer that is also shutting down),
        and a pump that survived its cancel would deadlock shutdown.
        """
        while not self._closing:
            await asyncio.sleep(self.config.replicate_interval)
            try:
                await self._replicate_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # Replication is an optimisation, never a crash.
                self.metrics.record_swallowed("replicate_cycle")

    async def _replicate_once(self):
        if self.ring is None or len(self.ring) < 2 or self._closing:
            return 0
        budget = self.config.replicate_batch_bytes
        batches = {}  # (target, digest) -> [(group, words), ...]
        for (digest, group), words in reversed(self.cache.items()):
            if budget <= 0:
                break
            if (digest, group) in self._replicated:
                continue
            target = self._successor_for(digest, group)
            if target is None or target == self.shard_id:
                continue
            batches.setdefault((target, digest), []).append(
                (group, list(words)))
            budget -= 4 * len(words)
        pushed = 0
        for (target, digest), entries in batches.items():
            image_bytes = None
            if (target, digest) not in self._sent_images \
                    and digest in self.registry:
                image_bytes = dump_image(self.registry.get(digest))
            try:
                client = await self._peer_client(target)
                frame = await client.request(
                    protocol.REQ_REPLICATE,
                    protocol.encode_replicate_request(
                        digest, entries, mode=protocol.REPLICATE_TIER2,
                        image_bytes=image_bytes),
                    timeout=self.config.peer_timeout)
                protocol.decode_replicate_response(frame.payload)
            except Exception:
                self.metrics.record_swallowed("replicate_push")
                self._peer_clients.pop(target, None)
                continue
            if image_bytes is not None:
                self._sent_images.add((target, digest))
            n_bytes = sum(4 * len(words) for _g, words in entries)
            self.metrics.record_replicated_out(len(entries), n_bytes)
            for group, _words in entries:
                self._replicated.add((digest, group))
            pushed += len(entries)
        return pushed

    # -- live membership -----------------------------------------------------

    async def _handle_membership(self, payload, leaving):
        """Apply a ``REQ_JOIN``/``REQ_LEAVE`` reshard.

        The payload carries the full post-change member table and its
        epoch.  Idempotent: an epoch at or below the current ring's is
        acknowledged without touching anything, so orchestrators can
        broadcast freely.  Ordering within one reshard: the hot-set
        handoff streams *before* the ring flips, so entries leave while
        this shard still owns them and arrive at a shard about to own
        them -- the window where both answer is harmless (either can
        serve the span), the window where neither would is avoided.
        """
        epoch, members, _changed = protocol.decode_membership(payload)
        if self.ring is None:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "not a fleet member")
        current = self.ring.epoch
        if epoch <= current:
            return protocol.encode_membership(
                current, self._member_list(), shard=self.shard_id)
        new_ids = [shard for shard, _address in members]
        if self.shard_id not in new_ids and not leaving:
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "member table omits this shard")
        new_ring = HashRing(new_ids, replicas=self.config.ring_replicas,
                            epoch=epoch)
        handed_off = await self._handoff_hot_set(new_ring, members)
        # The departing shard keeps the survivors' address table so its
        # post-flip redirects still resolve to real hosts.
        self._members = OrderedDict(
            (int(shard), str(address)) for shard, address in members)
        self.config.fleet = tuple(self._members.values())
        self.ring = new_ring
        self._replicated.clear()
        self._sent_images.clear()
        for shard in list(self._peer_clients):
            if shard not in self._members:
                client = self._peer_clients.pop(shard)
                try:
                    await client.close()
                except Exception:
                    self.metrics.record_swallowed("peer_close_reshard")
        self.metrics.record_reshard(epoch)
        self._membership_state["reshards"] += 1
        return protocol.encode_json_payload({
            "epoch": epoch,
            "shard": self.shard_id,
            "members": [[shard, address]
                        for shard, address in members],
            "handoff_groups": handed_off,
        })

    async def _handoff_hot_set(self, new_ring, members):
        """Stream hot-set entries this shard is about to stop owning to
        their new owners (snapshot-format walk, replicate mode 1)."""
        if self.ring is None:
            return 0
        member_ids = {int(shard) for shard, _address in members}

        def route(digest, group):
            anchor = self._span_anchors.get((digest, group), group)
            key = routing_key(digest, anchor)
            if self.ring.owner(key) != self.shard_id:
                return None  # not ours to hand off
            new_owner = new_ring.owner(key)
            if new_owner == self.shard_id \
                    or new_owner not in member_ids:
                return None
            return new_owner

        buckets = snapshot_format.collect_handoff(self.registry,
                                                  self.cache, route)
        # Address book for targets not yet in self._members (a joiner).
        addresses = dict(self._members or {})
        addresses.update({int(shard): str(address)
                          for shard, address in members})
        handed_off = 0
        for target, bucket in buckets.items():
            groups_by_digest = {}
            for digest, group, words in bucket["groups"]:
                groups_by_digest.setdefault(digest, []).append(
                    (group, words))
            for digest, entries in groups_by_digest.items():
                image_bytes = bucket["images"].get(digest)
                for start in range(0, len(entries),
                                   _HANDOFF_CHUNK_GROUPS):
                    chunk = entries[start:start + _HANDOFF_CHUNK_GROUPS]
                    try:
                        client = await self._membership_client(
                            target, addresses)
                        frame = await client.request(
                            protocol.REQ_REPLICATE,
                            protocol.encode_replicate_request(
                                digest, chunk,
                                mode=protocol.REPLICATE_HANDOFF,
                                image_bytes=image_bytes),
                            timeout=self.config.peer_timeout)
                        accepted, _registered = \
                            protocol.decode_replicate_response(
                                frame.payload)
                    except Exception:
                        self.metrics.record_swallowed("handoff_push")
                        self._peer_clients.pop(target, None)
                        break  # unreachable target: new owner decodes
                    image_bytes = None  # riders go once per digest
                    handed_off += accepted
        if handed_off:
            self.metrics.record_handoff(handed_off, outbound=True)
            self._membership_state["handoff_out"] += handed_off
        return handed_off

    async def _membership_client(self, shard, addresses):
        """Like :meth:`_peer_client` but resolves through a reshard's
        merged address book (the target may be the not-yet-listed
        joiner)."""
        from repro.serve.client import ServeClient

        client = self._peer_clients.get(shard)
        if client is not None:
            return client
        address = addresses.get(shard)
        if address is None:
            raise ProtocolError(protocol.ERR_NOT_FOUND,
                                "unknown fleet shard %d" % shard)
        host, _, port = address.rpartition(":")
        client = ServeClient(host or "127.0.0.1", int(port))
        await client.connect()
        return await self._adopt_peer_client(shard, client)

    # -- writing -------------------------------------------------------------

    async def _send(self, conn, ftype, request_id, payload):
        frame = protocol.encode_frame(ftype, request_id, payload,
                                      max_frame=self.config.max_frame)
        async with conn.write_lock:
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # The client went away; its response is undeliverable.
                self.metrics.record_swallowed("send_undeliverable")

    async def _send_error(self, conn, request_id, error):
        await self._send(conn, protocol.RESP_ERROR, request_id,
                         protocol.encode_error(error.code, error.message))
