"""Micro-batching decode scheduler, image registry and group cache.

The unit of decode work is the **compression group** (the paper's
2-block, 32-instruction index-table granule).  Every decompress request
names a span of groups of a registered image; the scheduler turns
concurrent requests into few pool calls three ways:

* **LRU group cache** -- decoded groups are cached under
  ``(image digest, group index)``.  Hot code (the whole point of a
  compressed-code service) is served straight from the cache.
* **Coalescing** -- concurrent requests needing the same group share a
  single decode future; the group is decoded once per batch no matter
  how many requests wait on it.
* **Micro-batching** -- groups that miss the cache queue up for a
  configurable *window*; everything queued when the window closes is
  decoded in one executor call, so the event loop pays one
  thread-handoff per batch rather than per group.  Given its owner's
  count of requests in flight, the window only opens while there is
  more than one: a lone request has no co-riders to wait for, so it
  goes to the pool at once.

``window=0`` disables the scheduler entirely: spans are decoded
synchronously per request (still through the executor so the event
loop never blocks).  That is the baseline the load generator's
batched-vs-unbatched contract measures against.
"""

import asyncio
import hashlib
from collections import OrderedDict

from repro.codepack.batch import compress_many, decode_groups_batch
from repro.codepack.decompressor import decompress_block
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    ERR_SHUTTING_DOWN,
    ProtocolError,
)
from repro.tools.container import dump_image

__all__ = ["GroupCache", "ImageRegistry", "MicroBatcher", "ReplicaCache",
           "decode_group", "image_digest"]


def image_digest(image):
    """Canonical identity of an image: SHA-256 of its container bytes.

    The container serialization is deterministic, so two images with
    identical dictionaries, code and geometry share a digest and
    therefore share cached decoded groups.
    """
    return hashlib.sha256(dump_image(image)).digest()


def decode_group(image, group_index):
    """Decode one compression group (``group_blocks`` blocks) to words."""
    first = group_index * image.group_blocks
    last = min(first + image.group_blocks, image.n_blocks)
    words = []
    for block in range(first, last):
        words.extend(decompress_block(image, block))
    return words


class GroupCache:
    """LRU cache of decoded groups keyed by ``(digest, group index)``.

    ``max_entries=0`` disables caching (every lookup is a miss and
    stores are dropped); the hit/miss counters keep working so the
    metrics stay meaningful either way.
    """

    def __init__(self, max_entries=4096):
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        words = self._entries.get(key)
        if words is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return words

    def put(self, key, words):
        if self.max_entries <= 0:
            return
        self._entries[key] = tuple(words)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def peek(self, key):
        """Look up without perturbing LRU order or hit/miss counters.

        The peer-serve path uses this: a neighbour asking "do you hold
        this group" must not promote the entry (the neighbour's
        interest says nothing about local heat) nor skew the local
        hit-rate metrics.
        """
        return self._entries.get(key)

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self):
        """Drop every entry (counters survive -- they are lifetime)."""
        self._entries.clear()

    def items(self):
        """``((digest, group), words)`` pairs, coldest first.

        The LRU keeps least-recently-used entries at the front, so the
        snapshot layer can replay this order verbatim to reproduce the
        ranking in a restored cache.
        """
        return list(self._entries.items())

    def counters(self):
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "hit_rate": self.hit_rate()}


class ReplicaCache:
    """Byte-budgeted LRU of decoded groups replicated *to* this shard.

    The second cache tier: ring predecessors push their warmest decoded
    groups here (write-behind), so when they evict -- or die -- the
    group is one peer round-trip away instead of one kernel decode.
    Budgeted in bytes (4 per instruction word) rather than entries
    because replicated spans arrive in bulk and group sizes vary; a
    fixed byte budget keeps replica pressure from squeezing the primary
    cache's memory headroom.
    """

    def __init__(self, max_bytes=8 * 1024 * 1024):
        self.max_bytes = max_bytes
        self._entries = OrderedDict()
        self.bytes = 0
        self.stores = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def _cost(words):
        return 4 * len(words)

    def get(self, key):
        words = self._entries.get(key)
        if words is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return words

    def peek(self, key):
        return self._entries.get(key)

    def put(self, key, words):
        if self.max_bytes <= 0:
            return False
        words = tuple(words)
        cost = self._cost(words)
        if cost > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= self._cost(old)
        self._entries[key] = words
        self.bytes += cost
        self.stores += 1
        while self.bytes > self.max_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self.bytes -= self._cost(evicted)
            self.evictions += 1
        return True

    def discard(self, key):
        words = self._entries.pop(key, None)
        if words is not None:
            self.bytes -= self._cost(words)

    def clear(self):
        self._entries.clear()
        self.bytes = 0

    def counters(self):
        return {"entries": len(self._entries), "bytes": self.bytes,
                "stores": self.stores, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


class ImageRegistry:
    """LRU registry of compressed images by digest.

    Bounded so a client uploading images forever cannot grow server
    memory without limit; evicted images simply need re-registering
    (their cached groups stay valid -- the digest pins the content).
    """

    def __init__(self, max_images=64):
        self.max_images = max_images
        self._images = OrderedDict()

    def __len__(self):
        return len(self._images)

    def __contains__(self, digest):
        return digest in self._images

    def register(self, digest, image):
        self._images[digest] = image
        self._images.move_to_end(digest)
        while len(self._images) > self.max_images:
            self._images.popitem(last=False)
        return digest

    def get(self, digest):
        image = self._images.get(digest)
        if image is None:
            raise ProtocolError(ERR_NOT_FOUND,
                                "unknown image digest %s"
                                % digest.hex()[:16])
        self._images.move_to_end(digest)
        return image

    def digests(self):
        return list(self._images)


class _CompressJob:
    """Program-shaped holder so batched compress frames keep their
    name and text base through :func:`compress_many`."""

    __slots__ = ("text", "text_base", "name")

    def __init__(self, text, text_base, name):
        self.text = text
        self.text_base = text_base
        self.name = name


class MicroBatcher:
    """Coalesce concurrent group decodes -- and, since the fleet
    refactor, concurrent ``compress`` frames -- into windowed pool
    calls.

    Compress coalescing mirrors decode coalescing: frames arriving
    within one batching window become a single
    :func:`~repro.codepack.batch.compress_many` call, which is one
    fused vectorized encode pass over the concatenated programs when
    the batch shares dictionaries (*high_dict*/*low_dict* pinned, the
    PR 6 shared-dictionary kernel) and one kernel invocation per
    program otherwise.  Every fleet worker runs its own batcher, so the
    fused path engages per worker, not just in a single-process server.
    """

    def __init__(self, registry, cache, window=0.002, max_batch=128,
                 executor=None, metrics=None, high_dict=None,
                 low_dict=None, peer_fetch=None, in_flight=None):
        self.registry = registry
        self.cache = cache
        self.window = window
        self.max_batch = max_batch
        self.executor = executor
        self.metrics = metrics
        self.high_dict = high_dict
        self.low_dict = low_dict
        #: Optional async tier-2 hook ``(digest, groups) -> {group:
        #: words}``.  Called on local cache misses *before* decode;
        #: whatever it cannot produce falls through to the decode path,
        #: so the hook can never make a request fail -- only faster.
        self.peer_fetch = peer_fetch
        #: Optional ``() -> int``: the requests the owner has in flight,
        #: counting those not yet in the batcher (still being admitted
        #: or parsed, or waiting on a peer).  A window opens only when
        #: it is above one; without it every window opens, since the
        #: batcher alone cannot see a co-rider before it arrives.
        self.in_flight = in_flight
        self._pending = {}  # (digest, group) -> [future, image, waiters]
        self._queue = asyncio.Queue()
        self._task = None
        self._compress_queue = asyncio.Queue()  # [future, words, base, name]
        self._compress_task = None
        self._compress_inflight = 0
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        if self._task is None and self.window > 0:
            loop = asyncio.get_running_loop()
            self._task = loop.create_task(self._run())
            self._compress_task = loop.create_task(self._run_compress())
        return self

    async def stop(self, drain=True):
        """Stop the scheduler; with *drain*, finish queued work first."""
        self._closing = True
        if drain:
            while self._pending or not self._queue.empty() \
                    or self._compress_inflight \
                    or not self._compress_queue.empty():
                await asyncio.sleep(0.005)
        for task in (self._task, self._compress_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._task = None
        self._compress_task = None
        for future, _image, _waiters in self._pending.values():
            if not future.done():
                future.set_exception(ProtocolError(
                    ERR_SHUTTING_DOWN, "batcher stopped"))
                future.exception()  # mark retrieved; waiters may be gone
        self._pending.clear()
        while not self._compress_queue.empty():
            entry = self._compress_queue.get_nowait()
            if not entry[0].done():
                entry[0].set_exception(ProtocolError(
                    ERR_SHUTTING_DOWN, "batcher stopped"))
                entry[0].exception()

    def depth(self):
        """Groups queued or mid-decode (the queue-depth gauge)."""
        return len(self._pending)

    # -- request path --------------------------------------------------------

    async def decode_span(self, digest, group_start, group_count):
        """Decode ``group_count`` groups starting at *group_start*.

        ``group_count=0`` means "through the end of the image".
        Returns the concatenated instruction words, served from the
        cache where possible; misses are coalesced and batched.
        """
        if self._closing:
            raise ProtocolError(ERR_SHUTTING_DOWN, "server is draining")
        image = self.registry.get(digest)
        n_groups = image.n_groups
        if group_count == 0:
            group_count = n_groups - group_start
        if group_start < 0 or group_count < 1 \
                or group_start + group_count > n_groups:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                "span [%d, %d) outside image's %d groups"
                % (group_start, group_start + group_count, n_groups))

        span = range(group_start, group_start + group_count)
        got = {}
        missing = []
        for group in span:
            words = self.cache.get((digest, group))
            if words is None:
                missing.append(group)
            else:
                got[group] = words

        if missing and self.peer_fetch is not None:
            fetched = await self.peer_fetch(digest, list(missing))
            if fetched:
                for group, words in fetched.items():
                    self.cache.put((digest, group), words)
                    got[group] = tuple(words)
                missing = [group for group in missing
                           if group not in fetched]

        if missing and self.window <= 0:
            # Unbatched direct path: one executor call per request.
            loop = asyncio.get_running_loop()
            decoded = await loop.run_in_executor(
                self.executor, self._decode_groups, image, missing)
            for group, words in zip(missing, decoded):
                if isinstance(words, Exception):
                    raise words
                self.cache.put((digest, group), words)
                got[group] = words
            if self.metrics is not None:
                self.metrics.record_batch(1, len(missing))
        elif missing:
            futures = [self._enqueue(digest, image, group)
                       for group in missing]
            results = await asyncio.gather(
                *[asyncio.shield(future) for future in futures])
            for group, words in zip(missing, results):
                got[group] = words

        out = []
        for group in span:
            out.extend(got[group])
        return out

    async def compress(self, words, text_base=0, name="program"):
        """Compress one program through the batching window.

        Frames queued within one window compress in a single
        :func:`~repro.codepack.batch.compress_many` call; with pinned
        shared dictionaries that is one fused encode pass for the whole
        window.  Returns the :class:`CodePackImage`.
        """
        if self._closing:
            raise ProtocolError(ERR_SHUTTING_DOWN, "server is draining")
        future = asyncio.get_running_loop().create_future()
        self._compress_queue.put_nowait([future, words, text_base, name])
        return await asyncio.shield(future)

    def _enqueue(self, digest, image, group):
        key = (digest, group)
        entry = self._pending.get(key)
        if entry is not None:
            entry[2] += 1
            return entry[0]
        future = asyncio.get_running_loop().create_future()
        self._pending[key] = [future, image, 1]
        self._queue.put_nowait(key)
        return future

    # -- batch loop ----------------------------------------------------------

    def _co_riders(self):
        """Whether a window could gather anything: more than one
        request in flight, or no count to tell."""
        return self.in_flight is None or self.in_flight() > 1

    @staticmethod
    def _decode_groups(image, groups):
        """Executor-side decode; exceptions are returned, not raised, so
        one corrupt group cannot fail a whole batch.

        All groups go through one
        :func:`~repro.codepack.batch.decode_groups_batch` call -- a
        single vectorized kernel pass when NumPy is present, the scalar
        fast path otherwise.
        """
        return decode_groups_batch([(image, group) for group in groups])

    async def _run(self):
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if self._co_riders():
                # The micro-batch window: let concurrent requests pile
                # onto the queue before paying for an executor handoff.
                await asyncio.sleep(self.window)
            keys = [first]
            while len(keys) < self.max_batch:
                try:
                    keys.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            entries = [(key, self._pending[key]) for key in keys]
            waiters = sum(entry[2] for _key, entry in entries)

            by_image = []
            for (digest, group), entry in entries:
                by_image.append((digest, group, entry[1]))

            def decode_batch(work=by_image):
                # The whole micro-batch -- across images -- is one
                # batch-decode call, so a window of requests costs one
                # vector kernel pass instead of one decode per group.
                return decode_groups_batch(
                    [(image, group) for _digest, group, image in work])

            try:
                results = await loop.run_in_executor(self.executor,
                                                     decode_batch)
            except Exception as exc:  # executor infrastructure failure
                results = [exc] * len(entries)

            for ((digest, group), entry), words in zip(entries, results):
                self._pending.pop((digest, group), None)
                future = entry[0]
                if isinstance(words, Exception):
                    if not future.done():
                        future.set_exception(words)
                        future.exception()  # silence if waiters timed out
                else:
                    self.cache.put((digest, group), words)
                    if not future.done():
                        future.set_result(words)
            if self.metrics is not None:
                self.metrics.record_batch(waiters, len(keys))

    async def _run_compress(self):
        loop = asyncio.get_running_loop()
        while True:
            first = await self._compress_queue.get()
            self._compress_inflight += 1
            if self._co_riders():
                await asyncio.sleep(self.window)
            jobs = [first]
            while len(jobs) < self.max_batch:
                try:
                    jobs.append(self._compress_queue.get_nowait())
                    self._compress_inflight += 1
                except asyncio.QueueEmpty:
                    break

            programs = [_CompressJob(words, base, name)
                        for _f, words, base, name in jobs]

            def compress_batch(work=programs):
                # One batch call per window.  Inner fan-out stays
                # sequential (the call itself already occupies a pool
                # thread; nesting onto the same pool could starve it),
                # and the vectorized tier never needs a pool anyway --
                # with shared dictionaries the whole window is one
                # fused _encode_spans pass.
                try:
                    return compress_many(work,
                                         high_dict=self.high_dict,
                                         low_dict=self.low_dict)
                except Exception:
                    # One bad program must not fail its window-mates:
                    # replay the batch one-by-one so each job gets its
                    # own result or its own typed error.
                    results = []
                    for item in work:
                        try:
                            results.append(compress_many(
                                [item], high_dict=self.high_dict,
                                low_dict=self.low_dict)[0])
                        except Exception as exc:
                            results.append(exc)
                    return results

            try:
                results = await loop.run_in_executor(self.executor,
                                                     compress_batch)
            except Exception as exc:
                results = [exc] * len(jobs)

            for job, image in zip(jobs, results):
                future = job[0]
                if isinstance(image, Exception):
                    if not future.done():
                        future.set_exception(image)
                        future.exception()
                elif not future.done():
                    future.set_result(image)
            self._compress_inflight -= len(jobs)
            if self.metrics is not None:
                self.metrics.record_compress_batch(len(jobs))
