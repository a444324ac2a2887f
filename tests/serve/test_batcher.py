"""Batcher tests: group cache LRU behaviour, coalescing, windowing."""

import asyncio
import time

import pytest

from repro.codepack.compressor import compress_words
from repro.serve import batcher as batcher_mod
from repro.serve.batcher import (
    GroupCache,
    ImageRegistry,
    MicroBatcher,
    decode_group,
    image_digest,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    ProtocolError,
)

from tests.conftest import random_word_program


@pytest.fixture(scope="module")
def image():
    program = random_word_program(7, size=400, kind="workload")
    return compress_words(program.text, name=program.name)


@pytest.fixture(scope="module")
def digest(image):
    return image_digest(image)


def run(coro):
    return asyncio.run(coro)


class TestDecodeGroup:
    def test_groups_concatenate_to_program(self, image):
        words = []
        for group in range(image.n_groups):
            words.extend(decode_group(image, group))
        from repro.codepack.decompressor import decompress_program
        assert words == decompress_program(image)

    def test_tail_group_short(self, image):
        tail = decode_group(image, image.n_groups - 1)
        per_group = image.block_instructions * image.group_blocks
        expected = image.n_instructions - (image.n_groups - 1) * per_group
        assert len(tail) == expected


class TestGroupCache:
    def test_lru_eviction_order(self):
        cache = GroupCache(max_entries=2)
        cache.put(("a", 0), [1])
        cache.put(("a", 1), [2])
        assert cache.get(("a", 0)) == (1,)  # refresh key 0
        cache.put(("a", 2), [3])            # evicts key 1
        assert cache.get(("a", 1)) is None
        assert cache.get(("a", 0)) == (1,)
        assert cache.evictions == 1

    def test_disabled_cache_counts_misses(self):
        cache = GroupCache(max_entries=0)
        cache.put(("a", 0), [1])
        assert cache.get(("a", 0)) is None
        assert len(cache) == 0
        assert cache.misses == 1
        assert cache.hit_rate() == 0.0

    def test_hit_rate(self):
        cache = GroupCache(max_entries=8)
        cache.put(("a", 0), [1])
        cache.get(("a", 0))
        cache.get(("a", 1))
        assert cache.hit_rate() == pytest.approx(0.5)


class TestImageRegistry:
    def test_register_and_get(self, image, digest):
        registry = ImageRegistry()
        registry.register(digest, image)
        assert registry.get(digest) is image

    def test_unknown_digest_typed_error(self):
        registry = ImageRegistry()
        with pytest.raises(ProtocolError) as excinfo:
            registry.get(b"\x00" * 32)
        assert excinfo.value.code == ERR_NOT_FOUND

    def test_lru_bound(self, image):
        registry = ImageRegistry(max_images=2)
        for tag in (b"a", b"b", b"c"):
            registry.register(tag * 32, image)
        assert len(registry) == 2
        assert b"a" * 32 not in registry
        assert b"c" * 32 in registry


def make_batcher(image, digest, window, cache_entries=64, metrics=None,
                 **kwargs):
    registry = ImageRegistry()
    registry.register(digest, image)
    return MicroBatcher(registry, GroupCache(max_entries=cache_entries),
                        window=window, metrics=metrics, **kwargs)


class TestMicroBatcher:
    def test_span_decodes_correctly_batched(self, image, digest):
        async def main():
            batcher = make_batcher(image, digest, window=0.001).start()
            try:
                words = await batcher.decode_span(digest, 0, 0)
            finally:
                await batcher.stop()
            return words

        from repro.codepack.decompressor import decompress_program
        assert run(main()) == decompress_program(image)

    def test_span_decodes_correctly_unbatched(self, image, digest):
        async def main():
            batcher = make_batcher(image, digest, window=0).start()
            words = await batcher.decode_span(digest, 1, 3)
            await batcher.stop()
            return words

        per_group = image.block_instructions * image.group_blocks
        from repro.codepack.decompressor import decompress_program
        expected = decompress_program(image)[per_group:4 * per_group]
        assert run(main()) == expected

    def test_concurrent_duplicates_decode_once(self, image, digest,
                                               monkeypatch):
        """Ten concurrent requests for one group: one decode call."""
        calls = []
        real = batcher_mod.decode_groups_batch

        def counting(requests):
            requests = list(requests)
            calls.extend(group for _image, group in requests)
            return real(requests)

        monkeypatch.setattr(batcher_mod, "decode_groups_batch", counting)
        metrics = MetricsRegistry()

        async def main():
            batcher = make_batcher(image, digest, window=0.005,
                                   metrics=metrics).start()
            try:
                results = await asyncio.gather(
                    *[batcher.decode_span(digest, 2, 1)
                      for _ in range(10)])
            finally:
                await batcher.stop()
            return results

        results = run(main())
        assert len(set(map(tuple, results))) == 1
        assert calls.count(2) == 1
        # All ten waiters were served by a single pool batch.
        assert metrics.batches == 1
        assert metrics.batched_requests == 10
        assert metrics.batched_groups == 1

    def test_cache_serves_repeats_without_decoding(self, image, digest,
                                                  monkeypatch):
        calls = []
        real = batcher_mod.decode_groups_batch

        def counting(requests):
            requests = list(requests)
            calls.extend(group for _image, group in requests)
            return real(requests)

        monkeypatch.setattr(batcher_mod, "decode_groups_batch", counting)

        async def main():
            batcher = make_batcher(image, digest, window=0.001).start()
            try:
                first = await batcher.decode_span(digest, 0, 2)
                second = await batcher.decode_span(digest, 0, 2)
            finally:
                await batcher.stop()
            assert first == second
            return batcher.cache

        cache = run(main())
        assert calls == [0, 1]  # decoded exactly once despite two spans
        assert cache.hits == 2
        assert cache.misses == 2

    def test_bad_span_typed_error(self, image, digest):
        async def main():
            batcher = make_batcher(image, digest, window=0).start()
            try:
                with pytest.raises(ProtocolError) as excinfo:
                    await batcher.decode_span(digest, image.n_groups, 5)
                assert excinfo.value.code == ERR_BAD_REQUEST
            finally:
                await batcher.stop()

        run(main())

    def test_stop_drains_queued_work(self, image, digest):
        async def main():
            batcher = make_batcher(image, digest, window=0.02).start()
            task = asyncio.get_running_loop().create_task(
                batcher.decode_span(digest, 0, 4))
            await asyncio.sleep(0)  # let the span enqueue
            await batcher.stop(drain=True)
            return await task

        words = run(main())
        per_group = image.block_instructions * image.group_blocks
        assert len(words) == 4 * per_group


class TestLoneRequests:
    """Given its owner's count of requests in flight, the window waits
    for co-riders that exist: a lone call goes to the pool at once,
    concurrent calls still share one batch."""

    #: Long enough that a call which waited it out cannot pass.
    WINDOW = 0.5

    def _batcher(self, image, digest, metrics, active):
        """A batcher whose owner has ``active[0]`` requests in flight."""
        return make_batcher(image, digest, window=self.WINDOW,
                            metrics=metrics,
                            in_flight=lambda: active[0]).start()

    def test_lone_span_skips_the_window(self, image, digest):
        metrics = MetricsRegistry()

        async def main():
            batcher = self._batcher(image, digest, metrics, [1])
            try:
                began = time.perf_counter()
                words = await batcher.decode_span(digest, 1, 2)
                return words, time.perf_counter() - began
            finally:
                await batcher.stop()

        words, elapsed = run(main())
        per_group = image.block_instructions * image.group_blocks
        from repro.codepack.decompressor import decompress_program
        assert words == decompress_program(image)[per_group:3 * per_group]
        assert elapsed < self.WINDOW / 2
        assert metrics.batches == 1
        assert metrics.batched_groups == 2

    def test_lone_compress_skips_the_window(self, image, digest):
        program = random_word_program(8, size=300, kind="workload")
        metrics = MetricsRegistry()

        async def main():
            batcher = self._batcher(image, digest, metrics, [1])
            try:
                began = time.perf_counter()
                compressed = await batcher.compress(program.text,
                                                    name=program.name)
                return compressed, time.perf_counter() - began
            finally:
                await batcher.stop()

        compressed, elapsed = run(main())
        assert image_digest(compressed) == image_digest(
            compress_words(program.text, name=program.name))
        assert elapsed < self.WINDOW / 2
        assert metrics.compress_batches == 1

    def test_concurrent_spans_share_one_batch(self, image, digest):
        metrics = MetricsRegistry()

        async def main():
            batcher = self._batcher(image, digest, metrics, [10])
            try:
                began = time.perf_counter()
                results = await asyncio.gather(
                    *[batcher.decode_span(digest, group, 1)
                      for group in range(10)])
                return results, time.perf_counter() - began
            finally:
                await batcher.stop()

        results, elapsed = run(main())
        per_group = image.block_instructions * image.group_blocks
        from repro.codepack.decompressor import decompress_program
        words = decompress_program(image)
        for group, got in enumerate(results):
            assert got == words[group * per_group:(group + 1) * per_group]
        # Co-riders existed, so the window opened and merged them all.
        assert elapsed >= 0.9 * self.WINDOW
        assert metrics.batches == 1
        assert metrics.batched_requests == 10
        assert metrics.batched_groups == 10

    def test_co_rider_not_yet_in_the_batcher_still_rides(self, image,
                                                          digest):
        """The owner counts a request before it reaches the batcher
        (still being read or parsed), so the first miss waits for it."""
        metrics = MetricsRegistry()

        async def main():
            batcher = self._batcher(image, digest, metrics, [2])
            try:
                first = asyncio.ensure_future(
                    batcher.decode_span(digest, 0, 1))
                await asyncio.sleep(self.WINDOW / 5)
                second = await batcher.decode_span(digest, 1, 1)
                return await first, second
            finally:
                await batcher.stop()

        first, second = run(main())
        per_group = image.block_instructions * image.group_blocks
        from repro.codepack.decompressor import decompress_program
        words = decompress_program(image)
        assert first == words[:per_group]
        assert second == words[per_group:2 * per_group]
        assert metrics.batches == 1
        assert metrics.batched_requests == 2

    def test_without_a_count_every_window_opens(self, image, digest):
        metrics = MetricsRegistry()

        async def main():
            batcher = make_batcher(image, digest, window=self.WINDOW,
                                   metrics=metrics).start()
            try:
                began = time.perf_counter()
                await batcher.decode_span(digest, 1, 2)
                return time.perf_counter() - began
            finally:
                await batcher.stop()

        assert run(main()) >= 0.9 * self.WINDOW
        assert metrics.batches == 1
