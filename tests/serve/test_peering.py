"""Tier-2 cooperative cache tests: replication, peer-fetch, handoff.

:class:`LocalFleet` runs every worker in the test's own event loop, so
these tests can clear a worker's primary cache mid-run and watch the
peer-fetch path heal it from the ring successor's replica tier -- and
reach into :class:`ReplicaCache` directly to pin the byte budget.
"""

import asyncio
import contextlib

import pytest

from repro.codepack.compressor import compress_words
from repro.codepack.decompressor import decompress_program
from repro.serve.batcher import ReplicaCache
from repro.serve.client import FleetClient, Redirected, ServeClient
from repro.serve.fleet import LocalFleet
from repro.serve.ring import routing_key
from repro.serve.server import ServerConfig

from tests.conftest import random_word_program

PROGRAM = random_word_program(47, size=400, kind="workload")
IMAGE = compress_words(PROGRAM.text, name=PROGRAM.name)
EXPECTED_WORDS = decompress_program(IMAGE)
PER_GROUP = IMAGE.block_instructions * IMAGE.group_blocks


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def local_fleet(n_workers, **overrides):
    overrides.setdefault("replicate_interval", 0.01)
    overrides.setdefault("batch_window", 0.001)
    fleet = LocalFleet(n_workers=n_workers,
                       config=ServerConfig(**overrides))
    await fleet.start()
    try:
        yield fleet
    finally:
        await fleet.stop()


def span_words(start, count):
    return tuple(EXPECTED_WORDS[start * PER_GROUP:
                                (start + count) * PER_GROUP])


async def warm_fleet(client, starts, count=2):
    """Register the image and decode every span in *starts*."""
    digest, blob = await client.compress(PROGRAM.text, name=PROGRAM.name,
                                         timeout=30.0)
    await client.broadcast_register(image_bytes=blob)
    for start in starts:
        words = await client.decompress(digest=digest, group_start=start,
                                        group_count=count, timeout=30.0)
        assert tuple(words) == span_words(start, count)
    return digest


async def settle(fleet, predicate, timeout=5.0):
    """Poll until *predicate()* holds (the pump is write-behind)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.02)
    return True


class TestReplicationPump:
    def test_pump_pushes_hot_groups_to_ring_successor(self):
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    assert await settle(
                        fleet, lambda: sum(
                            len(s.replicas) for s in fleet.servers) > 0)
                    # Every replicated group sits on exactly the shard
                    # the ring names as its owner's successor.
                    found = 0
                    for start in starts:
                        owner = client.shard_for(digest, start)
                        successor = client.ring.successor(
                            routing_key(digest, start))
                        copy = fleet.server(successor).replicas.peek(
                            (digest, start))
                        if copy is not None:
                            found += 1
                            assert tuple(copy)[:PER_GROUP] \
                                == span_words(start, 1)
                        for shard in fleet.members:
                            if shard in (owner, successor):
                                continue
                            assert fleet.server(shard).replicas.peek(
                                (digest, start)) is None
                    assert found > 0
                    out = sum(s.metrics.replicated_out_groups
                              for s in fleet.servers)
                    accepted = sum(s.metrics.replicated_in_groups
                                   for s in fleet.servers)
                    assert out > 0 and accepted > 0

        run(main())

    def test_replicas_never_pollute_the_primary_cache(self):
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    await settle(fleet, lambda: sum(
                        len(s.replicas) for s in fleet.servers) > 0)
                    # Tier-2 storage is strictly separate: a non-owner
                    # holds replicated groups only in `replicas`, its
                    # primary cache stays empty of them (group 0 is
                    # exempt -- broadcast_register seeds it everywhere).
                    for start in starts:
                        if start == 0:
                            continue
                        owner = client.shard_for(digest, start)
                        for shard in fleet.members:
                            if shard != owner:
                                assert fleet.server(shard).cache.get(
                                    (digest, start)) is None

        run(main())


class TestSwallowedReplication:
    def test_push_to_a_stopped_peer_is_counted(self):
        """The pump stays fail-open when its successor is gone, and the
        dropped push shows up as a named counter, not an error frame."""
        async def main():
            async with local_fleet(2, replicate_interval=0) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(2, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    owner = client.shard_for(digest, starts[0])
                peer = client.ring.successor(routing_key(digest, starts[0]))
                await fleet.server(peer).shutdown()
                server = fleet.server(owner)
                pushed = await server._replicate_once()
                return pushed, server.metrics.snapshot()

        pushed, snap = run(main())
        assert pushed == 0
        assert snap["swallowed"]["replicate_push"] >= 1
        assert snap["errors"] == {}


class TestPeerFetch:
    def test_cold_owner_heals_from_successor_byte_identical(self):
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    victim_start = starts[1]
                    owner = client.shard_for(digest, victim_start)
                    successor = client.ring.successor(
                        routing_key(digest, victim_start))
                    assert await settle(
                        fleet, lambda: fleet.server(successor)
                        .replicas.peek((digest, victim_start))
                        is not None)
                    server = fleet.server(owner)
                    server.cache.clear()  # evict the whole hot set
                    hits_before = server.metrics.peer_fetch_hits
                    served_before = fleet.server(
                        successor).metrics.peer_served_groups
                    words = await client.decompress(
                        digest=digest, group_start=victim_start,
                        group_count=2, timeout=30.0)
                    assert tuple(words) == span_words(victim_start, 2)
                    assert server.metrics.peer_fetch_hits > hits_before
                    assert fleet.server(successor) \
                        .metrics.peer_served_groups > served_before
                    # The healed groups are back in the owner's primary
                    # cache -- the next request is a plain cache hit.
                    assert server.cache.peek(
                        (digest, victim_start)) is not None

        run(main())

    def test_peer_fetch_miss_falls_back_to_decode(self):
        async def main():
            # Budget 0 disables the tier entirely: nothing replicates,
            # every fetch misses, yet a cleared owner still serves
            # correct words by decoding.
            async with local_fleet(3, replica_budget=0) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    await asyncio.sleep(0.1)
                    assert sum(len(s.replicas)
                               for s in fleet.servers) == 0
                    victim_start = starts[1]
                    owner = client.shard_for(digest, victim_start)
                    fleet.server(owner).cache.clear()
                    words = await client.decompress(
                        digest=digest, group_start=victim_start,
                        group_count=2, timeout=30.0)
                    assert tuple(words) == span_words(victim_start, 2)
                    assert fleet.server(owner) \
                        .metrics.peer_fetch_hits == 0

        run(main())


class TestReplicaCacheBudget:
    def test_byte_budget_is_a_hard_ceiling(self):
        cache = ReplicaCache(max_bytes=400)  # room for 100 words total
        for group in range(20):
            cache.put(("d", group), tuple(range(10)))  # 40 bytes each
        assert cache.bytes <= 400
        assert len(cache) == 10
        assert cache.evictions == 10
        # LRU: the newest entries survived.
        assert cache.peek(("d", 19)) is not None
        assert cache.peek(("d", 0)) is None

    def test_oversized_entry_refused_not_thrashed(self):
        cache = ReplicaCache(max_bytes=40)
        cache.put(("d", 0), (1, 2))
        assert not cache.put(("d", 1), tuple(range(100)))
        assert cache.peek(("d", 0)) is not None  # nothing was evicted

    def test_replace_reuses_budget(self):
        cache = ReplicaCache(max_bytes=100)
        cache.put(("d", 0), tuple(range(20)))
        cache.put(("d", 0), tuple(range(5)))
        assert cache.bytes == 20
        assert len(cache) == 1

    def test_zero_budget_disables(self):
        cache = ReplicaCache(max_bytes=0)
        assert not cache.put(("d", 0), (1,))
        assert len(cache) == 0


class TestJoinHandoff:
    def test_join_warms_the_new_owner_before_ownership_flips(self):
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    # Step-1 single-group spans: enough distinct keys
                    # that the joiner always claims a few, and no span
                    # overlap to muddy which owner cached which group.
                    starts = list(range(0, IMAGE.n_groups - 1))
                    digest = await warm_fleet(client, starts, count=1)
                    old_ring = client.ring
                    new_id, joiner = await fleet.join()
                    await client.refresh_topology()
                    assert client.epoch == 1
                    moved = [s for s in starts
                             if client.shard_for(digest, s) == new_id
                             and old_ring.owner(routing_key(digest, s))
                             != new_id]
                    assert moved, "join must claim some keys"
                    # The handoff streamed the moved hot set into the
                    # joiner's *primary* cache before ownership flipped:
                    # >= 90% of the moved spans are already warm.
                    warm = sum(1 for s in moved
                               if joiner.cache.peek((digest, s))
                               is not None)
                    assert warm / len(moved) >= 0.9
                    assert joiner.metrics.handoff_in_groups > 0
                    assert sum(s.metrics.handoff_out_groups
                               for s in fleet.servers
                               if s is not joiner) > 0
                    # And the fleet serves every span correctly after.
                    for start in starts:
                        words = await client.decompress(
                            digest=digest, group_start=start,
                            group_count=1, timeout=30.0)
                        assert tuple(words) == span_words(start, 1)

        run(main())

    def test_leave_hands_the_hot_set_to_survivors(self):
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    victim = client.shard_for(digest, starts[1])
                    owned = [s for s in starts
                             if client.shard_for(digest, s) == victim]
                    await fleet.leave(victim)
                    await client.refresh_topology()
                    assert client.epoch == 1
                    assert victim not in client.shards
                    warm = sum(
                        1 for s in owned
                        if fleet.server(client.shard_for(digest, s))
                        .cache.peek((digest, s)) is not None)
                    assert warm / len(owned) >= 0.9
                    for start in starts:
                        words = await client.decompress(
                            digest=digest, group_start=start,
                            group_count=2, timeout=30.0)
                        assert tuple(words) == span_words(start, 2)

        run(main())


class TestV2Compatibility:
    def test_legacy_request_gets_legacy_redirect(self):
        """A v2 client (no epoch stamp) against a v3 fleet sees the v2
        redirect layout byte-for-byte -- `Redirected.epoch` is None --
        while an epoch-stamped request learns the server's epoch."""
        async def main():
            async with local_fleet(3) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                start = starts[1]
                owner = fleet.servers[0].ring.owner(
                    routing_key(digest, start))
                wrong = next(s for s in fleet.members if s != owner)
                raw = ServeClient(port=fleet.server(wrong).port)
                await raw.connect()
                try:
                    with pytest.raises(Redirected) as legacy:
                        await raw.decompress(digest=digest,
                                             group_start=start,
                                             group_count=2, timeout=30.0)
                    assert legacy.value.shard_id == owner
                    assert legacy.value.epoch is None
                    with pytest.raises(Redirected) as stamped:
                        await raw.decompress(digest=digest,
                                             group_start=start,
                                             group_count=2, timeout=30.0,
                                             epoch=0)
                    assert stamped.value.shard_id == owner
                    assert stamped.value.epoch == 0
                finally:
                    await raw.close()

        run(main())

    def test_legacy_client_still_served_after_a_reshard(self):
        """v2 clients keep working across a join: they never learn the
        epoch, but redirect-following alone reaches the new owner."""
        async def main():
            async with local_fleet(2) as fleet:
                async with FleetClient(fleet.addresses) as client:
                    starts = list(range(0, IMAGE.n_groups - 2, 2))
                    digest = await warm_fleet(client, starts)
                    await fleet.join()
                for start in starts:
                    raw = ServeClient(port=fleet.server(0).port)
                    await raw.connect()
                    try:
                        try:
                            words = await raw.decompress(
                                digest=digest, group_start=start,
                                group_count=2, timeout=30.0)
                        except Redirected as redirect:
                            assert redirect.epoch is None
                            hop = ServeClient(host=redirect.host,
                                              port=redirect.port)
                            await hop.connect()
                            try:
                                words = await hop.decompress(
                                    digest=digest, group_start=start,
                                    group_count=2, timeout=30.0)
                            finally:
                                await hop.close()
                        assert tuple(words) == span_words(start, 2)
                    finally:
                        await raw.close()

        run(main())


class TestDialRace:
    """Concurrent first dials to the same peer must converge on one
    connection -- the loser of the check-then-connect race closes its
    socket instead of orphaning a read-loop task past shutdown."""

    def test_server_peer_dials_converge(self):
        async def main():
            async with local_fleet(2) as fleet:
                dialer = fleet.servers[0]
                peer = fleet.servers[1].shard_id
                clients = await asyncio.gather(
                    *[dialer._peer_client(peer) for _ in range(8)])
                assert all(c is clients[0] for c in clients)
                assert len(dialer._peer_clients) == 1
                # The survivors' read loop is alive; everyone else's
                # socket was closed, so shutdown leaks nothing.
                task = clients[0]._reader_task
                assert task is not None and not task.done()

        run(main())

    def test_fleet_client_dials_converge(self):
        async def main():
            async with local_fleet(2) as fleet:
                client = FleetClient(fleet.addresses)
                try:
                    shard = client.shards[0]
                    dialed = await asyncio.gather(
                        *[client._client(shard) for _ in range(8)])
                    assert all(c is dialed[0] for c in dialed)
                    assert len(client._clients) == 1
                finally:
                    await client.close()

        run(main())
