"""Set-associative LRU caches.

Timing is *not* modelled here -- caches only track contents and
hit/miss statistics.  The fetch unit and the load/store path translate
misses into cycles using :class:`~repro.sim.config.MemoryConfig`.
"""

from dataclasses import dataclass


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self):
        return self.accesses - self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement.

    Addresses are byte addresses; geometry comes from
    :class:`~repro.sim.config.CacheConfig`.  Each set is an
    insertion-ordered dict of tags; moving a tag to the end on hit gives
    LRU in O(1).
    """

    __slots__ = ("config", "line_bytes", "n_sets", "assoc", "stats",
                 "_sets")

    def __init__(self, config):
        self.config = config
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(self.n_sets)]

    def line_addr(self, addr):
        """Line-granular address (byte address floor-divided by line size)."""
        return addr // self.line_bytes

    def access(self, addr):
        """Look up the line containing *addr*, filling it on a miss.

        Returns ``True`` on hit.  Stats are updated.
        """
        line = addr // self.line_bytes
        set_index = line % self.n_sets
        tag = line // self.n_sets
        cache_set = self._sets[set_index]
        self.stats.accesses += 1
        if tag in cache_set:
            # LRU touch: move to the most-recent end.
            del cache_set[tag]
            cache_set[tag] = True
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[tag] = True
        return False

    def access_line(self, line):
        """Like :meth:`access` but on a line-granular address.

        The trace profile builder
        (:func:`repro.sim.replay.build_profile`) already tracks line
        numbers, so it skips the byte-address division.
        """
        set_index = line % self.n_sets
        tag = line // self.n_sets
        cache_set = self._sets[set_index]
        self.stats.accesses += 1
        if tag in cache_set:
            del cache_set[tag]
            cache_set[tag] = True
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[tag] = True
        return False

    def probe(self, addr):
        """Check residency without updating LRU state or statistics."""
        line = addr // self.line_bytes
        return (line // self.n_sets) in self._sets[line % self.n_sets]

    def invalidate_all(self):
        """Empty the cache (used by tests)."""
        for cache_set in self._sets:
            cache_set.clear()
