"""The instruction-fetch path.

All the performance difference between native and compressed code lives
here (paper Figure 2): on an L1 I-cache hit both systems behave
identically, and on a miss the :class:`FetchUnit` asks its *miss path*
-- :class:`NativeMissPath` or
:class:`~repro.sim.codepack_engine.CodePackEngine` -- when each word of
the missed line becomes available.

Native code enjoys critical-word-first refill: the missed word arrives
after one main-memory access latency and the rest of the line streams
behind it at the burst rate ("This is a significant advantage for
native code programs.  Decompression must proceed in a serial manner
and cannot take advantage of the critical word first policy").
"""

from repro.isa.encoding import INSTRUCTION_BYTES


class LineFill:
    """Timing of one L1 line refill.

    ``word_times[k]`` is the cycle word *k* of the line becomes usable;
    ``critical_ready`` is the requested word's time and ``fill_done``
    the whole line's.
    """

    __slots__ = ("line_addr", "word_times", "critical_ready", "fill_done")

    def __init__(self, line_addr, word_times, critical_ready, fill_done):
        self.line_addr = line_addr
        self.word_times = word_times
        self.critical_ready = critical_ready
        self.fill_done = fill_done


class NativeMissPath:
    """Critical-word-first burst refill of native instruction lines.

    ``critical_word_first=False`` models a simpler memory controller
    that always bursts from the start of the line -- an ablation for
    the "significant advantage" the paper grants native code.

    ``prefetch_next=True`` adds a next-line prefetcher: every miss also
    streams the following line into a one-line buffer, and a miss that
    hits the buffer is served without a memory access.  This gives
    native code the "inherent prefetching behavior" the paper credits
    for CodePack's speedups, isolating that mechanism from compression
    itself.
    """

    __slots__ = ("memory", "line_bytes", "critical_word_first",
                 "prefetch_next", "prefetch_hits", "_buffer_line",
                 "_buffer_times", "_offsets")

    def __init__(self, memory, line_bytes, critical_word_first=True,
                 prefetch_next=False):
        self.memory = memory
        self.line_bytes = line_bytes
        self.critical_word_first = critical_word_first
        self.prefetch_next = prefetch_next
        self.prefetch_hits = 0
        self._buffer_line = -1
        self._buffer_times = None
        # Per-start-beat word-arrival offsets, computed once: a burst's
        # word times are ``now + offset``, so every demand fill is a
        # bulk list add instead of a per-byte beat walk.
        self._offsets = {}

    def miss(self, addr, now):
        if not self.prefetch_next:
            return self._demand_fill(addr, now)
        line_addr = addr // self.line_bytes
        if line_addr == self._buffer_line:
            # Served from the prefetch buffer: one transfer cycle per
            # word already streamed.  The prefetcher re-arms, chasing
            # the stream one line ahead.
            self.prefetch_hits += 1
            times = [max(now + 1, t) for t in self._buffer_times]
            word = (addr % self.line_bytes) // INSTRUCTION_BYTES
            served = LineFill(line_addr, times, times[word], max(times))
            self._arm(line_addr + 1, max(now, times[-1]))
            return served
        fill = self._demand_fill(addr, now)
        self._arm(line_addr + 1, fill.fill_done)
        return fill

    def _arm(self, line_addr, start):
        """Start streaming *line_addr* into the prefetch buffer."""
        next_fill = self._demand_fill(line_addr * self.line_bytes, start)
        self._buffer_line = line_addr
        self._buffer_times = next_fill.word_times

    def _word_offsets(self, start_beat):
        """Word arrival offsets (relative to *now*) for one burst shape.

        The burst is a circular sequence of bus-wide beats starting at
        *start_beat* (the beat holding the critical word); the offsets
        depend only on that shape, so they are computed once per shape
        and every demand fill becomes a bulk ``now +`` add.
        """
        cached = self._offsets.get(start_beat)
        if cached is not None:
            return cached
        memory = self.memory
        line_bytes = self.line_bytes
        bus_bytes = memory.bus_bytes
        words = line_bytes // INSTRUCTION_BYTES
        n_beats = max(1, line_bytes // bus_bytes)
        beat_arrival = [0] * n_beats
        for k in range(n_beats):
            beat = (start_beat + k) % n_beats
            beat_arrival[beat] = memory.first_latency + k * memory.rate
        last_beat = n_beats - 1
        offsets = []
        for w in range(words):
            first_beat = min(w * INSTRUCTION_BYTES // bus_bytes, last_beat)
            end_beat = min((w * INSTRUCTION_BYTES + INSTRUCTION_BYTES - 1)
                           // bus_bytes, last_beat)
            offsets.append(max(beat_arrival[first_beat],
                               beat_arrival[end_beat]))
        cached = (offsets, max(offsets))
        self._offsets[start_beat] = cached
        return cached

    def _demand_fill(self, addr, now):
        line_bytes = self.line_bytes
        line_addr = addr // line_bytes
        start_beat = 0
        if self.critical_word_first:
            start_beat = (addr % line_bytes) // self.memory.bus_bytes
        offsets, fill_offset = self._word_offsets(start_beat)
        word_times = [now + offset for offset in offsets]
        critical = word_times[(addr % line_bytes) // INSTRUCTION_BYTES]
        return LineFill(line_addr, word_times, critical, now + fill_offset)


class FetchUnit:
    """The front end's interface to the I-cache and the miss path.

    The timing models call :meth:`fetch` once per dynamic instruction;
    the unit consults the I-cache once per *line visit* (consecutive
    fetches within one line count as a single cache access, which is
    how a real sequential fetcher behaves) and remembers the most
    recent refill so that words of a line still in flight are not used
    before they arrive.
    """

    __slots__ = ("icache", "miss_path", "trace", "line_bytes",
                 "_cur_line", "_fill")

    def __init__(self, icache, miss_path, trace=None):
        self.icache = icache
        self.miss_path = miss_path
        self.trace = trace  # optional MissTrace recorder
        self.line_bytes = icache.line_bytes
        self._cur_line = -1
        self._fill = None  # most recent LineFill

    def redirect(self):
        """Control flow changed: the next fetch starts a new line visit."""
        self._cur_line = -1

    def fetch(self, addr, now):
        """Cycle at which the instruction at *addr* is available."""
        line = addr // self.line_bytes
        fill = self._fill
        if line != self._cur_line:
            self._cur_line = line
            if not self.icache.access(addr):
                fill = self.miss_path.miss(addr, now)
                self._fill = fill
                if self.trace is not None:
                    self.trace.record(addr, now, fill)
                return fill.critical_ready
        if fill is not None and fill.line_addr == line:
            word = (addr % self.line_bytes) // INSTRUCTION_BYTES
            ready = fill.word_times[word]
            if ready > now:
                return ready
        return now
