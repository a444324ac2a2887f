"""Vectorized multi-cell replay: NumPy column kernels over one trace.

The sweep's cells replay the *same* dynamic instruction stream under
different timing parameters.  :mod:`repro.sim.replay` already factors
the work into a per-geometry :class:`~repro.sim.replay.TraceProfile`
plus a per-cell scalar scan; this module removes the remaining
per-cell pass by pricing a whole *group* of cells -- every cell that
shares a pipeline shape, D-cache and predictor -- in one trace
traversal over structure-of-arrays NumPy columns:

* :func:`trace_columns` converts a recorded trace's span/branch/mem
  arrays into typed ``int64``/``uint8`` columns (dynamic static-index,
  fetch address, execution class, branch/memory event positions),
  versioned by :data:`COLUMNS_VERSION` and memoised on the trace.
* :func:`build_profile_vec` recomputes
  :func:`repro.sim.replay.build_profile` -- set-index/tag extraction,
  true-LRU simulation, branch-predictor state -- as array passes:
  predictor tables via segmented clamped-walk prefix scans, LRU via
  the stack-distance property (hit iff at most ``assoc - 1`` distinct
  lines touched the set since the previous visit), line visits via
  shifted compares.  The result is *equal* to the scalar builder's
  (same array types, same totals) and shares its per-trace cache.
* :func:`price_cells` prices a family of out-of-order sweep cells at
  once: the pipeline recurrences (fetch-queue slots, register
  scoreboard, FU pools, commit ring) run in lockstep across a cell
  axis, as two coupled loops.  The front end fetches ahead to the next
  mispredicted branch, stepping only at its own events (live line
  visits, redirects) and folding event-free runs across redirects into
  one add; the back end consumes its dispatch floors in windows of at
  most ``ruu_size`` instructions, with commit slots folded into one
  prefix-max scan per window.  Native and
  CodePack miss paths become per-event row broadcasts over
  precomputed burst-offset / block-schedule matrices; which events
  hit the output buffer or the index cache is timing-independent, so
  one cheap per-class event walk yields those outcomes (and the exact
  :class:`~repro.sim.codepack_engine.EngineStats`) for every cell of
  the class.
* :func:`price_grid` takes the whole sweep grid in one invocation and
  routes each *pass* -- one (pipeline shape, benchmark) pair: an
  in-order pass, or an out-of-order pass narrower than the kernel's
  measured lane crossover (:data:`MIN_LANES_OOO`), comes back unpriced
  and counted as a route, because the scalar stream kernel prices its
  cells faster one by one.  A cap inside the trace prices
  :func:`repro.sim.replay.trace_prefix`, so every kernel pass runs to
  the end of its trace.  Whatever the kernel cannot serve is recorded
  in a caller-supplied decline histogram rather than silently
  skipped; a route is never a decline.

Everything here is an accelerator, not a model: the execute-driven
models remain the oracle, and the differential suite in
``tests/sim/test_vecreplay.py`` asserts cycle-exactness and
statistics-identity across the paper's cell grid.
"""

import bisect
import heapq
from array import array

import numpy as np

from repro.sim.codepack_engine import (
    INDEX_ENTRY_BYTES,
    EngineStats,
    IndexCacheStats,
)
from repro.sim.cpu import (
    EX_BRANCH,
    EX_JUMP,
    EX_LOAD,
    EX_MULT,
    EX_STORE,
    NO_DST,
    NO_SRC,
    N_SLOTS,
    text_columns,
)
from repro.sim.machine import describe_mode
from repro.sim.ooo import FRONT_END_LATENCY
from repro.sim.replay import TraceProfile, get_replay_table, trace_prefix
from repro.sim.results import SimResult

#: Bump when the column layout or their derivation changes; the
#: per-trace memo embeds it, so stale columns are never reused.
COLUMNS_VERSION = 1

_WEAKLY_TAKEN = 2


# ---------------------------------------------------------------------------
# Trace columns: the structure-of-arrays view of one trace
# ---------------------------------------------------------------------------

class TraceColumns:
    """Typed column view of one trace (shared by every profile/kernel).

    * ``index`` -- static instruction index per dynamic instruction.
    * ``addr`` -- fetch byte address per dynamic instruction.
    * ``ex`` -- execution class per dynamic instruction (``uint8``).
    * ``bpos`` / ``mpos`` -- dynamic indices of conditional branches
      and of load/store events (aligned with ``Trace.takens`` /
      ``Trace.mem_addrs``).
    * ``takens`` / ``mem_addrs`` -- the trace's outcome columns.
    """

    __slots__ = ("n", "index", "addr", "ex", "bpos", "mpos", "is_load",
                 "takens", "mem_addrs")

    def __init__(self, n, index, addr, ex, bpos, mpos, is_load, takens,
                 mem_addrs):
        self.n = n
        self.index = index
        self.addr = addr
        self.ex = ex
        self.bpos = bpos
        self.mpos = mpos
        self.is_load = is_load
        self.takens = takens
        self.mem_addrs = mem_addrs


def trace_columns(trace, static):
    """The (memoised) :class:`TraceColumns` for *trace*.

    Spans expand to per-instruction columns with ``repeat``/``cumsum``
    (no Python loop); the result is cached on the trace keyed by
    :data:`COLUMNS_VERSION`.
    """
    cached = getattr(trace, "_columns", None)
    if cached is not None and cached[0] == COLUMNS_VERSION:
        return cached[1]
    n = trace.n
    span_start = np.frombuffer(trace.span_start, dtype=np.int64)
    span_len = np.frombuffer(trace.span_len, dtype=np.int64)
    # index[i] = span_start[s] + (i - first dynamic index of span s)
    starts = np.cumsum(span_len) - span_len  # exclusive prefix
    index = np.repeat(span_start - starts, span_len) + np.arange(
        n, dtype=np.int64)
    addr = np.int64(trace.text_base) + (index << 2)
    ex_table = np.frombuffer(get_replay_table(static).ex, dtype=np.uint8)
    ex = ex_table[index]
    bpos = np.flatnonzero(ex == EX_BRANCH)
    mem_mask = (ex == EX_LOAD) | (ex == EX_STORE)
    mpos = np.flatnonzero(mem_mask)
    is_load = ex[mpos] == EX_LOAD
    takens = np.frombuffer(bytes(trace.takens), dtype=np.uint8)
    mem_addrs = np.frombuffer(trace.mem_addrs, dtype=np.int64)
    cols = TraceColumns(n, index, addr, ex, bpos, mpos, is_load, takens,
                        mem_addrs)
    try:
        trace._columns = (COLUMNS_VERSION, cols)
    except AttributeError:  # duck-typed stand-ins without the slot
        pass
    return cols


# ---------------------------------------------------------------------------
# Predictor state as segmented clamped-walk scans
# ---------------------------------------------------------------------------
#
# A 2-bit saturating counter is a clamped walk: each update applies
# x -> min(3, max(0, x + d)).  Maps of the form min(b, max(a, x + s))
# compose into the same form --
#
#     (g o f)(x) = min(B, max(A, x + s_f + s_g))
#     A = max(a_g, a_f + s_g),  B = min(b_g, max(a_g, b_f + s_g))
#
# -- so the state *before* every update of one table entry is an
# exclusive prefix scan of (s, a, b) triples, computed here for all
# entries at once: stable-sort events by table index, then Hillis-Steele
# doubling restricted to equal-index runs.

def _clamped_counter_scan(idx, steps, init=_WEAKLY_TAKEN, lo=0, hi=3):
    """State of ``table[idx[i]]`` *before* event ``i``.

    ``steps[i]`` is the (already clamped-form) increment the i-th event
    applies to its entry.  All entries start at *init*; every map clamps
    to ``[lo, hi]``.
    """
    n = len(idx)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(idx, kind="stable")
    idx_s = idx[order]
    # Exclusive shift within equal-index runs: event i sees the
    # composition of the maps of the *earlier* events on its entry.
    s = np.empty(n, dtype=np.int64)
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    s[1:] = steps[order][:-1]
    a[1:] = lo
    b[1:] = hi
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    run_start[1:] = idx_s[1:] != idx_s[:-1]
    big = np.int64(1) << 40
    s[run_start] = 0
    a[run_start] = -big
    b[run_start] = big
    d = 1
    while d < n:
        same = np.zeros(n, dtype=bool)
        same[d:] = idx_s[d:] == idx_s[:-d]
        # compose: current map (covering (i-d, i]) after the map at i-d
        sf, af, bf = s[:-d], a[:-d], b[:-d]
        sg, ag, bg = s[d:], a[d:], b[d:]
        ns = sf + sg
        na = np.maximum(ag, af + sg)
        nb = np.minimum(bg, np.maximum(ag, bf + sg))
        m = same[d:]
        s[d:][m] = ns[m]
        a[d:][m] = na[m]
        b[d:][m] = nb[m]
        d <<= 1
    state_s = np.minimum(b, np.maximum(a, init + s))
    state = np.empty(n, dtype=np.int64)
    state[order] = state_s
    return state


def _bimodal_states(pc2, takens, entries):
    idx = pc2 & np.int64(entries - 1)
    steps = np.where(takens, np.int64(1), np.int64(-1))
    return _clamped_counter_scan(idx, steps)


def _gshare_history(takens, history_bits):
    nb = len(takens)
    h = np.zeros(nb, dtype=np.int64)
    t64 = takens.astype(np.int64)
    for m in range(min(history_bits, nb - 1)):
        # bit m of the history before branch i is taken[i - 1 - m]
        h[m + 1:] += t64[:nb - m - 1] << m
    return h


def _predictor_columns(cols, config):
    """(predictions, states needed) for one predictor config, or None.

    Returns the per-branch predicted direction as a boolean column;
    ``None`` when the predictor kind is not vectorizable.
    """
    takens = cols.takens[:len(cols.bpos)].astype(bool)
    pc2 = cols.addr[cols.bpos] >> 2
    if config.kind == "bimode":
        return _bimodal_states(pc2, takens, config.entries) >= 2
    if config.kind == "gshare":
        mask = np.int64((1 << config.history_bits) - 1)
        idx = (pc2 ^ _gshare_history(takens, config.history_bits)) & mask
        steps = np.where(takens, np.int64(1), np.int64(-1))
        return _clamped_counter_scan(idx, steps) >= 2
    if config.kind == "hybrid":
        bim = _bimodal_states(pc2, takens, config.entries) >= 2
        mask = np.int64((1 << config.history_bits) - 1)
        gidx = (pc2 ^ _gshare_history(takens, config.history_bits)) & mask
        gsteps = np.where(takens, np.int64(1), np.int64(-1))
        gsh = _clamped_counter_scan(gidx, gsteps) >= 2
        bim_correct = bim == takens
        gsh_correct = gsh == takens
        msteps = (gsh_correct & ~bim_correct).astype(np.int64) \
            - (bim_correct & ~gsh_correct).astype(np.int64)
        midx = pc2 & np.int64(config.meta_entries - 1)
        meta = _clamped_counter_scan(midx, msteps) >= 2
        return np.where(meta, gsh, bim)
    return None


# ---------------------------------------------------------------------------
# LRU caches via the stack-distance property
# ---------------------------------------------------------------------------

def _lru_hits(lines, n_sets, assoc):
    """Hit/miss of each access of a true-LRU set-associative cache.

    ``lines`` is the chronological line-address stream.  LRU is a stack
    algorithm: access *i* hits iff the number of distinct lines that
    touched its set since the previous access to the same line is at
    most ``assoc - 1``.  Vector closed forms cover ``assoc`` 1 and 2
    (the paper's geometries); other associativities take an exact
    per-set Python walk.
    """
    ne = len(lines)
    hits = np.zeros(ne, dtype=bool)
    if ne == 0:
        return hits
    sets = lines % np.int64(n_sets)
    if assoc not in (1, 2):
        occupants = {}
        for i in range(ne):
            s = int(sets[i])
            line = int(lines[i])
            cache_set = occupants.get(s)
            if cache_set is None:
                cache_set = occupants[s] = dict()
            if line in cache_set:
                del cache_set[line]
                cache_set[line] = True
                hits[i] = True
                continue
            if len(cache_set) >= assoc:
                del cache_set[next(iter(cache_set))]
            cache_set[line] = True
        return hits
    order = np.argsort(sets, kind="stable")  # per-set chronological runs
    line_s = lines[order]
    set_s = sets[order]
    # Previous access to the same line within the same set: stable-sort
    # the set-ordered stream by line; equal consecutive entries are
    # successive accesses of one (set, line) pair (equal line implies
    # equal set, since the set index is a function of the line).
    pos_by_line = np.argsort(line_s, kind="stable")
    same_pair = np.zeros(ne, dtype=bool)
    same_pair[1:] = line_s[pos_by_line[1:]] == line_s[pos_by_line[:-1]]
    prev = np.full(ne, -1, dtype=np.int64)
    prev[pos_by_line[1:][same_pair[1:]]] = pos_by_line[:-1][same_pair[1:]]
    has_prev = prev >= 0
    if assoc == 1:
        hit_s = has_prev & (np.arange(ne) == prev + 1)
    else:
        # Distinct lines between occurrences: the span t[j+1..i-1] holds
        # a single value iff it has no internal change points.
        change = np.ones(ne, dtype=np.int64)
        change[1:] = (line_s[1:] != line_s[:-1]).astype(np.int64)
        change[0] = 1
        seg_start = np.zeros(ne, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = set_s[1:] != set_s[:-1]
        change[seg_start] = 1
        cum = np.cumsum(change)
        i_pos = np.arange(ne)
        pj = np.maximum(prev, 0)
        adjacent = i_pos == prev + 1
        one_distinct = cum[np.maximum(i_pos - 1, 0)] - cum[
            np.minimum(pj + 1, ne - 1)] == 0
        hit_s = has_prev & (adjacent | one_distinct)
    hits[order] = hit_s
    return hits


# ---------------------------------------------------------------------------
# The vectorized profile builder
# ---------------------------------------------------------------------------

def build_profile_vec(static, trace, arch):
    """Vectorized :func:`repro.sim.replay.build_profile`.

    Returns an equal :class:`~repro.sim.replay.TraceProfile` (same
    array types and totals), or ``None`` when the geometry is outside
    the vector paths (then the caller falls back to the scalar
    builder).
    """
    if trace.n == 0:
        return None
    if arch.predictor.kind not in ("bimode", "gshare", "hybrid"):
        return None
    cols = trace_columns(trace, static)
    n = cols.n
    addr = cols.addr
    ex = cols.ex

    # Branch outcomes first: they determine front-end redirects, hence
    # line-visit boundaries.
    takens = cols.takens[:len(cols.bpos)].astype(bool)
    pred = _predictor_columns(cols, arch.predictor)
    if pred is None:
        return None
    mp_b = pred != takens
    brk_b = np.where(mp_b, np.uint8(2),
                     np.where(takens, np.uint8(1), np.uint8(0)))

    # Line visits: first instruction, line change, or the instruction
    # after a front-end redirect (taken/mispredicted branch or jump).
    line_bytes = np.int64(arch.icache.line_bytes)
    line = addr // line_bytes
    reset_after = ex == EX_JUMP
    if len(cols.bpos):
        reset_after[cols.bpos] |= brk_b != 0
    visit = np.empty(n, dtype=bool)
    visit[0] = True
    visit[1:] = (line[1:] != line[:-1]) | reset_after[:-1]
    fe_pos_np = np.flatnonzero(visit)
    fe_addr_np = addr[fe_pos_np]
    vline = line[fe_pos_np]

    ihits = _lru_hits(vline, arch.icache.n_sets, arch.icache.assoc)
    nv = len(fe_pos_np)
    # flag 2 = hit on the line most recently refilled by a miss.
    miss_idx = np.where(~ihits, np.arange(nv), -1)
    last_miss = np.maximum.accumulate(miss_idx)
    fill_line = np.where(last_miss >= 0,
                         vline[np.maximum(last_miss, 0)], np.int64(-1))
    flags = np.where(~ihits, np.uint8(1),
                     np.where(ihits & (fill_line == vline) & (last_miss >= 0),
                              np.uint8(2), np.uint8(0)))

    dhits = _lru_hits(cols.mem_addrs // np.int64(arch.dcache.line_bytes),
                      arch.dcache.n_sets, arch.dcache.assoc)
    dmiss_np = (~dhits) & cols.is_load

    fe_pos = array("q")
    fe_pos.frombytes(fe_pos_np.astype(np.int64).tobytes())
    fe_addr = array("q")
    fe_addr.frombytes(fe_addr_np.astype(np.int64).tobytes())
    final_reset = bool(reset_after[n - 1])
    return TraceProfile(
        fe_pos=fe_pos,
        fe_flags=bytearray(flags.astype(np.uint8).tobytes()),
        fe_addr=fe_addr,
        dmiss=bytearray(dmiss_np.astype(np.uint8).tobytes()),
        brk=bytearray(brk_b.astype(np.uint8).tobytes()),
        icache_accesses=int(nv),
        icache_misses=int(np.count_nonzero(~ihits)),
        dcache_accesses=int(len(cols.mpos)),
        dcache_misses=int(np.count_nonzero(~dhits)),
        lookups=int(len(cols.bpos)),
        mispredicts=int(np.count_nonzero(mp_b)),
        final_cur_line=-1 if final_reset else int(line[n - 1]),
    )


# ---------------------------------------------------------------------------
# Cell-group pricing: one trace pass for every cell of a pipeline shape
# ---------------------------------------------------------------------------

class _VecUnsupported(Exception):
    """A cell group fell outside the vector paths; price it scalar."""


def _pow2_shift(value):
    if value < 1 or value & (value - 1):
        raise _VecUnsupported("width %r is not a power of two" % value)
    return value.bit_length() - 1


def _image_block_columns(image):
    """Per-block geometry columns of a CodePack image (memoised)."""
    cached = getattr(image, "_vec_blocks", None)
    if cached is not None and cached[0] == COLUMNS_VERSION:
        return cached[1]
    blocks = image.blocks
    nb = len(blocks)
    width = image.block_instructions
    end = np.zeros((nb, width), dtype=np.int64)
    nvalid = np.zeros(nb, dtype=np.int64)
    offset = np.zeros(nb, dtype=np.int64)
    nbytes = np.zeros(nb, dtype=np.int64)
    for b, block in enumerate(blocks):
        bits = block.inst_end_bits
        nvalid[b] = len(bits)
        end[b, :len(bits)] = bits
        offset[b] = block.byte_offset
        nbytes[b] = block.byte_length
    data = {"end": end, "nvalid": nvalid, "offset": offset,
            "nbytes": nbytes, "width": width}
    try:
        image._vec_blocks = (COLUMNS_VERSION, data)
    except AttributeError:
        pass
    return data


def _block_rel_matrix(image, decode_rate, memory):
    """All blocks' start-relative finish offsets as one matrix.

    Row *b* equals ``CodePackEngine._block_rel(b)`` -- burst arrival
    per instruction plus the serial-decoder recurrence -- padded to the
    block width with the row's last valid value (which is exactly the
    engine's partial-final-block clamp).  Memoised on the image per
    (decode-rate, memory-timing) key.
    """
    key = ("rel", decode_rate, memory.bus_bits, memory.first_latency,
           memory.rate)
    memos = getattr(image, "_vec_schedules", None)
    if memos is None:
        memos = {}
        try:
            image._vec_schedules = memos
        except AttributeError:
            pass
    entry = memos.get(key)
    if entry is not None:
        return entry
    cols = _image_block_columns(image)
    end = cols["end"]
    nvalid = cols["nvalid"]
    width = cols["width"]
    nb = len(nvalid)
    beat_bits = memory.bus_bits
    align_bits = (cols["offset"] % memory.bus_bytes) * 8
    arrive = memory.first_latency \
        + ((align_bits[:, None] + end - 1) // beat_bits) * memory.rate
    finish = np.empty((nb, width), dtype=np.int64)
    for idx in range(width):
        col = arrive[:, idx].copy()
        if idx >= decode_rate:
            np.maximum(col, finish[:, idx - decode_rate], out=col)
        finish[:, idx] = col + 1
    last = finish[np.arange(nb), np.maximum(nvalid - 1, 0)]
    pad = np.arange(width)[None, :] >= nvalid[:, None]
    finish[pad] = np.broadcast_to(last[:, None], (nb, width))[pad]
    entry = (finish, cols["nbytes"], nvalid)
    memos[key] = entry
    return entry


def _native_offset_row(memory, line_bytes, start_beat):
    """``NativeMissPath._word_offsets`` as an ``int64`` row."""
    bus_bytes = memory.bus_bytes
    words = line_bytes // 4
    n_beats = max(1, line_bytes // bus_bytes)
    beat_arrival = [0] * n_beats
    for k in range(n_beats):
        beat_arrival[(start_beat + k) % n_beats] = \
            memory.first_latency + k * memory.rate
    last_beat = n_beats - 1
    offsets = [max(beat_arrival[min(w * 4 // bus_bytes, last_beat)],
                   beat_arrival[min((w * 4 + 3) // bus_bytes, last_beat)])
               for w in range(words)]
    return np.array(offsets, dtype=np.int64)


def _cp_class_walk(blocks1, groups1, cfg):
    """Timing-independent engine outcomes for one CodePack config class.

    Replays :meth:`CodePackEngine.miss`'s *stateful* decisions -- output
    buffer, last-index buffer or index cache -- over the subgroup's
    miss events.  Which events buffer-hit or pay an index fetch depends
    only on the event sequence, never on cycle times, so one walk
    serves every cell sharing (output_buffer, perfect_index,
    index_cache); the walk also yields the class's exact
    :class:`EngineStats` counters.
    """
    n1 = len(blocks1)
    bh = np.zeros(n1, dtype=bool)
    idxon = np.zeros(n1, dtype=np.int64)
    output_buffer = cfg.output_buffer
    perfect = cfg.perfect_index
    ic_cfg = cfg.index_cache
    ic_lines = ic_cfg.lines if ic_cfg is not None else 0
    ic_epl = ic_cfg.entries_per_line if ic_cfg is not None else 0
    buffered = -1
    last_group = -1
    lines = {}
    index_fetches = 0
    ic_accesses = 0
    ic_misses = 0
    blist = blocks1.tolist()
    glist = groups1.tolist()
    for e in range(n1):
        block = blist[e]
        if output_buffer and block == buffered:
            bh[e] = True
            continue
        group = glist[e]
        if perfect:
            pass
        elif ic_cfg is not None:
            tag = group // ic_epl
            ic_accesses += 1
            if tag in lines:
                del lines[tag]
                lines[tag] = True
            else:
                ic_misses += 1
                index_fetches += 1
                idxon[e] = 1
                if len(lines) >= ic_lines:
                    del lines[next(iter(lines))]
                lines[tag] = True
        elif group != last_group:
            last_group = group
            index_fetches += 1
            idxon[e] = 1
        if output_buffer:
            buffered = block
    stats = {
        "buffer_hits": int(np.count_nonzero(bh)),
        "index_fetches": index_fetches,
        "ic_accesses": ic_accesses,
        "ic_misses": ic_misses,
    }
    return bh, idxon, stats


class _NativeSeg:
    """Native-miss-path cells of one subgroup sharing a memory config."""

    __slots__ = ("sl", "cells", "memory", "offs", "maxoff", "sb1",
                 "prefetch", "pbline", "pbuf", "offs0", "off1")

    def __init__(self, sl, cells, memory, line_bytes, ev_addr1, cwf,
                 prefetch):
        self.sl = sl
        self.cells = cells
        self.memory = memory
        if cwf:
            sb1 = (ev_addr1 % line_bytes) // memory.bus_bytes
        else:
            sb1 = np.zeros(len(ev_addr1), dtype=np.int64)
        self.sb1 = sb1.tolist()
        self.offs = {}
        self.maxoff = {}
        for sb in set(self.sb1) | ({0} if prefetch else set()):
            row = _native_offset_row(memory, line_bytes, sb)
            self.offs[sb] = row
            self.maxoff[sb] = int(row.max())
        self.off1 = None
        if not prefetch:
            # Per-event offset rows, so the subgroup can combine every
            # non-prefetch native segment into one fill matrix.
            nsb = int(sb1.max()) + 1 if len(self.sb1) else 1
            offmat = np.zeros((nsb, line_bytes // 4), dtype=np.int64)
            for sb, row in self.offs.items():
                offmat[sb] = row
            self.off1 = offmat[sb1]
        self.prefetch = prefetch
        self.pbline = -1
        self.pbuf = None
        self.offs0 = self.offs.get(0)
        if prefetch and self.offs0 is None:
            self.offs0 = _native_offset_row(memory, line_bytes, 0)
            self.offs[0] = self.offs0
            self.maxoff[0] = int(self.offs0.max())

    def fill(self, sg, e1, now, line):
        lsl = self.sl
        nowseg = now[lsl]
        if self.prefetch:
            if self.pbuf is None:
                self.pbuf = np.zeros((len(self.cells), sg.words),
                                     dtype=np.int64)
            if line == self.pbline:
                times = np.maximum(self.pbuf, (nowseg + 1)[:, None])
                sg.fill_mat[lsl] = times
                start = np.maximum(nowseg, times[:, -1])
                np.add(start[:, None], self.offs0[None, :], out=self.pbuf)
                self.pbline = line + 1
                return
            row = self.offs[self.sb1[e1]]
            np.add(nowseg[:, None], row[None, :], out=sg.fill_mat[lsl])
            done = nowseg + self.maxoff[self.sb1[e1]]
            np.add(done[:, None], self.offs0[None, :], out=self.pbuf)
            self.pbline = line + 1
            return
        row = self.offs[self.sb1[e1]]
        np.add(nowseg[:, None], row[None, :], out=sg.fill_mat[lsl])


class _CodePackSeg:
    """Column-order metadata for CodePack cells sharing a schedule key.

    The timing work itself runs over the subgroup's *combined* CP
    matrices (one op sequence per miss event for every CP cell); this
    class only records the cells' column order for result assembly.
    """

    __slots__ = ("cells", "rel1", "idxadd1")

    def __init__(self, cells, rel1, idxadd1):
        self.cells = cells
        self.rel1 = rel1
        self.idxadd1 = idxadd1


class _Subgroup:
    """All cells of a group sharing one I-cache geometry.

    CP cells occupy the trailing ``cp_sl`` columns; their per-event
    tables are combined across schedule segments so one miss event
    costs one short op sequence regardless of how many bus/decoder
    variants share the subgroup:

    * ``rel1[e]`` -- each CP cell's block-schedule row for event *e*.
    * ``idxadd1[e]`` -- each cell's index-lookup penalty for event *e*
      (0 on an index hit / perfect index, its burst cost otherwise).
    * ``bh1``/``upd1`` -- per-event output-buffer hit and
      buffer-refresh masks (timing-independent, from the class walks).

    The front end visits a subgroup only at its *live* line visits:
    miss fills (flag 1) and hits on the most recently filled line
    (flag 2).  ``nz_*`` list those events in program order (``nz_pos``
    ends in a sentinel ``n``): the visiting address and its word,
    ``nz_end`` the position of the next line visit, which closes the
    consult window the event opens, and ``nz_skip`` the index of the
    next fill, where a settled subgroup resumes.  ``ni`` is the next
    event's index; ``w``/``cpos``/``cend`` the open consult window's
    next word, next position and end; ``fslot`` caches
    :meth:`fill_slots` until the next fill.
    """

    __slots__ = ("sl", "icache", "line_bytes", "words", "profile", "e1",
                 "nz_pos", "nz_flag", "nz_addr", "nz_word", "nz_end",
                 "nz_skip", "ni", "w", "cpos", "cend", "fslot",
                 "fill_mat", "buf", "native_segs",
                 "cp_segs", "blocks1", "base1", "class_walks",
                 "nbytes1", "cp_sl", "rel1", "idxadd1", "bh1", "upd1",
                 "bh_any", "upd_any", "abs_buf", "ready_buf",
                 "nat_sl", "noff1", "lastbeat1", "busy_cp",
                 "busy_tmp", "nobh1")

    def __init__(self, sl, icache):
        self.sl = sl
        self.icache = icache
        self.line_bytes = icache.line_bytes
        self.words = icache.line_bytes // 4
        self.native_segs = []
        self.cp_segs = []
        self.ni = 0
        self.w = 0
        self.cpos = 0
        self.cend = 0
        self.fslot = None
        self.e1 = 0
        self.buf = None
        self.blocks1 = None
        self.base1 = None
        self.class_walks = {}
        self.nbytes1 = None
        self.cp_sl = None
        self.nat_sl = None
        self.lastbeat1 = None
        self.busy_cp = None
        self.busy_tmp = None
        self.nobh1 = None

    def attach_profile(self, profile, n):
        """Index *profile*'s live line visits; returns the addresses
        of its miss fills, in order."""
        self.profile = profile
        fp = np.frombuffer(profile.fe_pos, dtype=np.int64)
        fl = np.frombuffer(bytes(profile.fe_flags), dtype=np.uint8)
        fa = np.frombuffer(profile.fe_addr, dtype=np.int64)
        live = np.flatnonzero(fl != 0)
        flags = fl[live]
        addrs = fa[live]
        fills = np.flatnonzero(flags == 1)
        self.nz_pos = fp[live].tolist() + [n]
        self.nz_flag = flags.tolist()
        self.nz_addr = addrs.tolist()
        self.nz_word = ((addrs % self.line_bytes) >> 2).tolist()
        self.nz_end = np.append(fp[1:], n)[live].tolist()
        self.nz_skip = np.append(fills, len(live))[np.searchsorted(
            fills, np.arange(len(live)), side="right")].tolist()
        return addrs[flags == 1]

    def fill_slots(self, sf):
        """Each lane's last-arriving word of its latest fill, as a
        fetch slot (computed once per fill)."""
        if self.fslot is None:
            self.fslot = self.fill_mat.max(axis=1) << sf
        return self.fslot

    def fill_event(self, now, addr):
        """Handle one flag-1 miss event; returns the critical column."""
        e1 = self.e1
        self.e1 = e1 + 1
        if self.nat_sl is not None:
            # All non-prefetch native segments in one outer add.
            np.add(now[self.nat_sl][:, None], self.noff1[e1],
                   self.fill_mat[self.nat_sl])
        elif self.native_segs:
            line = addr // self.line_bytes
            for seg in self.native_segs:
                seg.fill(self, e1, now, line)
        if self.cp_sl is not None:
            nowcp = now[self.cp_sl]
            ready = self.ready_buf
            if self.busy_cp is not None:
                # Single-port bus: the index burst (when one is paid)
                # and the block burst queue behind whatever request the
                # cell's channel is still serving, exactly like the
                # scalar engine's `_index_ready`/`_decompress_block`
                # pair.  Output-buffer hits generate no traffic, so
                # their columns leave the channel untouched.
                np.maximum(self.busy_cp, nowcp, out=ready)
                np.add(ready, self.idxadd1[e1], ready)
                np.add(ready, self.lastbeat1[e1], self.busy_tmp)
                np.copyto(self.busy_cp, self.busy_tmp,
                          where=self.nobh1[e1])
            else:
                np.add(nowcp, self.idxadd1[e1], ready)
            absolute = self.abs_buf
            np.add(ready[:, None], self.rel1[e1], absolute)
            base = self.base1[e1]
            words = self.words
            if self.bh_any[e1]:
                floored = np.maximum(self.buf, (nowcp + 1)[:, None])
                self.fill_mat[self.cp_sl] = np.where(
                    self.bh1[e1][:, None],
                    floored[:, base:base + words],
                    absolute[:, base:base + words])
            else:
                self.fill_mat[self.cp_sl] = \
                    absolute[:, base:base + words]
            if self.upd_any[e1]:
                np.copyto(self.buf, absolute,
                          where=self.upd1[e1][:, None])
        critw = (addr % self.line_bytes) >> 2
        return self.fill_mat[:, critw], critw


def _prepare_group(group_cells, static, trace, image, cols,
                   critical_word_first, native_prefetch):
    """Order a group's cells into subgroups/segments and precompute
    every per-event table the kernels consume."""
    text_base = trace.text_base
    shared = bool(group_cells[0][1].shared_memory_bus)
    by_icache = {}
    for cell in group_cells:
        by_icache.setdefault(cell[1].icache, []).append(cell)

    subgroups = []
    ordered = []  # (pos, arch, codepack) in column order
    col = 0
    for icache, members in by_icache.items():
        # Segment members by miss-path key, insertion-ordered, so each
        # segment's cells occupy a contiguous column range.
        native_by_mem = {}
        cp_by_key = {}
        for c in members:
            if c[2] is None:
                native_by_mem.setdefault(c[1].memory, []).append(c)
            else:
                cp_by_key.setdefault((c[1].memory, c[2].decode_rate),
                                     []).append(c)
        start = col
        sg = _Subgroup(slice(start, start + len(members)), icache)
        profile = _get_profile_for(static, trace, members[0][1])
        ev_addr1 = sg.attach_profile(profile, trace.n)
        sg.fill_mat = np.zeros((len(members), sg.words), dtype=np.int64)

        lcol = 0
        for mem, seg_cells in native_by_mem.items():
            seg = _NativeSeg(slice(lcol, lcol + len(seg_cells)), seg_cells,
                             mem, sg.line_bytes, ev_addr1,
                             critical_word_first, native_prefetch)
            sg.native_segs.append(seg)
            ordered.extend(seg_cells)
            lcol += len(seg_cells)
        if sg.native_segs and not native_prefetch:
            noff1 = np.empty((len(ev_addr1), lcol, sg.words),
                             dtype=np.int64)
            for seg in sg.native_segs:
                noff1[:, seg.sl, :] = seg.off1[:, None, :]
            sg.noff1 = noff1
            sg.nat_sl = slice(0, lcol)

        if cp_by_key:
            if image is None:
                raise _VecUnsupported("codepack cells without an image")
            block_bytes = image.block_instructions * 4
            width = image.block_instructions
            blocks1 = (ev_addr1 - text_base) // block_bytes
            groups1 = blocks1 // image.group_blocks
            lines1 = ev_addr1 // sg.line_bytes
            base1 = (lines1 * sg.line_bytes - text_base
                     - blocks1 * block_bytes) // 4
            if len(base1) and int(base1.max()) + sg.words > width:
                raise _VecUnsupported("line spans multiple blocks")
            n1 = len(blocks1)
            sg.blocks1 = blocks1.tolist()
            sg.base1 = base1.tolist()
            sg.nbytes1 = _image_block_columns(image)["nbytes"][blocks1]
            cp_start = lcol
            rel_cols = []
            idx_cols = []
            bh_cols = []
            lb_cols = []
            hasbuf = []
            for (mem, rate), seg_cells in cp_by_key.items():
                rel, nbytes, nvalid = _block_rel_matrix(image, rate, mem)
                if n1 and int(nvalid[blocks1].min()) == 0:
                    raise _VecUnsupported("empty compression block")
                rel1_seg = rel[blocks1]  # (n1, width), one gather per seg
                beats = -(-INDEX_ENTRY_BYTES // mem.bus_bytes)
                idxcost = mem.first_latency + (beats - 1) * mem.rate
                if shared:
                    # Last-beat offset of each event's block burst (from
                    # the burst's own start): the channel stays busy
                    # until it lands, exactly `burst_arrivals()[-1]`.
                    bcols = _image_block_columns(image)
                    nbeats = -(-((bcols["offset"] % mem.bus_bytes)
                                 + bcols["nbytes"]) // mem.bus_bytes)
                    lastbeat_seg = (mem.first_latency
                                    + (nbeats - 1) * mem.rate)[blocks1]
                for c in seg_cells:
                    cp = c[2]
                    ck = (cp.output_buffer, cp.perfect_index,
                          cp.index_cache)
                    walk = sg.class_walks.get(ck)
                    if walk is None:
                        walk = sg.class_walks[ck] = _cp_class_walk(
                            blocks1, groups1, cp)
                    bh_cols.append(walk[0])
                    idx_cols.append(walk[1] * idxcost)
                    rel_cols.append(rel1_seg)
                    hasbuf.append(cp.output_buffer)
                    if shared:
                        lb_cols.append(lastbeat_seg)
                sg.cp_segs.append(_CodePackSeg(seg_cells, rel, idxcost))
                ordered.extend(seg_cells)
                lcol += len(seg_cells)
            n_cp = len(rel_cols)
            rel1 = np.empty((n1, n_cp, width), dtype=np.int64)
            for j, rows in enumerate(rel_cols):
                rel1[:, j, :] = rows
            sg.rel1 = rel1
            sg.idxadd1 = np.stack(idx_cols, axis=1)
            bh1 = np.stack(bh_cols, axis=1)
            upd1 = np.array(hasbuf, dtype=bool)[None, :] & ~bh1
            sg.bh1 = bh1
            sg.upd1 = upd1
            if shared:
                sg.lastbeat1 = np.stack(lb_cols, axis=1)
                sg.nobh1 = ~bh1
                sg.busy_tmp = np.empty(n_cp, dtype=np.int64)
            sg.bh_any = bh1.any(axis=1).tolist()
            sg.upd_any = upd1.any(axis=1).tolist()
            sg.cp_sl = slice(cp_start, lcol)
            sg.buf = np.zeros((n_cp, width), dtype=np.int64)
            sg.abs_buf = np.empty((n_cp, width), dtype=np.int64)
            sg.ready_buf = np.empty(n_cp, dtype=np.int64)
        col += len(members)
        subgroups.append(sg)
    return subgroups, ordered


def _get_profile_for(static, trace, arch):
    from repro.sim.replay import get_profile

    return get_profile(static, trace, arch)


# ---------------------------------------------------------------------------
# Lockstep pipeline kernel
# ---------------------------------------------------------------------------
#
# The out-of-order timing engine keeps a fetch "slot" (a (cycle, count)
# pair advancing `width` per cycle) and a commit slot.
# Encoding slot = cycle * width + count turns every scalar update into
# one of two array forms --
#
#     conditional bump:  if a > cycle: cycle, count = a, 0
#                        ==  slot = max(slot, a * width)
#     advance:           count += 1 (normalising)  ==  slot += 1
#
# -- so a run of instructions between front-end events folds into a
# prefix-max: with A_k the k-th instruction's fill-word bound (or -inf)
# and F the slot entering the run,
#
#     slot_k = k + max(F, max_{m<=k}(A_m - m))
#
# and similarly for the commit slot with A_k = (complete_k+1)*W + 1.
#
# The two halves are coupled at one point only: a mispredicted branch
# restarts fetch at its completion plus the penalty (and, on a shared
# bus, a CodePack fill queues behind earlier D-miss bursts).  So the
# kernel runs them as two loops.  The *front end* fetches ahead to
# the next mispredict (or D-miss load on a coupled shared-bus pass, or
# a fixed run-ahead bound), writing each instruction's dispatch floor
# into a buffer; it breaks only at its own events -- live line visits
# and redirects -- and folds event-free runs across redirects into one
# broadcast add (:func:`_fold_slots`).  The *back end* then consumes
# the buffer in windows of at most ``ruu_size`` instructions (so ring
# reads stay pre-window), running the per-instruction dispatch / FU /
# scoreboard recurrence across all cells at once inside each window.
# In-order passes have no kernel here: :func:`price_grid` routes them
# to the scalar stream kernel.

_NO_DEP = -(1 << 62)

#: Most instructions the front end fetches ahead of the back end: the
#: dispatch-floor buffer holds this many rows per lane, so its size
#: is bounded by the lane count, never by the trace.
_RUN_AHEAD = 1024

# Dense per-instruction kind codes for the out-of-order kernel's hot
# loop: the execution-class / latency / miss-stream decisions are pure
# properties of the dynamic op stream, so they are classified once per
# trace (see :func:`_dyn_kinds`) instead of re-deriving them from the
# op tuple on every (group, instruction) visit.
K_ALU = 0    # unit-latency ALU/jump-class op on the ALU pool
K_BR = 1     # unit-latency conditional branch (consumes the brk stream)
K_LOAD = 2   # unit-latency load (consults the d-miss stream)
K_STORE = 3  # unit-latency store (advances the mem-op cursor)
K_MULT = 4   # multiplier-pool op, explicit latency
K_GEN = 5    # anything else: generic slow path


def _dyn_columns(trace, static):
    """The trace's ``ex``/``latency``/``s0``/``s1``/``d0``/``d1`` columns.

    The :class:`~repro.sim.replay.ReplayTable` rows the dynamic op
    stream is made of, gathered straight from the static
    classification columns at the trace's static indices -- no pass
    over the op tuples.
    """
    c = text_columns(static)
    index = trace_columns(trace, static).index
    return (c.ex[index], c.latency[index], c.s0[index], c.s1[index],
            c.d0[index], c.d1[index])


def _dyn_kinds(trace, static):
    """Per-instruction kind codes (``K_*``), memoised on the trace."""
    kinds = getattr(trace, "_vkinds", None)
    if kinds is None:
        ex, latency = _dyn_columns(trace, static)[:2]
        # Later assignments win: a multiply is K_MULT whatever its
        # latency, any other non-unit latency is K_GEN.
        codes = np.full(len(ex), K_ALU, dtype=np.int64)
        codes[ex == EX_BRANCH] = K_BR
        codes[ex == EX_STORE] = K_STORE
        codes[ex == EX_LOAD] = K_LOAD
        codes[latency != 1] = K_GEN
        codes[ex == EX_MULT] = K_MULT
        kinds = codes.tolist()
        try:
            trace._vkinds = kinds
        except AttributeError:
            pass
    return kinds


def _dyn_deps(trace, static):
    """Last-writer dynamic indices per instruction source slot.

    ``deps[0][i]``/``deps[1][i]`` name the dynamic instruction that
    last wrote the i-th instruction's first/second source (``_NO_DEP``
    for an absent source, a never-written slot, or a duplicate of the
    first writer), as plain lists for the kernel's scalar indexing.
    A pure property of the dynamic op stream, so only the two lists
    are memoised on the trace and shared by every cell group -- the
    kernel then carries no scoreboard at all, just these indices
    against its completion-time state.
    """
    deps = getattr(trace, "_vdeps", None)
    if deps is None:
        s0c, s1c, d0c, d1c = (
            col.astype(np.int64) for col in _dyn_columns(trace, static)[2:])
        n = len(s0c)
        pos = np.arange(n, dtype=np.int64)
        # last_w[s, i] = index of the last write to slot s at-or-before
        # i: a one-hot of write positions, prefix-maxed along time.
        last_w = np.full((N_SLOTS, n), _NO_DEP, dtype=np.int64)
        last_w[d0c, pos] = pos
        last_w[d1c, pos] = pos  # d1 == NO_DST lands in the unused slot
        last_w[NO_DST] = _NO_DEP
        np.maximum.accumulate(last_w, axis=1, out=last_w)
        # Reads see writes *strictly* before them: gather at i-1 (the
        # scalar model reads its sources before recording its own
        # destinations).  Instruction 0 never has a prior writer.
        pm1 = np.maximum(pos - 1, 0)
        j0 = last_w[s0c, pm1]
        j1 = last_w[s1c, pm1]
        j1[(j1 == j0) | (s1c == s0c)] = _NO_DEP
        j0[s0c == NO_SRC] = _NO_DEP
        j1[s1c == NO_SRC] = _NO_DEP
        if n:
            j0[0] = _NO_DEP
            j1[0] = _NO_DEP
        trace._vdeps = deps = (j0.tolist(), j1.tolist())
    return deps


def _fold_slots(redirects, n, sf):
    """Fetch slots of an event-free front end, one per position.

    ``slots[k]`` (``k`` in ``[0, n]``) is the fetch slot position *k*
    gets from a front end that starts aligned at position 0, meets no
    I-cache event and, after each redirect in *redirects*, moves to the
    start of the next cycle.  A lane whose slot ``F`` at *k* is
    congruent to ``slots[k]`` modulo the fetch width tracks it exactly
    until its next event: its slot at ``k' >= k`` is
    ``F - slots[k] + slots[k']``, since each block then ends with the
    same ``len >> sf`` extra cycles in both.
    """
    starts = np.concatenate(([0], redirects + 1))
    lens = np.diff(np.append(starts, n))
    cycles = np.concatenate(([0], np.cumsum((lens[:-1] >> sf) + 1)))
    block = np.repeat(np.arange(len(starts)), lens)
    slots = np.empty(n + 1, dtype=np.int64)
    slots[:n] = ((cycles[block] << sf) + np.arange(n, dtype=np.int64)
                 - starts[block])
    slots[n] = (cycles[-1] << sf) + lens[-1]
    return slots


def _run_ooo_group(subgroups, C, n, dyn, kinds, dmiss, arch, dlat,
                   redirects, mispredicts, dmiss_loads, deps, work):
    """Price one out-of-order pass: every lane's cycle count.

    *redirects* holds the positions of jumps and taken or mispredicted
    branches, *mispredicts* those of mispredicted branches, and
    *dmiss_loads* (``None`` unless the pass shares its bus with
    CodePack lanes) those of D-cache-missing loads, each a sorted
    ``int64`` array.  Each stretch of the trace runs in two loops:

    * the **front end** writes the dispatch floor of every instruction
      up to the next mispredict, coupled D-miss load or
      :data:`_RUN_AHEAD` instructions into ``FL``.  A *step* starts
      with the live line visits at its position, then either folds an
      event-free run, across redirects, into one broadcast add of the
      :func:`_fold_slots` column (every lane in phase, no consult
      window open) or prefix-max scans up to the next redirect;
    * the **back end** consumes ``FL`` in windows of at most
      ``ruu_size`` instructions: one commit-ring fold, the
      per-instruction dispatch / FU loop, one commit-slot scan.

    A mispredict at the end of a stretch then restarts fetch at its
    completion plus the penalty.  When *work* is given, adds the pass's
    counts to it (see :func:`price_grid`).
    """
    width_f = arch.fetch_queue
    width_c = arch.issue_width
    sf = _pow2_shift(width_f)
    sc = _pow2_shift(width_c)
    ruu = arch.ruu_size
    penalty = arch.mispredict_penalty
    phase_mask = width_f - 1
    low = -(1 << 60)

    F = np.zeros(C, dtype=np.int64)
    K = np.zeros(C, dtype=np.int64)
    hist = np.zeros((ruu, C), dtype=np.int64)
    # Each FU pool is a (size, C) matrix kept sorted ascending along
    # axis 0, so row 0 is always the per-cell earliest-free port.  The
    # hot loop binds a per-pool insertion strategy up front: a plain
    # row overwrite (size 1), a two-op min/max ladder (size 2), or an
    # in-place column sort (size >= 3) -- ndarray.sort on a handful of
    # short columns beats the 2(P-1)-ufunc ladder from P == 3 up and
    # is flat in P, which is what makes wide (8-ALU) groups cheap.
    pools = {}
    for ex_class, size in ((0, arch.n_alu), (1, arch.n_memport),
                           (2, arch.n_mult)):
        pool = np.zeros((size, C), dtype=np.int64)
        pools[ex_class] = ([pool[j] for j in range(size)], size, pool)
    alu_pool = pools[0][:2]
    mem_pool = pools[1][:2]

    def pool_locals(ex_class):
        rows, size, mat = pools[ex_class]
        if size >= 3:
            return 3, rows[0], None, mat.sort
        if size == 2:
            return 2, rows[0], rows[1], None
        return 1, rows[0], None, None

    alu_mode, alu0, alu1, alu_sort = pool_locals(0)
    mem_mode, mem0, mem1, mem_sort = pool_locals(1)
    mult_mode, mult0, mult1, mult_sort = pool_locals(2)

    # Dispatch floors of the current stretch, one row per instruction:
    # the front end writes them, the back end's windows consume them.
    FL = np.empty((_RUN_AHEAD, C), dtype=np.int64)
    FLrows = [FL[r] for r in range(_RUN_AHEAD)]
    # Completion times live in a ring indexed by dynamic position.
    # A register written more than `ruu` instructions ago cannot bind:
    # its writer's completion is below its commit, which is below the
    # commit-ring bound already folded into the dispatch floor.  So
    # stale dependency indices are skipped without touching NumPy and
    # the kernel carries no scoreboard (see :func:`_dyn_deps`).
    CM = np.empty((ruu, C), dtype=np.int64)
    CMrows = [CM[r] for r in range(ruu)]
    j0s, j1s = deps[0], deps[1]
    Q = np.empty((ruu, C), dtype=np.int64)
    KCOL = np.arange(_RUN_AHEAD, dtype=np.int64)[:, None]
    KNEG = -KCOL
    KFE = KCOL + (FRONT_END_LATENCY << sf)  # slot offset + front end
    KB = (1 << sc) - KCOL  # commit: X_k - k with X_k = (CM_k + 1) << sc
    DB = np.empty(C, dtype=np.int64)
    PM = np.empty(C, dtype=np.int64)
    T0 = np.empty(C, dtype=np.int64)
    TT = np.empty(C, dtype=np.int64)
    subtract = np.subtract

    BUSY = None
    EFB = None
    if arch.shared_memory_bus:
        # Single-port bus: one channel per cell, shared by D-miss
        # bursts and CodePack fill/index bursts.  Fills and loads
        # reach it in program order (a coupled pass's front end stops
        # after every D-miss load, so it never fills past a load the
        # back end has not run), exactly the scalar loop's request
        # order, so a busy-until column is the whole arbitration state.
        BUSY = np.zeros(C, dtype=np.int64)
        EFB = np.empty(C, dtype=np.int64)
        for sg in subgroups:
            if sg.cp_sl is not None:
                sg.busy_cp = BUSY[sg.sl][sg.cp_sl]
    # Each subgroup's slices of the per-lane vectors (all updated in
    # place, so the views stay live).
    views = [(F[sg.sl], DB[sg.sl], TT[sg.sl]) for sg in subgroups]

    rlist = redirects.tolist()
    rlist.append(n)
    mlist = mispredicts.tolist()
    mlist.append(n)
    dlist = [n] if dmiss_loads is None else dmiss_loads.tolist() + [n]
    slots = None  # the _fold_slots column, built on the first fold
    # The next live line visit of every subgroup, as (position, index).
    heap = [(sg.nz_pos[0], j) for j, sg in enumerate(subgroups)]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    consulting = []  # subgroups with an open consult window
    rp = 0
    mp = 0
    dp = 0
    next_mp = mlist[0]
    steps = windows = folds = 0
    hits_live = hits_settled = bound_stops = dmiss_stops = 0
    front_end = FRONT_END_LATENCY
    maximum = np.maximum
    minimum = np.minimum
    add = np.add
    ONE = np.int64(1)  # np scalar: skips per-call int conversion

    mi = 0
    pos = 0
    while pos < n:
        stop = min(pos + _RUN_AHEAD, next_mp + 1, dlist[dp] + 1, n)
        if stop == pos + _RUN_AHEAD:
            bound_stops += 1

        # ==== front end: dispatch floors for [pos, stop) ===============
        f = pos
        while f < stop:
            steps += 1
            # ---- live line visits at f -----------------------------
            while heap[0][0] == f:
                j = heap[0][1]
                sg = subgroups[j]
                ni = sg.ni
                fsl, dsl, _ = views[j]
                if sg.nz_flag[ni] == 1:
                    crit, critw = sg.fill_event(fsl >> sf, sg.nz_addr[ni])
                    np.left_shift(crit, sf, dsl)
                    maximum(fsl, dsl, out=fsl)
                    sg.w = critw + 1
                    sg.fslot = None
                else:
                    if (fsl >= sg.fill_slots(sf)).all():
                        # Every lane has fetched past the whole fill:
                        # no hit on it binds until the next miss.
                        hits_settled += 1
                        ni = sg.ni = sg.nz_skip[ni]
                        heapreplace(heap, (sg.nz_pos[ni], j))
                        continue
                    hits_live += 1
                    w0 = sg.nz_word[ni]
                    np.left_shift(sg.fill_mat[:, w0], sf, dsl)
                    maximum(fsl, dsl, out=fsl)
                    sg.w = w0 + 1
                sg.cpos = f + 1
                sg.cend = sg.nz_end[ni]
                consulting.append(sg)
                ni = sg.ni = ni + 1
                heapreplace(heap, (sg.nz_pos[ni], j))

            # ---- fold: an event-free run, in phase, in one add ------
            if not consulting:
                if slots is None:
                    slots = _fold_slots(redirects, n, sf)
                    floors = (slots >> sf) + front_end
                # In phase: every lane's slot congruent to slots[f].
                subtract(F, slots[f], TT)
                if not (phase_mask and np.bitwise_and(
                        TT, phase_mask, PM).any()):
                    while True:
                        e, j = heap[0]
                        if e >= stop:
                            e = stop
                            break
                        sg = subgroups[j]
                        ni = sg.ni
                        if sg.nz_flag[ni] == 1:
                            break
                        # The lanes' slots at e are TT + slots[e].
                        if not (views[j][2] + slots[e]
                                >= sg.fill_slots(sf)).all():
                            break
                        hits_settled += 1
                        ni = sg.ni = sg.nz_skip[ni]
                        heapreplace(heap, (sg.nz_pos[ni], j))
                    folds += 1
                    np.right_shift(TT, sf, DB)
                    add(floors[f:e, None], DB, FL[f - pos:e - pos])
                    add(TT, slots[e], F)
                    rp = bisect.bisect_left(rlist, e, rp)
                    f = e
                    continue

            # ---- step to the next redirect or live visit -----------
            rr = rlist[rp]
            e = rr + 1
            if heap[0][0] < e:
                e = heap[0][0]
            if stop < e:
                e = stop
            L = e - f
            Av = FL[f - pos:e - pos]
            wrote = False
            if consulting:
                still = []
                for sg in consulting:
                    cend = sg.cend
                    end = cend if cend < e else e
                    span = end - sg.cpos
                    if span > 0:
                        if not wrote:
                            Av.fill(low)
                            wrote = True
                        w = sg.w
                        if w + span > sg.words:
                            raise _VecUnsupported("fill consult overran "
                                                  "the line")
                        np.left_shift(
                            sg.fill_mat[:, w:w + span].T, sf,
                            Av[sg.cpos - f:end - f, sg.sl])
                        sg.w = w + span
                        sg.cpos = end
                    if cend > e:
                        still.append(sg)
                consulting = still
            # A redirect moves fetch to the start of the next cycle:
            # (slot + width) rounded down to a whole cycle.
            realign = e - 1 == rr
            if wrote:
                # Av holds M_k = max(F, runmax(A_m - m)); slot_k = M_k + k.
                if L > 1:
                    add(Av, KNEG[:L], Av)
                    np.maximum.accumulate(Av, axis=0, out=Av)
                maximum(Av, F, out=Av)
                add(Av[L - 1], L + width_f if realign else L, F)
                add(Av, KFE[:L], Av)
            else:
                add(F, KFE[:L], Av)
                add(F, L + width_f if realign else L, F)
            if realign:
                np.bitwise_and(F, -width_f, F)
            np.right_shift(Av, sf, Av)  # Av is now the dispatch floor
            if realign:
                rp += 1
            f = e

        # ==== back end: RUU-sized windows over [pos, stop) =============
        i = pos
        while i < stop:
            L = stop - i
            if ruu < L:
                L = ruu
            lim = i + L
            off = i - pos
            Av = FL[off:off + L]
            windows += 1
            # Fuse the RUU commit-ring bound in up front: every ring
            # read in this window is pre-window state (L <= ruu), so
            # the per-instruction max against hist folds into <=2
            # block maxes.
            p0 = i % ruu
            if p0 + L <= ruu:
                maximum(Av, hist[p0:p0 + L], out=Av)
                cmk = CMrows[p0:p0 + L]
            else:
                split = ruu - p0
                maximum(Av[:split], hist[p0:], out=Av[:split])
                maximum(Av[split:], hist[:L - split], out=Av[split:])
                cmk = CMrows[p0:] + CMrows[:p0 + L - ruu]

            # ---- per-instruction dispatch / FU / scoreboard ----------
            # Ufunc `out` is passed positionally throughout this loop:
            # the kernel is call-overhead bound and keyword parsing is
            # a measurable share of each tiny-array ufunc call.  The
            # branch structure follows the memoised kind stream (cheap
            # int compares ordered by frequency) rather than
            # re-deriving the class/latency split from the op tuple
            # per visit.
            stale = i - ruu
            for op, k, d, cm, j, j2 in zip(dyn[i:lim], kinds[i:lim],
                                           FLrows[off:off + L], cmk,
                                           j0s[i:lim], j1s[i:lim]):
                # d: this instruction's dispatch row (its floor)
                if j > stale:
                    maximum(d, CMrows[j % ruu], out=d)
                if j2 > stale:
                    maximum(d, CMrows[j2 % ruu], out=d)
                stale += 1
                if k <= K_BR:  # unit-latency ALU-class op (the bulk)
                    maximum(d, alu0, out=d)
                    add(d, ONE, cm)
                    if alu_mode == 3:
                        # Row 0 is the pool min; overwrite it with the
                        # new completion and re-sort the columns in
                        # place (the alu0 view tracks the sorted row 0).
                        alu0[:] = cm
                        alu_sort(0)
                    elif alu_mode == 2:
                        minimum(alu1, cm, out=alu0)
                        maximum(alu1, cm, out=alu1)
                    else:
                        alu0[:] = cm
                elif k <= K_STORE:  # unit-latency load or store
                    dm = dmiss[mi] if k == K_LOAD else 0
                    mi += 1
                    maximum(d, mem0, out=d)
                    if dm:
                        add(d, ONE, PM)
                        if BUSY is None:
                            add(d, dlat, cm)
                        else:
                            maximum(d, BUSY, out=EFB)
                            add(EFB, dlat, cm)
                            subtract(cm, ONE, BUSY)
                        v = PM
                    else:
                        add(d, ONE, cm)
                        v = cm
                    if mem_mode == 2:
                        minimum(mem1, v, out=mem0)
                        maximum(mem1, v, out=mem1)
                    elif mem_mode == 3:
                        mem0[:] = v
                        mem_sort(0)
                    else:
                        mem0[:] = v
                elif k == K_MULT:
                    maximum(d, mult0, out=d)
                    add(d, op[1], cm)
                    if mult_mode == 1:
                        mult0[:] = cm
                    elif mult_mode == 2:
                        minimum(mult1, cm, out=mult0)
                        maximum(mult1, cm, out=mult1)
                    else:
                        mult0[:] = cm
                        mult_sort(0)
                else:
                    # Generic slow path (non-unit latency outside the
                    # multiplier pool) -- never taken on the paper's
                    # grid, kept for exactness on exotic op streams.
                    # The ladder writes in place, preserving the
                    # matrix-row order the fast paths' views depend on.
                    ex = op[0]
                    lat = op[1]
                    dmiss_now = False
                    if ex == EX_LOAD:
                        dmiss_now = dmiss[mi] != 0
                        mi += 1
                        rows, size = mem_pool
                    elif ex == EX_STORE:
                        mi += 1
                        rows, size = mem_pool
                    else:
                        rows, size = alu_pool
                    maximum(d, rows[0], out=d)
                    if size == 1:
                        row = rows[0]
                        if dmiss_now:
                            add(d, 1, row)
                            if BUSY is None:
                                add(d, dlat, cm)
                            else:
                                maximum(d, BUSY, out=EFB)
                                add(EFB, dlat, cm)
                                subtract(cm, 1, BUSY)
                        else:
                            add(d, 1, row)
                            add(d, lat, cm)
                    else:
                        if dmiss_now:
                            add(d, 1, PM)
                            if BUSY is None:
                                add(d, dlat, cm)
                            else:
                                maximum(d, BUSY, out=EFB)
                                add(EFB, dlat, cm)
                                subtract(cm, 1, BUSY)
                            v = PM
                        else:
                            add(d, 1, PM)
                            add(d, lat, cm)
                            v = PM
                        for jj in range(1, size - 1):
                            rj = rows[jj]
                            minimum(rj, v, out=rows[jj - 1])
                            maximum(rj, v, out=T0)
                            v = T0
                        rl = rows[size - 1]
                        minimum(rl, v, out=rows[size - 2])
                        maximum(rl, v, out=rl)

            # ---- commit slots for the whole window -------------------
            # Slot algebra with the +1/-1 constants folded away: with
            # X_k = (CM_k+1) << sc, slot_k = k + 1 + max(K, runmax(X-m)),
            # the reported commit is (slot_k-1) >> sc and the carried
            # K is slot_{L-1}, so Qv never needs the +-1 round trip.
            wrapped = p0 + L > ruu
            if wrapped:
                Qv = Q[:L]
                np.left_shift(CM[p0:], sc, Qv[:split])
                np.left_shift(CM[:L - split], sc, Qv[split:])
            else:
                # Unwrapped windows fold straight into the hist ring:
                # the rows being written are exactly the ones this
                # window owns.
                Qv = hist[p0:p0 + L]
                np.left_shift(CM[p0:p0 + L], sc, Qv)
            add(Qv, KB[:L], Qv)
            if L > 1:
                np.maximum.accumulate(Qv, axis=0, out=Qv)
            maximum(Qv, K, out=Qv)
            add(Qv[L - 1], L, K)
            if L > 1:
                add(Qv, KCOL[:L], Qv)
            np.right_shift(Qv, sc, Qv)  # rows: the reported commit times
            if wrapped:
                hist[p0:] = Qv[:split]
                hist[:L - split] = Qv[split:]
            i = lim

        # ---- a mispredict restarts fetch behind its completion -------
        # The front end realigned F after the branch like any redirect;
        # the scalar model does not, but the restart dominates both: a
        # branch (latency 1) completes at least FRONT_END_LATENCY + 1
        # = 2 cycles after its fetch cycle, and realigning moves F at
        # most 2 cycles past it.
        last = stop - 1
        if last == next_mp:
            add(CMrows[last % ruu], penalty, DB)
            np.left_shift(DB, sf, DB)
            maximum(F, DB, out=F)
            mp += 1
            next_mp = mlist[mp]
        if last == dlist[dp]:
            dp += 1
            dmiss_stops += 1
        pos = stop

    if work is not None:
        for key, count in (("ooo_fe_steps", steps), ("ooo_windows", windows),
                           ("ooo_folds", folds),
                           ("ooo_hits_live", hits_live),
                           ("ooo_hits_settled", hits_settled),
                           ("ooo_bound_stops", bound_stops),
                           ("ooo_dmiss_stops", dmiss_stops)):
            work[key] = work.get(key, 0) + count
    K -= 1
    K >>= sc
    return K


# ---------------------------------------------------------------------------
# price_cells: the public group-pricing entry point
# ---------------------------------------------------------------------------

def _group_key(arch):
    return (arch.in_order, arch.issue_width, arch.fetch_queue,
            arch.ruu_size, arch.n_alu, arch.n_mult, arch.n_memport,
            arch.mispredict_penalty, arch.predictor, arch.dcache,
            arch.shared_memory_bus)


def _price_group(program, group_cells, static, trace, image,
                 critical_word_first, native_prefetch, work=None):
    from repro.sim.replay import _dyn_ops

    arch0 = group_cells[0][1]
    n = trace.n
    cols = trace_columns(trace, static)
    subgroups, ordered = _prepare_group(group_cells, static, trace, image,
                                        cols, critical_word_first,
                                        native_prefetch)
    C = len(ordered)
    dlat = np.array(
        [c[1].memory.access_done(c[1].dcache.line_bytes, 0) + 1
         for c in ordered], dtype=np.int64)
    dyn = _dyn_ops(trace, get_replay_table(static).ops)
    prof0 = subgroups[0].profile
    dmiss = prof0.dmiss
    brk_np = np.frombuffer(bytes(prof0.brk), dtype=np.uint8)
    redirects = np.union1d(np.flatnonzero(cols.ex == EX_JUMP),
                           cols.bpos[brk_np != 0])
    dmiss_loads = None
    if arch0.shared_memory_bus and any(sg.cp_sl is not None
                                       for sg in subgroups):
        # CodePack fills queue behind D-miss bursts on this bus.
        dmiss_loads = cols.mpos[np.frombuffer(bytes(dmiss),
                                              dtype=np.uint8) != 0]
    cycles = _run_ooo_group(subgroups, C, n, dyn, _dyn_kinds(trace, static),
                            dmiss, arch0, dlat, redirects,
                            cols.bpos[brk_np == 2], dmiss_loads,
                            _dyn_deps(trace, static), work)

    # A priced trace ends at a halt or at the cap (price_grid declines
    # a fault within the cap), so an unhalted one was cut short.
    output = "".join(trace.out_text)
    truncated = not trace.halted
    results = {}
    col = 0
    for sg in subgroups:
        p = sg.profile
        n1 = len(sg.blocks1) if sg.blocks1 is not None else 0
        for seg in sg.native_segs + sg.cp_segs:
            for c in seg.cells:
                pos, arch, codepack = c
                if codepack is None:
                    engine = None
                else:
                    walk = sg.class_walks[(codepack.output_buffer,
                                           codepack.perfect_index,
                                           codepack.index_cache)]
                    stats = walk[2]
                    engine = EngineStats(
                        misses=n1,
                        buffer_hits=stats["buffer_hits"],
                        index_fetches=stats["index_fetches"],
                        blocks_fetched=n1 - stats["buffer_hits"],
                        compressed_bytes_fetched=int(
                            sg.nbytes1[~walk[0]].sum()),
                        index_cache=IndexCacheStats(
                            accesses=stats["ic_accesses"],
                            misses=stats["ic_misses"]),
                    )
                results[pos] = SimResult(
                    benchmark=program.name,
                    arch=arch.name,
                    mode=describe_mode(codepack),
                    instructions=n,
                    cycles=int(cycles[col]),
                    icache_accesses=p.icache_accesses,
                    icache_misses=p.icache_misses,
                    dcache_accesses=p.dcache_accesses,
                    dcache_misses=p.dcache_misses,
                    branch_lookups=p.lookups,
                    branch_mispredicts=p.mispredicts,
                    engine=engine,
                    output=output,
                    exit_code=trace.exit_code,
                    extra={"truncated": truncated},
                )
                col += 1
    return results


#: Fewest lanes (cells) an out-of-order kernel pass must carry to beat
#: pricing each of its cells on the scalar stream kernel
#: (``_replay_ooo_stream`` in :mod:`repro.sim.replay`).  A lockstep
#: pass pays a fixed cost per simulated instruction however few lanes
#: it has, so below this width it loses; it is the crossover measured
#: in DESIGN.md §7e.
MIN_LANES_OOO = 12


def price_grid(benches, cells, *, max_instructions,
               critical_word_first=True, native_prefetch=False,
               min_lanes=None, declines=None, routes=None, work=None):
    """Price sweep cells spanning many benchmarks in shared passes.

    ``benches`` maps a benchmark key to its ``(program, static, trace,
    image)`` tuple; ``cells`` is a sequence of ``(bench_key, arch,
    codepack)`` triples (``codepack`` ``None`` for native).  Cells are
    grouped by pipeline shape (issue/fetch widths, RUU, FU pools,
    penalty, predictor, D-cache, bus sharing); each (shape, benchmark)
    pair is one *pass*: one lockstep kernel traversal of that trace
    with a lane per cell.  Every priced cell's
    :class:`~repro.sim.results.SimResult` is exactly what
    :func:`repro.sim.machine.simulate` returns for it -- including
    shared-bus cells and truncating ``max_instructions`` caps.  A cap
    inside the trace prices the trace's prefix
    (:func:`repro.sim.replay.trace_prefix`), exactly as scalar replay
    does.

    Only out-of-order passes have a kernel.  Every in-order pass is
    *routed*: its cells come back unpriced for the scalar stream kernel
    (``_replay_inorder_stream``), whatever ``min_lanes`` says.  An
    out-of-order pass with fewer lanes than ``min_lanes`` is routed
    too, because the stream kernel prices its cells faster one by one.
    ``min_lanes`` defaults to the measured crossover
    :data:`MIN_LANES_OOO`; ``1`` forces the kernel at every width.

    Returns ``{cell_index: SimResult}`` for the cells priced here;
    callers run the rest through the scalar engines.  When *routes*
    (a ``Counter``-like mapping) is given, routed cells are counted
    there per machine model (``"ooo"``, ``"inorder"``).  When
    *declines* is given, every cell the kernel could not serve is
    counted there under its reason, so a silent regression to scalar
    pricing shows up in sweep stats; a route is never a decline.  When
    *work* is given, the out-of-order kernel adds its deterministic
    work counts there, summed over the passes it priced:
    ``ooo_fe_steps`` (front-end steps), ``ooo_windows`` (back-end
    windows), and of the steps' paths ``ooo_folds`` (event-free runs
    folded into one add), ``ooo_hits_live``/``ooo_hits_settled``
    (in-flight-line hits consulted / skipped as settled) and
    ``ooo_bound_stops``/``ooo_dmiss_stops`` (stretches ended at the
    run-ahead bound / at a D-miss load of a coupled shared-bus pass).
    """
    out = {}

    def decline(count, reason):
        if declines is not None and count:
            declines[reason] = declines.get(reason, 0) + count

    passes = {}
    for pos, (bench, arch, codepack) in enumerate(cells):
        passes.setdefault((_group_key(arch), bench), []).append(
            (pos, arch, codepack))
    for (_shape, bench), bcells in passes.items():
        program, static, trace, image = benches[bench]
        if trace is None or trace.n == 0:
            decline(len(bcells), "no trace")
            continue
        if not trace.covers(max_instructions):
            decline(len(bcells), "trace does not cover the cap")
            continue
        if trace.fault is not None and max_instructions > trace.n:
            # the scalar path raises; keep that behaviour there
            decline(len(bcells), "trace fault within the cap")
            continue
        if max_instructions <= 0:
            decline(len(bcells), "empty replay window")
            continue
        in_order = bcells[0][1].in_order
        if in_order or len(bcells) < (min_lanes or MIN_LANES_OOO):
            if routes is not None:
                model = "inorder" if in_order else "ooo"
                routes[model] = routes.get(model, 0) + len(bcells)
            continue
        if max_instructions < trace.n:
            trace = trace_prefix(trace, static, max_instructions)
        try:
            out.update(_price_group(
                program, bcells, static, trace, image,
                critical_word_first, native_prefetch, work))
        except _VecUnsupported as exc:
            decline(len(bcells), str(exc))
    return out


def price_cells(program, cells, *, static, trace, image=None,
                max_instructions, critical_word_first=True,
                native_prefetch=False, min_lanes=None, declines=None,
                routes=None, work=None):
    """Price many sweep cells of one benchmark in shared trace passes.

    Single-benchmark wrapper over :func:`price_grid`: ``cells`` is a
    sequence of ``(arch, codepack)`` pairs and the returned mapping is
    keyed by each cell's index in it.  In-order passes, and
    out-of-order passes narrower than ``min_lanes``, are routed exactly
    as there; pass ``min_lanes=1`` to price every out-of-order cell on
    the kernel.
    """
    key = program.name if program is not None else "bench"
    benches = {key: (program, static, trace, image)}
    grid = [(key, arch, codepack) for arch, codepack in cells]
    return price_grid(benches, grid, max_instructions=max_instructions,
                      critical_word_first=critical_word_first,
                      native_prefetch=native_prefetch,
                      min_lanes=min_lanes, declines=declines,
                      routes=routes, work=work)
