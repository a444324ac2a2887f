"""Trace-once, replay-many: the functional/timing split.

The paper's evaluation sweeps hundreds of *timing* configurations --
issue widths, cache geometries, bus widths, memory latencies, CodePack
modes -- over the *same* dynamic instruction streams: the CPU is
unaware of compression (paper Section 2.3), so the architectural
execution of a benchmark is identical in every cell of every table.
This module exploits that by splitting the simulator's two halves:

* :func:`record_trace` runs the functional core **once** per
  ``(program, max_instructions)`` and records everything the timing
  models ever ask of it into compact flat arrays -- straight-line
  *fetch-run spans* (start static index + length), taken/not-taken
  outcomes for conditional branches, byte addresses for loads/stores,
  and syscall output events.  Recording executes block-at-a-time over
  the compiled closures of :mod:`repro.sim.blockexec`, so the one
  functional pass is itself fast.
* :func:`replay_trace` re-runs the **timing only**: each dynamic
  instruction is processed in O(1) over preallocated arrays
  (register-ready scoreboard, heap-ordered function units,
  window/commit ring) without touching registers or memory.
  :class:`TraceProfile` precomputes the cache/predictor outcome
  streams once per ``(icache, dcache, predictor)`` geometry -- they
  are identical across every miss-path latency sweeping over the same
  trace -- and the ``_replay_*_stream`` kernels consume the profile in
  one tight scan, consulting the miss path (native or CodePack) at
  exactly the I-misses where the execute-driven models do.  Replay is
  therefore **cycle-exact** against
  :func:`repro.sim.inorder.run_inorder` and
  :func:`repro.sim.ooo.run_ooo` -- same cycles, same cache, branch and
  engine statistics, verified by the differential suite in
  ``tests/sim/test_replay.py``.
* A cap inside a trace needs no code of its own: the first ``k``
  instructions of a trace are the trace :func:`record_trace` records
  with cap ``k``, so :func:`trace_prefix` cuts it down and the kernels
  replay that prefix to its end.
* :func:`save_trace` / :func:`load_trace` persist traces in a
  versioned, checksummed binary format, and :class:`TraceCache` keys
  them by SHA-256 of the program content plus the instruction cap under
  ``.repro_cache/traces/`` -- the same content-hash invalidation
  discipline as the sweep result cache: a new trace-format version or a
  changed program simply never matches an old file.

The split follows the flat-array, branch-lean kernel style of Lemire &
Boytsov's vectorised integer decoding and the decoupled
functional/timing evaluation methodology common to memory-compression
studies: capture the expensive, configuration-independent work once,
then make the per-configuration pass as close to a straight array scan
as Python allows.
"""

import hashlib
import json
import os
import struct
import sys
import tempfile
from array import array
from bisect import bisect_left
from heapq import heapreplace

from repro.sim.blockexec import get_block_table
from repro.sim.cpu import (
    EX_BRANCH,
    EX_JUMP,
    EX_LOAD,
    EX_MULT,
    EX_STORE,
    EX_SYSCALL,
    FunctionalCore,
    SimulationError,
    exec_class,
    predecode,
)
from repro.sim.inorder import DECODE_LATENCY
from repro.sim.ooo import FRONT_END_LATENCY

#: Trace format/behaviour version.  Bump whenever the recorded contents
#: or their binary layout change; persisted traces with another version
#: are rejected on load and re-recorded.
TRACE_VERSION = 2

_MAGIC = b"RPRTRACE"
_DIGEST_BYTES = 32  # trailing SHA-256 of every byte before it


class TraceError(ValueError):
    """A trace cannot be used for the requested replay."""


class TraceFormatError(TraceError):
    """A persisted trace file is corrupt, truncated or mis-versioned."""


def program_digest(program):
    """SHA-256 over everything that determines a program's execution.

    Text contents and base, entry point and initialised data -- the
    functional trace is fully determined by these, so they (plus the
    instruction cap) key the trace cache.  The digest is memoised on
    the program object.
    """
    cached = getattr(program, "_trace_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(struct.pack("<3I", program.text_base, program.entry,
                         len(program.text)))
    h.update(struct.pack("<%dI" % len(program.text), *program.text))
    for addr in sorted(program.data):
        h.update(struct.pack("<IB", addr, program.data[addr]))
    digest = h.hexdigest()
    try:
        program._trace_digest = digest
    except AttributeError:  # slotted/frozen program stand-ins
        pass
    return digest


class Trace:
    """One recorded dynamic instruction stream, as flat arrays.

    * ``span_start[s]`` / ``span_len[s]`` -- the s-th straight-line
      fetch run: ``span_len[s]`` instructions starting at static index
      ``span_start[s]`` (consecutive 4-byte addresses from
      ``text_base + 4 * span_start[s]``).
    * ``takens`` -- one 0/1 byte per *executed conditional branch*, in
      dynamic order.
    * ``mem_addrs`` -- one byte address per executed load/store, in
      dynamic order.
    * ``out_pos`` / ``out_text`` -- syscall output events: chunk
      ``out_text[k]`` was emitted by the instruction with dynamic index
      ``out_pos[k]`` (0-based), so a prefix of the trace keeps exactly
      the output its instructions emitted.
    * ``fault`` -- the :class:`SimulationError` message when recording
      ended in an architectural fault (``None`` otherwise); the
      faulting instruction is *not* part of the trace.

    A trace recorded with cap ``max_instructions`` replays exactly for
    any cap ``<= n`` (a smaller cap replays :func:`trace_prefix`); for
    a larger cap it is only valid when the program halted or faulted
    (``halted`` / ``fault``), i.e. when the stream would not have
    continued anyway.
    """

    __slots__ = ("n", "span_start", "span_len", "takens", "mem_addrs",
                 "out_pos", "out_text", "halted", "exit_code", "fault",
                 "max_instructions", "text_base", "program_sha",
                 "_profiles", "_prefixes", "_dyn", "_columns", "_vdeps",
                 "_vkinds")

    def __init__(self, n, span_start, span_len, takens, mem_addrs,
                 out_pos, out_text, halted, exit_code, fault,
                 max_instructions, text_base, program_sha):
        self.n = n
        self.span_start = span_start
        self.span_len = span_len
        self.takens = takens
        self.mem_addrs = mem_addrs
        self.out_pos = out_pos
        self.out_text = out_text
        self.halted = halted
        self.exit_code = exit_code
        self.fault = fault
        self.max_instructions = max_instructions
        self.text_base = text_base
        self.program_sha = program_sha

    def covers(self, max_instructions):
        """Whether replaying under *max_instructions* is exact.

        True when the cap truncates within the trace, or when the
        recorded stream ended for a cap-independent reason (halt or
        architectural fault).
        """
        return (max_instructions <= self.n or self.halted
                or self.fault is not None)


# ---------------------------------------------------------------------------
# Recording (the one-time functional pass)
# ---------------------------------------------------------------------------

def record_trace(program, static=None, max_instructions=5_000_000):
    """Execute *program* functionally once; return its :class:`Trace`.

    Runs block-at-a-time over the compiled closures of
    :class:`~repro.sim.blockexec.BlockTable` (no timing), recording
    spans, branch outcomes, memory addresses and output events.  An
    architectural fault ends the trace and is stored in ``fault``
    rather than raised -- replaying past the recorded stream re-raises
    it, mirroring the execute-driven models.
    """
    if static is None:
        static = predecode(program)
    table = get_block_table(static)
    ops = table.ops
    next_term = table.next_term

    core = FunctionalCore(program, static=static)
    if core._pc_index is not None:
        raise ValueError("tracing requires the fixed-width SS32 layout")
    regs = core.regs
    text_base = core._text_base
    text_len = core._text_len
    output = core.output

    span_start = array("q")
    span_len = array("q")
    takens = bytearray()
    mem_addrs = array("q")
    out_pos = array("q")
    out_text = []

    pc = core.pc
    instret = 0
    block_base = 0
    index = 0
    halted = False
    fault = None
    n_out = 0

    try:
        while not halted and instret < max_instructions:
            block_base = instret
            index = (pc - text_base) >> 2
            if not 0 <= index < text_len:
                raise SimulationError("pc %#x outside .text" % pc)
            term = next_term[index]
            last = instret + (term - index)
            if last >= max_instructions:
                term -= last - max_instructions + 1
            for j in range(index, term + 1):
                ex, fn, latency, srcs, dsts, taken_target = ops[j]
                if j != term:
                    # Straight-line body: plain/load/store/mult only.
                    if ex == 0:
                        fn(regs)
                    elif ex == EX_LOAD or ex == EX_STORE:
                        mem_addrs.append(fn(core))
                    else:  # EX_MULT
                        fn(regs)
                elif ex == EX_BRANCH:
                    taken = fn(regs)
                    takens.append(1 if taken else 0)
                    pc = taken_target if taken \
                        else text_base + ((j + 1) << 2)
                elif ex == EX_JUMP:
                    pc = fn(regs)
                elif ex == EX_SYSCALL:
                    core.pc = text_base + (j << 2)
                    fn(core)
                    while len(output) > n_out:
                        out_pos.append(instret)
                        out_text.append(output[n_out])
                        n_out += 1
                    halted = core.halted
                    pc = text_base + ((j + 1) << 2)
                else:
                    # A truncated block (budget) or text running out:
                    # the last instruction is an ordinary one.
                    if ex == 0 or ex == EX_MULT:
                        fn(regs)
                    else:
                        mem_addrs.append(fn(core))
                    pc = text_base + ((j + 1) << 2)
                instret += 1
            span_start.append(index)
            span_len.append(instret - block_base)
    except SimulationError as exc:
        fault = str(exc)
        done = instret - block_base
        if done:
            span_start.append(index)
            span_len.append(done)

    return Trace(
        n=instret,
        span_start=span_start,
        span_len=span_len,
        takens=takens,
        mem_addrs=mem_addrs,
        out_pos=out_pos,
        out_text=out_text,
        halted=halted,
        exit_code=core.exit_code if halted else 0,
        fault=fault,
        max_instructions=max_instructions,
        text_base=text_base,
        program_sha=program_digest(program),
    )


def trace_prefix(trace, static, limit):
    """The trace of the first *limit* instructions of *trace*.

    A trace cut at ``limit < trace.n`` is itself a trace: field for
    field the one :func:`record_trace` returns with
    ``max_instructions=limit``.  The spans are cut at ``limit``; the
    branch outcomes and memory addresses the kept spans consumed are
    counted per span from the static execution classes; the output
    events emitted before ``limit`` are kept.  The prefix neither
    halts nor faults.  Memoised on *trace* per ``limit``.
    """
    try:
        prefixes = trace._prefixes
    except AttributeError:
        prefixes = trace._prefixes = {}
    prefix = prefixes.get(limit)
    if prefix is not None:
        return prefix
    ex = get_replay_table(static).ex
    span_start = array("q")
    span_len = array("q")
    branches = 0
    mems = 0
    done = 0
    for index, length in zip(trace.span_start, trace.span_len):
        if done >= limit:
            break
        if length > limit - done:
            length = limit - done
        span_start.append(index)
        span_len.append(length)
        end = index + length
        branches += ex.count(EX_BRANCH, index, end)
        mems += ex.count(EX_LOAD, index, end) + ex.count(EX_STORE, index, end)
        done += length
    outs = bisect_left(trace.out_pos, limit)
    prefix = prefixes[limit] = Trace(
        n=limit,
        span_start=span_start,
        span_len=span_len,
        takens=trace.takens[:branches],
        mem_addrs=trace.mem_addrs[:mems],
        out_pos=trace.out_pos[:outs],
        out_text=trace.out_text[:outs],
        halted=False,
        exit_code=0,
        fault=None,
        max_instructions=limit,
        text_base=trace.text_base,
        program_sha=trace.program_sha,
    )
    return prefix


# ---------------------------------------------------------------------------
# Persistence: versioned, checksummed binary format
# ---------------------------------------------------------------------------

def _array_bytes(arr):
    if sys.byteorder == "big":  # stored little-endian
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _array_from(data, typecode="q"):
    arr = array(typecode)
    arr.frombytes(data)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def save_trace(trace, path):
    """Write *trace* to *path* (atomic: temp file + replace).

    Layout (docs/FORMATS.md): magic, version, header length, a JSON
    header, the array payload, and a SHA-256 trailer over all of them.
    """
    payload = b"".join([
        _array_bytes(trace.span_start),
        _array_bytes(trace.span_len),
        bytes(trace.takens),
        _array_bytes(trace.mem_addrs),
        _array_bytes(trace.out_pos),
    ])
    header = {
        "version": TRACE_VERSION,
        "n": trace.n,
        "spans": len(trace.span_start),
        "branches": len(trace.takens),
        "mems": len(trace.mem_addrs),
        "outs": len(trace.out_pos),
        "out_text": trace.out_text,
        "halted": trace.halted,
        "exit_code": trace.exit_code,
        "fault": trace.fault,
        "max_instructions": trace.max_instructions,
        "text_base": trace.text_base,
        "program_sha": trace.program_sha,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([_MAGIC, struct.pack("<II", TRACE_VERSION, len(blob)),
                     blob, payload])
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(body)
            handle.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_trace(path):
    """Read a trace written by :func:`save_trace`.

    Raises :class:`TraceFormatError` for anything that is not a whole,
    current-version, checksum-clean, self-consistent trace file.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise TraceFormatError("unreadable trace file: %s" % exc)
    fixed = len(_MAGIC) + 8
    if len(raw) < fixed or raw[:len(_MAGIC)] != _MAGIC:
        raise TraceFormatError("not a trace file: %s" % path)
    version, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    if version != TRACE_VERSION:
        raise TraceFormatError(
            "trace version %d != current %d" % (version, TRACE_VERSION))
    if len(raw) < fixed + header_len:
        raise TraceFormatError("truncated trace header: %s" % path)
    try:
        header = json.loads(raw[fixed:fixed + header_len].decode("utf-8"))
    except ValueError:
        raise TraceFormatError("corrupt trace header: %s" % path)
    body_len = len(raw) - _DIGEST_BYTES
    payload = raw[fixed + header_len:body_len]
    try:
        spans = header["spans"]
        branches = header["branches"]
        mems = header["mems"]
        outs = header["outs"]
        expected = 8 * (2 * spans + mems + outs) + branches
        if len(payload) != expected:
            raise TraceFormatError(
                "trace payload is %d bytes, expected %d"
                % (len(payload), expected))
        if hashlib.sha256(raw[:body_len]).digest() != raw[body_len:]:
            raise TraceFormatError("trace checksum mismatch: %s" % path)
        pos = 0
        span_start = _array_from(payload[pos:pos + 8 * spans])
        pos += 8 * spans
        span_len = _array_from(payload[pos:pos + 8 * spans])
        pos += 8 * spans
        takens = bytearray(payload[pos:pos + branches])
        pos += branches
        mem_addrs = _array_from(payload[pos:pos + 8 * mems])
        pos += 8 * mems
        out_pos = _array_from(payload[pos:pos + 8 * outs])
        if header["n"] != sum(span_len):
            raise TraceFormatError(
                "trace header n=%r but its spans hold %d instructions"
                % (header["n"], sum(span_len)))
        if len(header["out_text"]) != outs:
            raise TraceFormatError(
                "trace has %d output positions but %d output chunks"
                % (outs, len(header["out_text"])))
        return Trace(
            n=header["n"],
            span_start=span_start,
            span_len=span_len,
            takens=takens,
            mem_addrs=mem_addrs,
            out_pos=out_pos,
            out_text=list(header["out_text"]),
            halted=header["halted"],
            exit_code=header["exit_code"],
            fault=header["fault"],
            max_instructions=header["max_instructions"],
            text_base=header["text_base"],
            program_sha=header["program_sha"],
        )
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError("corrupt trace file %s: %s" % (path, exc))


class TraceCache:
    """SHA-256-keyed trace files under a directory.

    The key hashes the program digest, the instruction cap and
    :data:`TRACE_VERSION` (same canonical-JSON discipline as
    :func:`repro.eval.sweep.cell_key`), so a format bump or program
    change invalidates by construction.  Unreadable entries count as
    misses and are overwritten on the next store.

    ``limit_bytes`` bounds the directory's total ``.trace`` payload:
    after every :meth:`put` the least-recently-used entries (by file
    mtime -- :meth:`get` touches entries it serves) are deleted until
    the total fits.  The entry just written survives even when it is
    alone over the limit, so a store is never immediately useless.
    ``None`` (the default) keeps the historical unbounded behaviour.
    """

    def __init__(self, root, limit_bytes=None):
        if limit_bytes is not None:
            limit_bytes = int(limit_bytes)
            if limit_bytes < 0:
                raise ValueError("limit_bytes must be >= 0 or None")
        self.root = root
        self.limit_bytes = limit_bytes
        self.hits = 0
        self.misses = 0
        self.pruned_files = 0
        self.pruned_bytes = 0
        os.makedirs(root, exist_ok=True)

    @staticmethod
    def key(program, max_instructions):
        payload = json.dumps(
            {"trace_version": TRACE_VERSION,
             "program_sha": program_digest(program),
             "max_instructions": max_instructions},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key):
        return os.path.join(self.root, key + ".trace")

    def get(self, program, max_instructions):
        """The cached trace, or ``None`` (missing, corrupt, stale)."""
        try:
            trace = load_trace(self._path(self.key(program,
                                                   max_instructions)))
        except TraceFormatError:
            self.misses += 1
            return None
        if trace.program_sha != program_digest(program):
            self.misses += 1
            return None
        self.hits += 1
        path = self._path(self.key(program, max_instructions))
        try:
            os.utime(path)  # mark as recently used for LRU pruning
        except OSError:
            pass
        return trace

    def put(self, program, trace):
        path = self._path(self.key(program, trace.max_instructions))
        save_trace(trace, path)
        if self.limit_bytes is not None:
            self.prune(keep=path)

    def prune(self, keep=None):
        """Delete LRU ``.trace`` files until the total fits the limit.

        *keep* (a path) is exempt -- the caller just wrote it.  Files
        that vanish concurrently are skipped; pruning is best-effort
        and never raises for racing sweeps.  Returns the number of
        files deleted.
        """
        if self.limit_bytes is None:
            return 0
        entries = []
        total = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".trace"):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.limit_bytes:
            return 0
        deleted = 0
        for mtime, size, path in sorted(entries):
            if total <= self.limit_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            deleted += 1
            self.pruned_files += 1
            self.pruned_bytes += size
        return deleted

    def get_or_record(self, program, static=None, max_instructions=5_000_000):
        """Load the trace, recording and persisting it on a miss."""
        trace = self.get(program, max_instructions)
        if trace is None:
            trace = record_trace(program, static=static,
                                 max_instructions=max_instructions)
            self.put(program, trace)
        return trace


# ---------------------------------------------------------------------------
# The compiled replay table
# ---------------------------------------------------------------------------

#: Operand slots beyond the 34 architectural scoreboard entries: reads
#: of NO_SRC always see 0 (the slot is never written), writes to NO_DST
#: go to a scratch entry no instruction reads.  Padding every
#: instruction to exactly two sources and two destinations lets the
#: replay kernels index the scoreboard unconditionally instead of
#: looping over variable-length operand tuples (the SS32 ISA never has
#: more than two of either).
NO_SRC = 34
NO_DST = 35
N_SLOTS = 36


class ReplayTable:
    """Per-program timing-only view of the static instructions.

    ``ops[i]`` is ``(ex, latency, s0, s1, d0, d1)`` -- everything the
    timing models read from a :class:`~repro.sim.cpu.StaticInstr`
    except its address (recomputed incrementally from the span) and its
    functional effect (already recorded).  Operands are padded to fixed
    slots with ``NO_SRC``/``NO_DST``.  Unlike
    :class:`~repro.sim.blockexec.BlockTable` no closures are compiled,
    so replaying a disk-cached trace never pays for compilation.
    """

    __slots__ = ("ops", "ex")

    def __init__(self, static):
        ops = []
        for st in static:
            s = st.srcs
            d = st.dsts
            ops.append((exec_class(st), st.latency,
                        s[0] if len(s) > 0 else NO_SRC,
                        s[1] if len(s) > 1 else NO_SRC,
                        d[0] if len(d) > 0 else NO_DST,
                        d[1] if len(d) > 1 else NO_DST))
        self.ops = ops
        # Execution classes alone, as a flat byte string: the profile
        # builder walks these without touching the operand tuples.
        self.ex = bytes(op[0] for op in ops)


def get_replay_table(static):
    """The (cached) :class:`ReplayTable` for a predecoded program."""
    table = getattr(static, "replay_table", None)
    if table is None:
        table = ReplayTable(static)
        try:
            static.replay_table = table  # StaticText caches; lists can't
        except AttributeError:
            pass
    return table


# ---------------------------------------------------------------------------
# Outcome profiles: the second level of the functional/timing split
# ---------------------------------------------------------------------------

class TraceProfile:
    """Cache and predictor *outcomes* for one trace on one geometry.

    The timing models consult three stateful structures per dynamic
    instruction -- the I-cache (one access per line visit), the D-cache
    (per load/store) and the branch predictor (per conditional branch).
    All three are driven purely by the address/outcome stream of the
    trace: no timing feeds back into them, and no miss path mutates
    them (the native prefetcher uses its own one-line buffer; the
    CodePack engine only times refills).  Their outcomes are therefore
    fixed per ``(trace, icache, dcache, predictor)`` and can be
    recorded once and shared by every miss-path configuration -- which
    is most of a sweep: all CodePack variants of one benchmark on one
    architecture replay the same profile.

    * ``fe_pos[k]`` -- dynamic index of the k-th I-cache *line visit*;
      ``fe_flags[k]`` is 1 for a miss, 2 for a hit on the line most
      recently refilled (its words may still be in flight), 0 for a
      plain hit; ``fe_addr[k]`` is the visiting fetch address.
    * ``dmiss`` -- one byte per load/store event (aligned with
      ``Trace.mem_addrs``): 1 when a *load* missed the D-cache.
    * ``brk`` -- one byte per conditional branch (aligned with
      ``Trace.takens``), the folded front-end outcome: 0 not taken and
      predicted, 1 taken and predicted, 2 mispredicted.

    Totals (``icache_accesses`` .. ``mispredicts``) carry the cache and
    predictor statistics of a full replay; ``final_cur_line`` is the
    fetch unit's line bookkeeping at exit.
    """

    __slots__ = ("fe_pos", "fe_flags", "fe_addr", "dmiss", "brk",
                 "icache_accesses", "icache_misses",
                 "dcache_accesses", "dcache_misses",
                 "lookups", "mispredicts", "final_cur_line")

    def __init__(self, fe_pos, fe_flags, fe_addr, dmiss, brk,
                 icache_accesses, icache_misses, dcache_accesses,
                 dcache_misses, lookups, mispredicts, final_cur_line):
        self.fe_pos = fe_pos
        self.fe_flags = fe_flags
        self.fe_addr = fe_addr
        self.dmiss = dmiss
        self.brk = brk
        self.icache_accesses = icache_accesses
        self.icache_misses = icache_misses
        self.dcache_accesses = dcache_accesses
        self.dcache_misses = dcache_misses
        self.lookups = lookups
        self.mispredicts = mispredicts
        self.final_cur_line = final_cur_line


def build_profile(static, trace, arch):
    """Run the cache/predictor models over *trace* once; no timing."""
    from repro.sim.branch import make_predictor
    from repro.sim.cache import Cache

    icache = Cache(arch.icache)
    dcache = Cache(arch.dcache)
    predictor = make_predictor(arch.predictor)
    ex_codes = get_replay_table(static).ex

    line_bytes = icache.line_bytes
    access_line = icache.access_line
    dcache_access = dcache.access
    predict = predictor.predict
    update = predictor.update

    span_start = trace.span_start
    span_len = trace.span_len
    takens = trace.takens
    mem_addrs = trace.mem_addrs
    text_base = trace.text_base

    fe_pos = array("q")
    fe_flags = bytearray()
    fe_addr = array("q")
    dmiss = bytearray(len(mem_addrs))
    brk = bytearray(len(takens))

    cur_line = -1
    fill_line = -1
    mispredicts = 0
    i = 0
    mi = 0
    bi = 0
    for s in range(len(span_start)):
        index = span_start[s]
        addr = text_base + (index << 2)
        for j in range(index, index + span_len[s]):
            line = addr // line_bytes
            if line != cur_line:
                cur_line = line
                fe_pos.append(i)
                fe_addr.append(addr)
                if not access_line(line):
                    fill_line = line
                    fe_flags.append(1)
                else:
                    fe_flags.append(2 if fill_line == line else 0)
            ex = ex_codes[j]
            if ex:
                if ex == EX_LOAD:
                    if not dcache_access(mem_addrs[mi]):
                        dmiss[mi] = 1
                    mi += 1
                elif ex == EX_STORE:
                    dcache_access(mem_addrs[mi])
                    mi += 1
                elif ex == EX_BRANCH:
                    taken = takens[bi]
                    predicted = predict(addr)
                    update(addr, taken)
                    if predicted != taken:
                        brk[bi] = 2
                        mispredicts += 1
                        cur_line = -1
                    elif taken:
                        brk[bi] = 1
                        cur_line = -1
                    bi += 1
                elif ex == EX_JUMP:
                    cur_line = -1
            addr += 4
            i += 1

    return TraceProfile(
        fe_pos=fe_pos,
        fe_flags=fe_flags,
        fe_addr=fe_addr,
        dmiss=dmiss,
        brk=brk,
        icache_accesses=icache.stats.accesses,
        icache_misses=icache.stats.misses,
        dcache_accesses=dcache.stats.accesses,
        dcache_misses=dcache.stats.misses,
        lookups=bi,
        mispredicts=mispredicts,
        final_cur_line=cur_line,
    )


def get_profile(static, trace, arch):
    """The (cached) outcome profile of *trace* on *arch*'s geometry.

    Keyed by the cache and predictor configs only -- architectures
    differing in issue width, memory system or miss path share one
    profile.

    Built by the vectorized column scan
    (:func:`repro.sim.vecreplay.build_profile_vec`), which the
    differential suite holds equal to the scalar walk above; an empty
    trace, or a predictor outside the vector paths, takes the scalar
    walk.
    """
    key = (arch.icache, arch.dcache, arch.predictor)
    try:
        profiles = trace._profiles
    except AttributeError:
        profiles = trace._profiles = {}
    profile = profiles.get(key)
    if profile is None:
        from repro.sim import vecreplay
        profile = vecreplay.build_profile_vec(static, trace, arch)
        if profile is None:
            profile = build_profile(static, trace, arch)
        profiles[key] = profile
    return profile


def _apply_profile_stats(profile, fetch_unit, dcache):
    """Carry a full replay's cache statistics onto the cell's caches."""
    stats = fetch_unit.icache.stats
    stats.accesses += profile.icache_accesses
    stats.misses += profile.icache_misses
    stats = dcache.stats
    stats.accesses += profile.dcache_accesses
    stats.misses += profile.dcache_misses
    fetch_unit._cur_line = profile.final_cur_line


def _dyn_ops(trace, ops):
    """The trace's dynamic instruction stream as one flat op list.

    ``result[i]`` is the :class:`ReplayTable` entry of the i-th dynamic
    instruction -- the span indirection resolved once per trace (cheap:
    one C-level slice append per span), so the full-replay kernels run
    a single flat loop with no span bookkeeping.  Cached on the trace
    and shared by every architecture and miss-path configuration.
    """
    dyn = getattr(trace, "_dyn", None)
    if dyn is None:
        dyn = []
        extend = dyn.extend
        span_start = trace.span_start
        span_len = trace.span_len
        for s in range(len(span_start)):
            index = span_start[s]
            extend(ops[index:index + span_len[s]])
        trace._dyn = dyn
    return dyn


# ---------------------------------------------------------------------------
# Timing-only replay
# ---------------------------------------------------------------------------

def replay_trace(static, trace, fetch_unit, dcache, memory, arch,
                 max_instructions):
    """Replay *trace* under *arch*'s timing model, timing only.

    Cycle-exact against :func:`repro.sim.inorder.run_inorder` /
    :func:`repro.sim.ooo.run_ooo` driving ``FunctionalCore.step``.  A
    cap inside the trace replays :func:`trace_prefix`, so every replay
    runs a stream kernel to the end of its trace.  Returns ``(cycles,
    branch_lookups, branch_mispredicts, replayed)``, where ``replayed``
    is the trace that ran (*trace* or its prefix), whose ``n``,
    ``halted``, ``exit_code`` and output are the run's; the cache
    statistics and fetch-unit state are left exactly as the
    execute-driven run leaves them.
    """
    if not trace.covers(max_instructions):
        raise TraceError(
            "trace records %d instructions (no halt/fault); cannot "
            "replay %d" % (trace.n, max_instructions))
    if max_instructions < trace.n:
        trace = trace_prefix(trace, static, max(max_instructions, 0))
    profile = get_profile(static, trace, arch)
    kernel = _replay_inorder_stream if arch.in_order else _replay_ooo_stream
    cycles = kernel(get_replay_table(static).ops, trace, profile,
                    fetch_unit, dcache, memory, arch)
    _apply_profile_stats(profile, fetch_unit, dcache)
    return cycles, profile.lookups, profile.mispredicts, trace


# ---------------------------------------------------------------------------
# Profile-driven stream kernels
# ---------------------------------------------------------------------------

def _replay_inorder_stream(ops, trace, profile, fetch_unit, dcache, memory,
                           arch):
    """Full-trace in-order replay over a :class:`TraceProfile`.

    All cache and predictor outcomes come from the profile's flat
    streams, so the loop makes no per-instruction calls at all; only
    actual I-misses reach the miss path (which is the one component
    that differs between sweep cells).  Returns the cycle count;
    cache/branch statistics are the profile's totals.
    """
    dyn = _dyn_ops(trace, ops)
    fe_pos = profile.fe_pos
    fe_flags = profile.fe_flags
    fe_addr = profile.fe_addr
    dmiss = profile.dmiss
    brk = profile.brk
    n = trace.n
    n_fe = len(fe_pos)

    reg_ready = [0] * N_SLOTS
    fetch_time = 0
    prev_issue = -1
    mult_free = 0
    last_complete = 0
    penalty = arch.mispredict_penalty
    dline = dcache.line_bytes
    shared_bus = getattr(memory, "shared", False)
    base_memory = memory.config if shared_bus else memory
    dmiss_latency = base_memory.access_done(dline, 0) + 1
    memory_access_done = memory.access_done

    line_bytes = fetch_unit.line_bytes
    miss = fetch_unit.miss_path.miss
    mtrace = fetch_unit.trace
    fill = fetch_unit._fill
    fill_times = fill.word_times if fill is not None else None

    consult = False
    w = 0
    fi = 0
    next_fe = fe_pos[0] if n_fe else n
    mi = 0
    bi = 0

    for i in range(n):
        ex, latency, s0, s1, d0, d1 = dyn[i]

        # ---- fetch: profile events and in-flight fill words ----------
        if i == next_fe:
            f = fe_flags[fi]
            if f == 1:
                addr = fe_addr[fi]
                fill = miss(addr, fetch_time)
                fetch_unit._fill = fill
                if mtrace is not None:
                    mtrace.record(addr, fetch_time, fill)
                fill_times = fill.word_times
                available = fill.critical_ready
                if available > fetch_time:
                    fetch_time = available
                w = ((addr % line_bytes) >> 2) + 1
                consult = True
            elif f:
                w = (fe_addr[fi] % line_bytes) >> 2
                available = fill_times[w]
                w += 1
                if available > fetch_time:
                    fetch_time = available
                else:
                    available = fetch_time
                consult = True
            else:
                available = fetch_time
                consult = False
            fi += 1
            next_fe = fe_pos[fi] if fi < n_fe else n
        elif consult:
            available = fill_times[w]
            w += 1
            if available > fetch_time:
                fetch_time = available
            else:
                available = fetch_time
        else:
            available = fetch_time

        # ---- issue / complete ----------------------------------------
        issue = available + DECODE_LATENCY
        if issue <= prev_issue:
            issue = prev_issue + 1
        ready = reg_ready[s0]
        if ready > issue:
            issue = ready
        ready = reg_ready[s1]
        if ready > issue:
            issue = ready
        if ex == 0:
            complete = issue + latency
        elif ex == EX_LOAD:
            complete = issue + latency
            if dmiss[mi]:
                if shared_bus:
                    complete = memory_access_done(dline, issue) + 1
                else:
                    complete = issue + dmiss_latency
            mi += 1
        elif ex == EX_STORE:
            mi += 1
            complete = issue + latency
        elif ex == EX_MULT:
            if mult_free > issue:
                issue = mult_free
            complete = issue + latency
            mult_free = complete
        else:
            complete = issue + latency
        reg_ready[d0] = complete
        reg_ready[d1] = complete
        prev_issue = issue
        if complete > last_complete:
            last_complete = complete

        # ---- control flow --------------------------------------------
        if ex == EX_BRANCH:
            if brk[bi] == 2:
                restart = complete + penalty - latency
                if restart > fetch_time:
                    fetch_time = restart
            else:
                fetch_time += 1
            bi += 1
        else:
            fetch_time += 1

    return last_complete


def _replay_ooo_stream(ops, trace, profile, fetch_unit, dcache, memory,
                       arch):
    """Full-trace out-of-order replay over a :class:`TraceProfile`.

    Same contract as :func:`_replay_inorder_stream`: no per-instruction
    calls, miss-path consultations only at the profile's recorded
    I-miss events.  Commit times are non-decreasing (clamped to the
    previous commit), so the final commit time is the cycle count.
    """
    dyn = _dyn_ops(trace, ops)
    fe_pos = profile.fe_pos
    fe_flags = profile.fe_flags
    fe_addr = profile.fe_addr
    dmiss = profile.dmiss
    brk = profile.brk
    n = trace.n
    n_fe = len(fe_pos)

    reg_ready = [0] * N_SLOTS
    ruu_size = arch.ruu_size
    commit_ring = [0] * ruu_size
    ring_pos = 0
    fetch_width = arch.fetch_queue
    commit_width = arch.issue_width
    penalty = arch.mispredict_penalty
    alu_free = [0] * arch.n_alu
    mult_free = [0] * arch.n_mult
    mem_free = [0] * arch.n_memport
    fq_time = 0
    fq_count = 0
    cm_time = 0
    cm_count = 0
    prev_commit = 0
    dline = dcache.line_bytes
    shared_bus = getattr(memory, "shared", False)
    base_memory = memory.config if shared_bus else memory
    dmiss_latency = base_memory.access_done(dline, 0) + 1
    memory_access_done = memory.access_done
    heap_replace = heapreplace

    line_bytes = fetch_unit.line_bytes
    miss = fetch_unit.miss_path.miss
    mtrace = fetch_unit.trace
    fill = fetch_unit._fill
    fill_times = fill.word_times if fill is not None else None

    consult = False
    w = 0
    fi = 0
    next_fe = fe_pos[0] if n_fe else n
    front_end = FRONT_END_LATENCY
    mi = 0
    bi = 0

    for i in range(n):
        ex, latency, s0, s1, d0, d1 = dyn[i]

        # ---- fetch: profile events and in-flight fill words ----------
        if i == next_fe:
            f = fe_flags[fi]
            if f == 1:
                addr = fe_addr[fi]
                fill = miss(addr, fq_time)
                fetch_unit._fill = fill
                if mtrace is not None:
                    mtrace.record(addr, fq_time, fill)
                fill_times = fill.word_times
                a = fill.critical_ready
                if a > fq_time:
                    fq_time = a
                    fq_count = 0
                w = ((addr % line_bytes) >> 2) + 1
                consult = True
            elif f:
                w = (fe_addr[fi] % line_bytes) >> 2
                a = fill_times[w]
                w += 1
                if a > fq_time:
                    fq_time = a
                    fq_count = 0
                consult = True
            else:
                consult = False
            fi += 1
            next_fe = fe_pos[fi] if fi < n_fe else n
        elif consult:
            a = fill_times[w]
            w += 1
            if a > fq_time:
                fq_time = a
                fq_count = 0
        dispatch = fq_time + front_end
        fq_count += 1
        if fq_count >= fetch_width:
            fq_time += 1
            fq_count = 0

        # ---- dispatch window / operands / function unit --------------
        t = commit_ring[ring_pos]
        if t > dispatch:
            dispatch = t
        t = reg_ready[s0]
        if t > dispatch:
            dispatch = t
        t = reg_ready[s1]
        if t > dispatch:
            dispatch = t
        if ex == 0:
            t = alu_free[0]
            if dispatch > t:
                t = dispatch
            heap_replace(alu_free, t + 1)
            complete = t + latency
        elif ex == EX_LOAD:
            t = mem_free[0]
            if dispatch > t:
                t = dispatch
            heap_replace(mem_free, t + 1)
            complete = t + latency
            if dmiss[mi]:
                if shared_bus:
                    complete = memory_access_done(dline, t) + 1
                else:
                    complete = t + dmiss_latency
            mi += 1
        elif ex == EX_STORE:
            t = mem_free[0]
            if dispatch > t:
                t = dispatch
            heap_replace(mem_free, t + 1)
            complete = t + latency
            mi += 1
        elif ex == EX_MULT:
            t = mult_free[0]
            if dispatch > t:
                t = dispatch
            heap_replace(mult_free, t + latency)
            complete = t + latency
        else:
            t = alu_free[0]
            if dispatch > t:
                t = dispatch
            heap_replace(alu_free, t + 1)
            complete = t + latency
        reg_ready[d0] = complete
        reg_ready[d1] = complete

        # ---- commit: in order, commit_width per cycle ----------------
        c = complete + 1
        if c < prev_commit:
            c = prev_commit
        if c > cm_time:
            cm_time = c
            cm_count = 1
        else:
            c = cm_time
            cm_count += 1
        if cm_count >= commit_width:
            cm_time += 1
            cm_count = 0
        prev_commit = c
        commit_ring[ring_pos] = c
        ring_pos += 1
        if ring_pos == ruu_size:
            ring_pos = 0

        # ---- control flow --------------------------------------------
        if ex >= EX_BRANCH:
            if ex == EX_BRANCH:
                k = brk[bi]
                bi += 1
                if k == 2:
                    t = complete + penalty
                    if t > fq_time:
                        fq_time = t
                        fq_count = 0
                elif k:
                    fq_time += 1
                    fq_count = 0
            elif ex == EX_JUMP:
                fq_time += 1
                fq_count = 0

    return prev_commit
