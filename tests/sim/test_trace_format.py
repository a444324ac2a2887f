"""The persisted trace format and the SHA-keyed trace cache.

:func:`save_trace` / :func:`load_trace` define a versioned, checksummed
binary container (docs/FORMATS.md); anything short of a whole,
current-version, checksum-clean, self-consistent file must be rejected
with :class:`TraceFormatError`.
:class:`TraceCache` layers content-addressed storage on top and must
invalidate on program change and format-version bumps by construction.
"""

import hashlib
import json
import os
import struct

import pytest

from repro.isa.assembler import assemble
from repro.sim import replay as replay_mod
from repro.sim.machine import prepare
from repro.sim.replay import (
    TRACE_VERSION,
    TraceCache,
    TraceFormatError,
    load_trace,
    program_digest,
    record_trace,
    save_trace,
)
from repro.workloads.suite import build_benchmark

_MAGIC = replay_mod._MAGIC

SOURCE = """
.text 0x400000
    addiu $t0, $zero, 3
    lui $t2, 0x1000
loop:
    lw $t1, 0($t2)
    addiu $t1, $t1, 1
    sw $t1, 0($t2)
    addiu $t0, $t0, -1
    bne $t0, $zero, loop
    addiu $v0, $zero, 1
    lw $a0, 0($t2)
    syscall
    addiu $v0, $zero, 10
    syscall
.data 0x10000000
    .word 39
"""


@pytest.fixture(scope="module")
def program():
    return assemble(SOURCE)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program, static=prepare(program))


def trace_state(t):
    return (t.n, list(t.span_start), list(t.span_len), bytes(t.takens),
            list(t.mem_addrs), list(t.out_pos), list(t.out_text),
            t.halted, t.exit_code, t.fault, t.max_instructions,
            t.text_base, t.program_sha)


class TestRoundTrip:
    def test_fields_survive(self, trace, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        assert trace_state(load_trace(path)) == trace_state(trace)

    def test_benchmark_trace_survives(self, tmp_path):
        # A real workload: thousands of instructions, output events.
        program = build_benchmark("pegwit", 0.02)
        t = record_trace(program, static=prepare(program))
        path = str(tmp_path / "b.trace")
        save_trace(t, path)
        assert trace_state(load_trace(path)) == trace_state(t)

    def test_faulting_trace_survives(self, tmp_path):
        program = assemble(".text 0x400000\naddiu $t0, $zero, 1")
        t = record_trace(program, static=prepare(program))
        assert t.fault is not None
        path = str(tmp_path / "f.trace")
        save_trace(t, path)
        assert load_trace(path).fault == t.fault

    def test_save_creates_directories(self, trace, tmp_path):
        path = str(tmp_path / "a" / "b" / "t.trace")
        save_trace(trace, path)
        assert load_trace(path).n == trace.n


class TestRejection:
    def saved(self, trace, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        with open(path, "rb") as handle:
            return path, bytearray(handle.read())

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unreadable"):
            load_trace(str(tmp_path / "absent.trace"))

    def test_bad_magic(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        raw[0] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(TraceFormatError, match="not a trace file"):
            load_trace(path)

    def test_version_mismatch(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        struct.pack_into("<I", raw, len(_MAGIC), TRACE_VERSION + 1)
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    def test_truncated_header(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        with open(path, "wb") as handle:
            handle.write(raw[:len(_MAGIC) + 12])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_corrupt_header_json(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        raw[len(_MAGIC) + 8] = ord("!")  # first header byte: not JSON
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(TraceFormatError, match="corrupt"):
            load_trace(path)

    def test_truncated_payload(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        with open(path, "wb") as handle:
            handle.write(raw[:-1])
        with pytest.raises(TraceFormatError, match="expected"):
            load_trace(path)

    def test_corrupted_payload_byte(self, trace, tmp_path):
        path, raw = self.saved(trace, tmp_path)
        raw[-1] ^= 0x01  # length-preserving flip: only the checksum sees it
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(TraceFormatError, match="checksum"):
            load_trace(path)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.trace")
        with open(path, "wb"):
            pass
        with pytest.raises(TraceFormatError, match="not a trace file"):
            load_trace(path)


def rewrite_header(path, resign=False, **changes):
    """Change header fields of a saved trace in place.

    The trailing SHA-256 is kept as it was (a file changed on disk) or,
    with *resign*, recomputed (a consistent checksum over inconsistent
    fields).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    fixed = len(_MAGIC) + 8
    version, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    header = json.loads(raw[fixed:fixed + header_len].decode("utf-8"))
    header.update(changes)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([_MAGIC, struct.pack("<II", version, len(blob)), blob,
                     raw[fixed + header_len:-32]])
    digest = hashlib.sha256(body).digest() if resign else raw[-32:]
    with open(path, "wb") as handle:
        handle.write(body + digest)


def header_mutation(trace, field):
    """A one-step change of *field*: what a flipped digit would do."""
    if field == "out_text":
        text = list(trace.out_text)
        text[0] = ("1" if text[0][0] != "1" else "2") + text[0][1:]
        return text
    return getattr(trace, field) + 1


class TestHeaderChecksum:
    """The checksum covers the header, not just the arrays: a header
    field changed on disk is rejected instead of replayed to a wrong
    result, and fields that contradict the arrays are rejected even
    under a matching checksum."""

    @pytest.mark.parametrize("field", ("exit_code", "out_text", "n"))
    def test_mutated_header_field(self, trace, tmp_path, field):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        rewrite_header(path, **{field: header_mutation(trace, field)})
        with pytest.raises(TraceFormatError, match="checksum"):
            load_trace(path)

    def test_n_must_match_spans(self, trace, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        rewrite_header(path, resign=True, n=trace.n + 1)
        with pytest.raises(TraceFormatError, match="spans hold"):
            load_trace(path)

    def test_output_counts_must_match(self, trace, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        rewrite_header(path, resign=True,
                       out_text=list(trace.out_text) + ["extra"])
        with pytest.raises(TraceFormatError, match="output"):
            load_trace(path)

    def test_cache_rerecords_mutated_entry(self, program, trace, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.put(program, trace)
        path = cache._path(cache.key(program, trace.max_instructions))
        rewrite_header(path, exit_code=trace.exit_code + 1)
        got = cache.get_or_record(program, static=prepare(program))
        assert trace_state(got) == trace_state(trace)
        assert (cache.hits, cache.misses) == (0, 1)
        assert trace_state(load_trace(path)) == trace_state(trace)


class TestTraceCache:
    def test_miss_then_hit(self, program, trace, tmp_path):
        cache = TraceCache(str(tmp_path))
        assert cache.get(program, trace.max_instructions) is None
        cache.put(program, trace)
        got = cache.get(program, trace.max_instructions)
        assert got is not None and trace_state(got) == trace_state(trace)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_or_record(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))
        first = cache.get_or_record(program, static=prepare(program))
        again = cache.get_or_record(program)
        assert trace_state(first) == trace_state(again)
        assert cache.hits == 1  # second call served from disk

    def test_cap_is_part_of_the_key(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.get_or_record(program, max_instructions=5)
        assert cache.get(program, 6) is None

    def test_program_change_invalidates(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.get_or_record(program)
        other = assemble(".text 0x400000\naddiu $v0, $zero, 10\nsyscall")
        assert program_digest(other) != program_digest(program)
        assert cache.get(other, 5_000_000) is None

    def test_version_bump_invalidates(self, program, trace, tmp_path,
                                      monkeypatch):
        cache = TraceCache(str(tmp_path))
        cache.put(program, trace)
        monkeypatch.setattr(replay_mod, "TRACE_VERSION", TRACE_VERSION + 1)
        assert cache.get(program, trace.max_instructions) is None

    def test_corrupt_entry_is_a_miss(self, program, trace, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.put(program, trace)
        path = cache._path(cache.key(program, trace.max_instructions))
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"garbage!")
        assert cache.get(program, trace.max_instructions) is None
        assert cache.misses == 1


class TestTraceCacheLimit:
    """The byte cap: mtime-LRU pruning after every store."""

    def _put(self, cache, program, cap, mtime):
        trace = record_trace(program, static=prepare(program),
                             max_instructions=cap)
        cache.put(program, trace)
        path = cache._path(cache.key(program, cap))
        os.utime(path, (mtime, mtime))
        return path

    def test_put_prunes_oldest_first(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))  # unbounded while seeding
        old = self._put(cache, program, 5, 1_000)
        mid = self._put(cache, program, 6, 2_000)
        cache.limit_bytes = os.path.getsize(mid)
        new = self._put(cache, program, 7, 3_000)
        assert os.path.exists(new)
        assert not os.path.exists(old) and not os.path.exists(mid)
        assert cache.pruned_files == 2
        assert cache.pruned_bytes > 0

    def test_get_refreshes_lru_rank(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))
        a = self._put(cache, program, 5, 1_000)
        b = self._put(cache, program, 6, 2_000)
        assert cache.get(program, 5) is not None  # touch: now newest
        cache.limit_bytes = os.path.getsize(a)
        assert cache.prune() == 1
        assert os.path.exists(a)
        assert not os.path.exists(b)

    def test_fresh_store_survives_alone_over_limit(self, program,
                                                   tmp_path):
        cache = TraceCache(str(tmp_path), limit_bytes=1)
        self._put(cache, program, 5, 1_000)
        assert cache.get(program, 5) is not None
        assert cache.pruned_files == 0

    def test_foreign_files_untouched(self, program, tmp_path):
        keepsake = tmp_path / "README.txt"
        keepsake.write_text("not a trace")
        cache = TraceCache(str(tmp_path), limit_bytes=0)
        self._put(cache, program, 5, 1_000)
        self._put(cache, program, 6, 2_000)
        assert keepsake.exists()
        assert not os.path.exists(cache._path(cache.key(program, 5)))

    def test_unbounded_never_prunes(self, program, tmp_path):
        cache = TraceCache(str(tmp_path))
        self._put(cache, program, 5, 1_000)
        assert cache.prune() == 0
        assert cache.pruned_files == 0

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="limit_bytes"):
            TraceCache(str(tmp_path), limit_bytes=-1)


def _hammer_trace_cache(root, rounds, offset):
    """Subprocess body for the concurrency stress test (module level
    so it pickles).  Hammers a shared, byte-limited cache directory:
    with ``limit_bytes=1`` every store prunes every other entry, so
    the sibling process's loads constantly race files being replaced
    or deleted.  Any anomaly is returned as a string (raising in a
    pool worker would only surface a pickled traceback)."""
    program = assemble(SOURCE)
    static = prepare(program)
    digest = program_digest(program)
    cache = TraceCache(root, limit_bytes=1)
    for i in range(rounds):
        cap = 3 + ((i + offset) % 4)
        trace = cache.get_or_record(program, static=static,
                                    max_instructions=cap)
        if trace.program_sha != digest:
            return "wrong program digest for cap %d" % cap
        if trace.max_instructions != cap:
            return "wrong cap: wanted %d, got %d" % (cap,
                                                     trace.max_instructions)
        again = cache.get(program, cap)
        if again is not None and trace_state(again) != trace_state(trace):
            return "reread mismatch for cap %d" % cap
    return None


class TestTraceCacheConcurrency:
    """Two processes sharing one cache directory must never observe a
    torn trace: stores are tmp+atomic-replace, loads treat vanished or
    partial files as misses, and pruning is best-effort."""

    def test_two_process_stress(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor
        root = str(tmp_path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_hammer_trace_cache, root, 40, k)
                       for k in range(2)]
            errors = [f.result(timeout=300) for f in futures]
        assert errors == [None, None]
        # Atomic stores never leak temp files into the directory.
        assert [n for n in os.listdir(root) if n.endswith(".tmp")] == []
