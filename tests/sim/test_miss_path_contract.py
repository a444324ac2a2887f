"""Contract tests: every miss path honours the LineFill invariants.

The FetchUnit and both pipeline models rely on these properties from
*any* miss path (native, native+prefetch, CodePack, CCRP, DictWord,
software): causality (nothing ready before the request), completeness
(one time per line word), and consistency (critical/fill bounds).

Trace replay relies on one more: a miss path may keep state of its own
(buffers, index caches), but must not change what the caches or the
branch predictor see, so a replayed run consults it at exactly the
misses the execute-driven run does.  :class:`TestReplayDifferential`
holds every extension miss path to that on the real benchmarks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack.compressor import compress_program
from repro.schemes.ccrp import CcrpEngine, compress_ccrp
from repro.schemes.dictword import DictWordEngine, compress_dictword
from repro.schemes.software import SoftwareDecompEngine
from repro.sim.codepack_engine import CodePackEngine
from repro.sim.config import (
    ARCH_1_ISSUE,
    ARCH_4_ISSUE,
    ARCH_8_ISSUE,
    CodePackConfig,
    MemoryConfig,
)
from repro.sim.fetch import NativeMissPath
from repro.sim.machine import prepare, simulate
from repro.sim.replay import record_trace
from repro.workloads.suite import build_benchmark
from tests.conftest import make_static_program

PROGRAM = make_static_program(256)  # 16 blocks / 32 lines
LINE_BYTES = 32
N_LINES = PROGRAM.text_size // LINE_BYTES


def all_paths():
    memory = MemoryConfig()
    image = compress_program(PROGRAM)
    return [
        ("native", NativeMissPath(memory, LINE_BYTES)),
        ("native-nocwf", NativeMissPath(memory, LINE_BYTES,
                                        critical_word_first=False)),
        ("native-nlp", NativeMissPath(memory, LINE_BYTES,
                                      prefetch_next=True)),
        ("codepack", CodePackEngine(image, memory, CodePackConfig(),
                                    line_bytes=LINE_BYTES)),
        ("codepack-opt", CodePackEngine(image, memory,
                                        CodePackConfig.optimized(),
                                        line_bytes=LINE_BYTES)),
        ("ccrp", CcrpEngine(compress_ccrp(PROGRAM), memory,
                            line_bytes=LINE_BYTES)),
        ("dictword", DictWordEngine(compress_dictword(PROGRAM), memory,
                                    CodePackConfig(),
                                    line_bytes=LINE_BYTES)),
        ("software", SoftwareDecompEngine(image, memory,
                                          line_bytes=LINE_BYTES)),
    ]


@pytest.mark.parametrize("label,path", all_paths(),
                         ids=[label for label, _ in all_paths()])
class TestContract:
    def test_single_miss_invariants(self, label, path):
        addr = PROGRAM.text_base + 5 * 4
        now = 100
        fill = path.miss(addr, now)
        assert fill.critical_ready > now
        assert fill.fill_done >= fill.critical_ready
        assert len(fill.word_times) == LINE_BYTES // 4
        word = (addr % LINE_BYTES) // 4
        assert fill.word_times[word] == fill.critical_ready
        assert max(fill.word_times) == fill.fill_done
        assert all(t > now for t in fill.word_times)

    def test_line_addr_matches_request(self, label, path):
        addr = PROGRAM.text_base + 3 * LINE_BYTES + 8
        fill = path.miss(addr, 0)
        assert fill.line_addr == addr // LINE_BYTES


@settings(max_examples=30, deadline=None)
@given(line=st.integers(0, N_LINES - 1),
       word=st.integers(0, 7),
       now=st.integers(0, 10_000))
def test_codepack_contract_fuzz(line, word, now):
    """Random miss sequences keep the invariants (buffer state and
    all)."""
    memory = MemoryConfig()
    image = compress_program(PROGRAM)
    engine = CodePackEngine(image, memory, CodePackConfig(),
                            line_bytes=LINE_BYTES)
    addr = PROGRAM.text_base + line * LINE_BYTES + word * 4
    for step in range(3):
        fill = engine.miss(addr, now + step * 50)
        assert fill.critical_ready > now + step * 50
        assert fill.fill_done >= fill.critical_ready


@settings(max_examples=30, deadline=None)
@given(lines=st.lists(st.integers(0, N_LINES - 1), min_size=1,
                      max_size=12),
       start=st.integers(0, 1000))
def test_native_prefetch_contract_fuzz(lines, start):
    """The prefetching path keeps causality across arbitrary miss
    sequences (buffer hits included)."""
    path = NativeMissPath(MemoryConfig(), LINE_BYTES, prefetch_next=True)
    now = start
    for line in lines:
        addr = PROGRAM.text_base + line * LINE_BYTES
        fill = path.miss(addr, now)
        assert fill.critical_ready > now
        assert fill.fill_done >= fill.critical_ready
        now = fill.critical_ready  # misses only move forward in time


# -- replay differential over the extension miss paths ----------------------

REPLAY_BENCHES = ("cc1", "pegwit", "perl")
REPLAY_ARCHS = {a.name: a for a in (ARCH_1_ISSUE, ARCH_4_ISSUE,
                                    ARCH_8_ISSUE)}


def _software(cost):
    def kwargs(images, arch):
        return {"mode": "software%d" % cost,
                "miss_path": SoftwareDecompEngine(
                    images["codepack"], arch.memory,
                    cycles_per_instruction=cost,
                    line_bytes=arch.icache.line_bytes)}
    return kwargs


#: ``simulate`` keyword arguments per extension miss path, built fresh
#: for every run (the engines keep buffer state).
MISS_PATHS = {
    "ccrp": lambda images, arch: {
        "mode": "ccrp",
        "miss_path": CcrpEngine(images["ccrp"], arch.memory,
                                line_bytes=arch.icache.line_bytes)},
    "dictword": lambda images, arch: {
        "mode": "dictword",
        "miss_path": DictWordEngine(images["dictword"], arch.memory,
                                    CodePackConfig(),
                                    line_bytes=arch.icache.line_bytes)},
    "software4": _software(4),
    "software48": _software(48),
    "native-nlp": lambda images, arch: {"native_prefetch": True},
    "native-nocwf": lambda images, arch: {"critical_word_first": False},
}


@pytest.fixture(scope="module")
def replay_suite():
    """Program, predecode, trace and the three images per benchmark."""
    out = {}
    for bench in REPLAY_BENCHES:
        program = build_benchmark(bench, 0.02)
        static = prepare(program)
        images = {"codepack": compress_program(program),
                  "ccrp": compress_ccrp(program),
                  "dictword": compress_dictword(program)}
        out[bench] = (program, static, record_trace(program, static=static),
                      images)
    return out


class TestReplayDifferential:
    """Replay equals the execute-driven run, field for field, on every
    extension miss path and machine."""

    @pytest.mark.parametrize("arch", sorted(REPLAY_ARCHS))
    @pytest.mark.parametrize("path", sorted(MISS_PATHS))
    def test_replay_matches_execute(self, replay_suite, path, arch):
        arch = REPLAY_ARCHS[arch]
        for bench in REPLAY_BENCHES:
            program, static, trace, images = replay_suite[bench]
            ref = simulate(program, arch, static=static, replay=False,
                           **MISS_PATHS[path](images, arch))
            got = simulate(program, arch, static=static, replay=trace,
                           **MISS_PATHS[path](images, arch))
            assert got.to_dict() == ref.to_dict(), bench
