"""Differential suite: trace replay vs the execute-driven models.

:mod:`repro.sim.replay` promises cycle-exactness: recording a program's
functional trace once and replaying it under any timing configuration
must reproduce the execute-driven :func:`run_inorder` / :func:`run_ooo`
result bit-for-bit.  These tests hold it to that across issue widths,
CodePack modes, ablation knobs, instruction-budget truncation, miss
traces and architectural faults.  A cap inside a trace replays the
trace's prefix, so the prefix itself is held to the trace that
recording at that cap produces.
"""

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.experiments import CP_BASELINE, CP_OPTIMIZED
from repro.codepack.compressor import compress_program
from repro.isa.assembler import assemble
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE
from repro.sim.cpu import SimulationError
from repro.sim.machine import prepare, simulate
from repro.sim.replay import (
    TraceError,
    record_trace,
    trace_prefix,
)
from repro.sim.trace import MissTrace
from repro.workloads.suite import build_benchmark

SCALE = 0.02

ARCHS = {a.name: a for a in (ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE)}

CP_NOBUF = replace(CP_BASELINE, output_buffer=False)


@pytest.fixture(scope="module")
def suite():
    """Programs, predecode, image and recorded trace per benchmark."""
    out = {}
    for name in ("cc1", "pegwit", "mpeg2enc"):
        program = build_benchmark(name, SCALE)
        static = prepare(program)
        image = compress_program(program)
        trace = record_trace(program, static=static)
        out[name] = (program, static, image, trace)
    return out


def result_state(result):
    """Everything two equivalent runs must agree on."""
    d = result.to_dict()
    d.pop("mode")  # informational label, not simulated state
    return d


def both(suite, bench, arch, codepack=None, **kwargs):
    program, static, image, trace = suite[bench]
    image = image if codepack else None
    ref = simulate(program, arch, codepack=codepack, image=image,
                   static=static, replay=False, **kwargs)
    got = simulate(program, arch, codepack=codepack, image=image,
                   static=static, replay=trace, **kwargs)
    return ref, got


class TestDifferentialSuite:
    @pytest.mark.parametrize("bench", ("cc1", "pegwit", "mpeg2enc"))
    @pytest.mark.parametrize("codepack", (None, CP_BASELINE, CP_OPTIMIZED),
                             ids=("native", "codepack", "optimized"))
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_cycle_exact(self, suite, bench, codepack, arch):
        ref, got = both(suite, bench, ARCHS[arch], codepack=codepack)
        assert result_state(ref) == result_state(got)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    @pytest.mark.parametrize("cap", (1, 7, 997))
    def test_instruction_budget_truncation(self, suite, arch, cap):
        ref, got = both(suite, "cc1", ARCHS[arch], max_instructions=cap)
        assert ref.instructions == cap
        assert result_state(ref) == result_state(got)
        assert ref.extra["truncated"] and got.extra["truncated"]

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_shared_memory_bus(self, suite, arch):
        ref, got = both(suite, "pegwit", ARCHS[arch].with_shared_bus(),
                        codepack=CP_BASELINE)
        assert result_state(ref) == result_state(got)

    def test_no_output_buffer(self, suite):
        ref, got = both(suite, "cc1", ARCH_4_ISSUE, codepack=CP_NOBUF)
        assert result_state(ref) == result_state(got)

    def test_no_critical_word_first(self, suite):
        ref, got = both(suite, "cc1", ARCH_4_ISSUE,
                        critical_word_first=False)
        assert result_state(ref) == result_state(got)

    def test_native_prefetch(self, suite):
        ref, got = both(suite, "cc1", ARCH_4_ISSUE, native_prefetch=True)
        assert result_state(ref) == result_state(got)

    def test_replay_true_records_on_the_fly(self, suite):
        # replay=True (no pre-recorded trace) must behave like passing
        # the Trace object explicitly.
        program, static, _, trace = suite["pegwit"]
        ref = simulate(program, ARCH_4_ISSUE, static=static, replay=trace)
        got = simulate(program, ARCH_4_ISSUE, static=static, replay=True)
        assert result_state(ref) == result_state(got)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_fewer_branches_than_history_bits(self, arch):
        # The gshare and hybrid predictors hash more history bits than
        # this loop has branches; the vector profile builder must still
        # agree with the execute-driven run.
        program = assemble(".text 0x400000\naddiu $t0, $zero, 3\n"
                           "loop:\naddiu $t0, $t0, -1\n"
                           "bne $t0, $zero, loop\n"
                           "addiu $v0, $zero, 10\nsyscall")
        ref = simulate(program, ARCHS[arch], replay=False)
        got = simulate(program, ARCHS[arch], replay=True)
        assert ref.branch_lookups == 3
        assert result_state(ref) == result_state(got)

    def test_miss_trace_identical(self, suite):
        program, static, image, trace = suite["cc1"]
        ref_trace, got_trace = MissTrace(), MissTrace()
        simulate(program, ARCH_4_ISSUE, codepack=CP_BASELINE, image=image,
                 static=static, replay=False, trace=ref_trace)
        simulate(program, ARCH_4_ISSUE, codepack=CP_BASELINE, image=image,
                 static=static, replay=trace, trace=got_trace)
        assert ref_trace.count == got_trace.count
        assert ([dataclasses.astuple(e) for e in ref_trace.events]
                == [dataclasses.astuple(e) for e in got_trace.events])


FAULTS = {
    "empty_text": ".text 0x400000",
    "pc_escape": ".text 0x400000\naddiu $t0, $zero, 1",
    "misaligned_load":
        ".text 0x400000\nli $t0, 0x10000001\nlw $t1, 0($t0)",
    "unknown_syscall": ".text 0x400000\naddiu $v0, $zero, 99\nsyscall",
}


TRACE_FIELDS = ("n", "span_start", "span_len", "takens", "mem_addrs",
                "out_pos", "out_text", "halted", "exit_code", "fault",
                "max_instructions", "text_base", "program_sha")


class TestTracePrefix:
    """A trace cut at ``k`` is the trace recorded with cap ``k``."""

    @pytest.fixture(scope="class")
    def sources(self, suite):
        out = {}
        for name in ("cc1", "pegwit"):
            program, static, _, trace = suite[name]
            out[name] = (program, static, trace)
        program = assemble(FAULTS["misaligned_load"])
        static = prepare(program)
        out["misaligned_load"] = (program, static,
                                  record_trace(program, static=static))
        assert out["misaligned_load"][2].fault is not None
        return out

    def assert_prefix_is_recording(self, sources, name, k):
        program, static, trace = sources[name]
        got = trace_prefix(trace, static, k)
        want = record_trace(program, static=static, max_instructions=k)
        for field in TRACE_FIELDS:
            g, w = getattr(got, field), getattr(want, field)
            assert type(g) is type(w), (name, k, field)
            assert g == w, (name, k, field)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prefix_equals_recording_at_cap(self, sources, data):
        name = data.draw(st.sampled_from(sorted(sources)), label="bench")
        n = sources[name][2].n
        k = data.draw(st.integers(min_value=0, max_value=n - 1),
                      label="k")
        self.assert_prefix_is_recording(sources, name, k)

    def test_prefix_at_boundaries(self, sources):
        # The extremes and the instruction just past the first output
        # event, where the kept output changes.
        for name in sorted(sources):
            trace = sources[name][2]
            caps = {0, trace.n - 1}
            if trace.out_pos:
                caps.add(trace.out_pos[0] + 1)
            for k in sorted(caps):
                self.assert_prefix_is_recording(sources, name, k)

    def test_prefix_memoised_on_trace(self, sources):
        program, static, trace = sources["pegwit"]
        first = trace_prefix(trace, static, 997)
        assert trace_prefix(trace, static, 997) is first


class TestFaultExactness:
    @pytest.mark.parametrize("arch", ("1-issue", "4-issue"))
    @pytest.mark.parametrize("codepack", (None, CP_BASELINE),
                             ids=("native", "codepack"))
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_matches(self, fault, codepack, arch):
        program = assemble(FAULTS[fault])
        static = prepare(program)
        image = compress_program(program) if codepack else None
        trace = record_trace(program, static=static)
        assert trace.fault is not None or fault == "unknown_syscall"
        messages = []
        for replay in (False, trace):
            with pytest.raises(SimulationError) as err:
                simulate(program, ARCHS[arch], codepack=codepack,
                         image=image, static=static, replay=replay)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_truncation_before_fault_is_clean(self):
        # A cap that stops short of the faulting instruction must not
        # raise -- exactly like the execute-driven model.
        program = assemble(FAULTS["misaligned_load"])
        static = prepare(program)
        trace = record_trace(program, static=static)
        cap = trace.n  # everything recorded before the fault
        ref = simulate(program, ARCH_1_ISSUE, static=static, replay=False,
                       max_instructions=cap)
        got = simulate(program, ARCH_1_ISSUE, static=static, replay=trace,
                       max_instructions=cap)
        assert result_state(ref) == result_state(got)


class TestReplayContract:
    def test_rejects_pc_index(self, suite):
        program, static, _, _ = suite["pegwit"]
        pc_index = {st.addr: i for i, st in enumerate(static)}
        with pytest.raises(ValueError, match="fixed-width"):
            simulate(program, ARCH_1_ISSUE, pc_index=pc_index, replay=True)

    def test_rejects_foreign_trace(self, suite):
        program = suite["cc1"][0]
        trace = suite["pegwit"][3]
        with pytest.raises(TraceError, match="different program"):
            simulate(program, ARCH_1_ISSUE, replay=trace)

    def test_rejects_undersized_trace(self, suite):
        # A trace truncated by its own recording cap (no halt, no
        # fault) cannot answer a larger replay cap.
        program, static, _, _ = suite["pegwit"]
        short = record_trace(program, static=static, max_instructions=100)
        assert not short.halted and short.fault is None
        with pytest.raises(TraceError, match="cannot"):
            simulate(program, ARCH_4_ISSUE, static=static, replay=short,
                     max_instructions=200)

    def test_undersized_trace_replays_within_cap(self, suite):
        program, static, _, _ = suite["pegwit"]
        short = record_trace(program, static=static, max_instructions=100)
        ref = simulate(program, ARCH_4_ISSUE, static=static, replay=False,
                       max_instructions=100)
        got = simulate(program, ARCH_4_ISSUE, static=static, replay=short,
                       max_instructions=100)
        assert result_state(ref) == result_state(got)

    @pytest.mark.parametrize("cap", (0, -1))
    def test_empty_cap_replays_nothing(self, suite, cap):
        # A cap of zero or below runs no instruction, as the
        # execute-driven model does.
        ref, got = both(suite, "pegwit", ARCH_4_ISSUE, max_instructions=cap)
        assert ref.instructions == 0
        assert result_state(ref) == result_state(got)

    def test_output_truncation_prefix(self, suite):
        # Syscall output under a truncating cap must be the exact
        # prefix the execute-driven run produces.
        program, static, _, trace = suite["mpeg2enc"]
        assert trace.out_pos, "fixture benchmark must produce output"
        cap = int(trace.out_pos[0]) + 1  # just past the first write
        ref, got = both(suite, "mpeg2enc", ARCH_1_ISSUE,
                        max_instructions=cap)
        assert ref.output == got.output
        assert ref.output  # non-trivial prefix
