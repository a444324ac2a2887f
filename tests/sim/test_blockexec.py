"""Block-at-a-time execution and the in-order fast path built on it.

Trace recording (:func:`repro.sim.replay.record_trace`) executes a
program block-at-a-time over the compiled closures of a
:class:`~repro.sim.replay.BlockTable`, and :func:`repro.sim.machine
.simulate` runs an in-order machine on the SS32 layout by default by
recording that trace and replaying it on the stream kernel.  These
tests hold the default path to the oracle -- ``replay=False``, which
is :func:`repro.sim.inorder.run_inorder` driving ``FunctionalCore.step``
-- across the benchmark suite, the CodePack and native miss paths,
every ablation knob of the in-order machine, instruction-budget
truncation, miss traces and architectural faults, and check which
path ``simulate`` takes.
"""

import dataclasses

import pytest

import repro.sim.machine as machine
from repro.eval.experiments import CP_BASELINE, CP_OPTIMIZED
from repro.isa.assembler import assemble
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE
from repro.sim.cpu import (
    EX_TERMINATORS,
    FunctionalCore,
    SimulationError,
    predecode,
)
from repro.sim.machine import prepare, simulate
from repro.sim.replay import BlockTable, get_block_table, record_trace
from repro.sim.trace import MissTrace
from repro.workloads.suite import build_benchmark

SCALE = 0.02


@pytest.fixture(scope="module")
def suite():
    """Programs + predecoded text for a few contrasting benchmarks."""
    out = {}
    for name in ("cc1", "pegwit", "mpeg2enc"):
        program = build_benchmark(name, SCALE)
        out[name] = (program, prepare(program))
    return out


def result_state(result):
    """Everything two equivalent runs must agree on."""
    d = result.to_dict()
    d.pop("mode")  # informational label, not simulated state
    return d


def both(program, static, **kwargs):
    """The oracle's run and the default (fast path) run, 1-issue."""
    ref = simulate(program, ARCH_1_ISSUE, static=static, replay=False,
                   **kwargs)
    fast = simulate(program, ARCH_1_ISSUE, static=static, **kwargs)
    return ref, fast


class TestDifferentialSuite:
    @pytest.mark.parametrize("bench", ("cc1", "pegwit", "mpeg2enc"))
    @pytest.mark.parametrize("codepack", (None, CP_BASELINE, CP_OPTIMIZED),
                             ids=("native", "codepack", "optimized"))
    def test_cycle_exact(self, suite, bench, codepack):
        program, static = suite[bench]
        ref, fast = both(program, static, codepack=codepack)
        assert result_state(ref) == result_state(fast)

    def test_shared_memory_bus(self, suite):
        program, static = suite["cc1"]
        arch = ARCH_1_ISSUE.with_shared_bus()
        ref = simulate(program, arch, static=static, codepack=CP_BASELINE,
                       replay=False)
        fast = simulate(program, arch, static=static, codepack=CP_BASELINE)
        assert result_state(ref) == result_state(fast)

    def test_no_critical_word_first(self, suite):
        program, static = suite["cc1"]
        ref, fast = both(program, static, critical_word_first=False)
        assert result_state(ref) == result_state(fast)

    def test_native_prefetch(self, suite):
        program, static = suite["cc1"]
        ref, fast = both(program, static, native_prefetch=True)
        assert result_state(ref) == result_state(fast)

    @pytest.mark.parametrize("cap", (1, 7, 997))
    def test_instruction_budget_truncation(self, suite, cap):
        program, static = suite["cc1"]
        ref, fast = both(program, static, max_instructions=cap)
        assert ref.instructions == cap
        assert result_state(ref) == result_state(fast)
        assert ref.extra["truncated"] and fast.extra["truncated"]

    def test_miss_trace_identical(self, suite):
        program, static = suite["cc1"]
        ref_trace, fast_trace = MissTrace(), MissTrace()
        simulate(program, ARCH_1_ISSUE, static=static, codepack=CP_BASELINE,
                 replay=False, trace=ref_trace)
        simulate(program, ARCH_1_ISSUE, static=static, codepack=CP_BASELINE,
                 trace=fast_trace)
        assert ref_trace.count == fast_trace.count > 0
        assert ([dataclasses.astuple(e) for e in ref_trace.events]
                == [dataclasses.astuple(e) for e in fast_trace.events])


class TestFaultExactness:
    def fault_pair(self, source, **kwargs):
        program = assemble(source)
        static = prepare(program)
        states = []
        for replay in (False, None):
            with pytest.raises(SimulationError) as err:
                simulate(program, ARCH_1_ISSUE, static=static,
                         replay=replay, **kwargs)
            states.append(str(err.value))
        return states

    def test_pc_escape_fault_matches(self):
        ref, fast = self.fault_pair(
            ".text 0x400000\naddiu $t0, $zero, 1")  # falls off the end
        assert ref == fast

    def test_misaligned_load_fault_matches(self):
        ref, fast = self.fault_pair(
            ".text 0x400000\nli $t0, 0x10000001\nlw $t1, 0($t0)")
        assert ref == fast

    def test_unknown_syscall_fault_matches(self):
        ref, fast = self.fault_pair(
            ".text 0x400000\naddiu $v0, $zero, 99\nsyscall")
        assert ref == fast

    def test_fault_core_state_matches(self):
        # Block-at-a-time recording must stop exactly where the
        # oracle's core stops, mid-block: same retired-instruction
        # count, next pc at the faulting instruction, same fault.
        source = ".text 0x400000\nli $t0, 0x10000001\nlw $t1, 0($t0)"
        program = assemble(source)
        static = prepare(program)
        core = FunctionalCore(program, static=static)
        with pytest.raises(SimulationError) as err:
            core.run(1000)
        trace = record_trace(program, static=static, max_instructions=1000)
        assert trace.fault == str(err.value)
        assert trace.n == core.instret
        end = trace.span_start[-1] + trace.span_len[-1]
        assert trace.text_base + 4 * end == core.pc


class TestModelSelection:
    """Which path simulate() takes: only the replay path records."""

    @pytest.fixture
    def no_recording(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate recorded a trace")
        monkeypatch.setattr(machine, "record_trace", refuse)

    def test_oracle_never_records(self, suite, no_recording):
        program, static = suite["pegwit"]
        result = simulate(program, ARCH_1_ISSUE, static=static,
                          replay=False)
        assert result.instructions > 0
        assert not result.extra["truncated"]

    def test_default_records_inorder(self, suite, no_recording):
        program, static = suite["pegwit"]
        with pytest.raises(AssertionError, match="recorded a trace"):
            simulate(program, ARCH_1_ISSUE, static=static)

    def test_default_with_pc_index_executes(self, suite, no_recording):
        # An explicit pc_index (variable-length layouts) has no trace
        # format, so the default stays execute-driven.
        program, static = suite["pegwit"]
        pc_index = {st.addr: i for i, st in enumerate(static)}
        got = simulate(program, ARCH_1_ISSUE, pc_index=pc_index)
        ref = simulate(program, ARCH_1_ISSUE, static=static, replay=False)
        assert result_state(got) == result_state(ref)

    def test_ooo_archs_still_run(self, suite, no_recording):
        # replay=None on an OOO machine runs the OOO model directly.
        program, static = suite["pegwit"]
        result = simulate(program, ARCH_4_ISSUE, static=static)
        assert result.instructions > 0
        assert not result.extra["truncated"]


class TestBlockTable:
    def test_cached_on_static_text(self, suite):
        _, static = suite["pegwit"]
        assert get_block_table(static) is get_block_table(static)

    def test_plain_list_not_cached_but_works(self, suite):
        _, static = suite["pegwit"]
        plain = list(static)
        a = get_block_table(plain)
        b = get_block_table(plain)
        assert a is not b
        assert a.next_term == b.next_term

    def test_next_term_marks_first_terminator(self):
        program = assemble("""
        .text 0x400000
            addiu $t0, $zero, 1
            addiu $t1, $zero, 2
            beq $t0, $t1, skip
            addiu $t2, $zero, 3
        skip:
            addiu $v0, $zero, 10
            syscall
        """)
        table = BlockTable(predecode(program))
        # beq at index 2, syscall at index 5 terminate their blocks.
        assert table.next_term == [2, 2, 2, 5, 5, 5]
        # Nothing is compiled before a run enters a block, so the
        # terminators are read from the classification's ex column.
        for i, term in enumerate(table.next_term):
            assert term >= i
            assert table.ex[term] in EX_TERMINATORS \
                or term == len(table.ex) - 1
