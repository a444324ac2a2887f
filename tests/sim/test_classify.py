"""Whole-text classification and the lazy decode/compile built on it.

:func:`repro.sim.cpu.classify_text` classifies every ``.text`` word in
one NumPy pass; :class:`~repro.sim.cpu.StaticText` then builds each
:class:`~repro.sim.cpu.StaticInstr` on first read, and
:func:`~repro.sim.replay.record_trace` compiles each block on first
entry.  These tests hold the columns to the per-word decode
(``_decode_word``) on the six workload programs and on random words,
and check that recording a run decodes and compiles exactly the blocks
it entered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import INSTRUCTIONS, OP_REGIMM, OP_SPECIAL
from repro.isa.program import Program
from repro.sim.cpu import (
    EX_BRANCH,
    EX_JUMP,
    EX_LOAD,
    EX_MULT,
    EX_PLAIN,
    EX_STORE,
    EX_SYSCALL,
    EX_TERMINATORS,
    FU_MULT,
    KIND_COND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    KIND_SYSCALL,
    KIND_UNCOND,
    NO_DST,
    NO_SRC,
    FunctionalCore,
    SimulationError,
    StaticInstr,
    _decode_word,
    classify_text,
    predecode,
)
from repro.sim.replay import get_block_table, get_replay_table, record_trace
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

TEXT_BASE = 0x400000

_EX_BY_KIND = {KIND_LOAD: EX_LOAD, KIND_STORE: EX_STORE,
               KIND_COND_BRANCH: EX_BRANCH, KIND_UNCOND: EX_JUMP,
               KIND_SYSCALL: EX_SYSCALL}


def reference_row(word):
    """``(ex, latency, s0, s1, d0, d1)`` of *word* from the per-word
    decode, or ``None`` when it does not decode."""
    entry = _decode_word(word)
    if entry is None:
        return None
    kind, fu, latency, srcs, dsts = entry[8], entry[9], entry[10], \
        entry[11], entry[12]
    ex = _EX_BY_KIND.get(kind, EX_MULT if fu == FU_MULT else EX_PLAIN)
    return ((ex, latency) + (srcs + (NO_SRC, NO_SRC))[:2]
            + (dsts + (NO_DST, NO_DST))[:2])


def reference_next_term(exs):
    n = len(exs)
    out = [n - 1] * n
    term = n - 1
    for i in range(n - 1, -1, -1):
        if exs[i] in EX_TERMINATORS:
            term = i
        out[i] = term
    return out


def reference(words):
    """The per-word columns as rows plus ``next_term``, or the
    ``SimulationError`` message of the first undecodable word."""
    rows = []
    for i, word in enumerate(words):
        row = reference_row(word)
        if row is None:
            return "undecodable instruction %#010x at %#x" % (
                word, TEXT_BASE + 4 * i)
        rows.append(row)
    return rows, reference_next_term([row[0] for row in rows])


def classified(words):
    """:func:`classify_text` in the shape of :func:`reference`."""
    try:
        c = classify_text(words, TEXT_BASE)
    except SimulationError as exc:
        return str(exc)
    rows = list(zip(*(col.tolist() for col in (c.ex, c.latency, c.s0,
                                               c.s1, c.d0, c.d1))))
    return rows, c.next_term.tolist()


@pytest.fixture(scope="module")
def programs():
    return {name: build_benchmark(name, 0.02) for name in BENCHMARK_NAMES}


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
def test_columns_equal_per_word_decode(programs, bench):
    words = programs[bench].text
    got = classified(words)
    want = reference(words)
    assert len(got[0]) == len(words)
    assert got == want


def _spec_word(spec, fields):
    """A word that decodes to *spec*, other bits from *fields*."""
    word = (spec.op << 26) | (fields & 0x03FFFFFF)
    if spec.op == OP_SPECIAL:
        word = (word & ~0x3F) | spec.funct
    elif spec.op == OP_REGIMM:
        word = (word & ~(0x1F << 16)) | (spec.regimm_rt << 16)
    return word


valid_words = st.builds(_spec_word, st.sampled_from(sorted(
    INSTRUCTIONS.values(), key=lambda spec: spec.name)),
    st.integers(min_value=0, max_value=0x03FFFFFF))
any_words = st.integers(min_value=0, max_value=0xFFFFFFFF)


@settings(max_examples=200, deadline=None)
@given(st.lists(valid_words, max_size=64))
def test_random_valid_text_matches_reference(words):
    assert classified(words) == reference(words)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(valid_words, any_words), max_size=64))
def test_random_text_matches_reference_or_same_error(words):
    # Either equal columns, or the same message for the same first
    # undecodable word (the message carries its address).
    assert classified(words) == reference(words)


def test_predecode_raises_for_first_undecodable_word():
    text = [0x24080001, 0xFC000000, 0xFC000001]  # addiu, then two bad
    with pytest.raises(SimulationError) as err:
        predecode(Program(text=text, text_base=TEXT_BASE))
    assert str(err.value) == \
        "undecodable instruction 0xfc000000 at %#x" % (TEXT_BASE + 4)


class TestStaticText:
    def test_behaves_like_the_eager_list(self, programs):
        program = programs["pegwit"]
        static = predecode(program)
        eager = [StaticInstr(addr, word)
                 for addr, word in program.iter_addresses()]
        fields = StaticInstr.__slots__
        assert len(static) == len(eager)
        for got, want in zip(static, eager):
            assert [getattr(got, f) for f in fields] \
                == [getattr(want, f) for f in fields]
        assert static[-1] is static[len(static) - 1]
        assert static[2:5] == [static[2], static[3], static[4]]
        with pytest.raises(IndexError):
            static[len(static)]

    def test_decodes_on_first_read_only(self, programs):
        static = predecode(programs["pegwit"])
        assert set(static.decoded) == {None}
        first = static[7]
        assert static[7] is first
        assert [i for i, st in enumerate(static.decoded)
                if st is not None] == [7]

    def test_core_decodes_what_it_executes(self):
        text = [0x24080009,  # addiu $t0, $zero, 9
                0x1000FFFF,  # beq $zero, $zero, -1 (never falls through)
                0x2402000A,  # addiu $v0, $zero, 10 (unreached)
                0x0000000C]  # syscall (unreached)
        static = predecode(Program(text=text, text_base=TEXT_BASE))
        core = FunctionalCore(Program(text=text, text_base=TEXT_BASE),
                              static=static)
        for _ in range(5):
            core.step()
        assert [st is not None for st in static.decoded] \
            == [True, True, False, False]


def test_plain_list_tables_match_static_text(programs):
    static = predecode(programs["cc1"])
    plain = list(predecode(programs["cc1"]))
    assert get_replay_table(plain).ops == get_replay_table(static).ops
    assert get_replay_table(plain).ex == get_replay_table(static).ex
    assert get_block_table(plain).next_term \
        == get_block_table(static).next_term


def test_replay_table_shares_equal_rows(programs):
    ops = get_replay_table(predecode(programs["cc1"])).ops
    assert len({id(row) for row in ops}) == len(set(ops)) < len(ops) // 10


def test_recording_compiles_exactly_the_entered_blocks():
    program = build_benchmark("pegwit", 0.1)
    static = predecode(program)
    trace = record_trace(program, static=static)
    assert trace.halted
    table = get_block_table(static)
    entered = set()
    for start in trace.span_start:
        entered.update(range(start, table.next_term[start] + 1))
    compiled = {i for i, op in enumerate(table.ops) if op is not None}
    decoded = {i for i, st in enumerate(static.decoded) if st is not None}
    assert compiled == decoded == entered
    assert len(entered) < len(static) // 4
