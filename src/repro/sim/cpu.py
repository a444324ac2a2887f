"""Architectural (functional) execution of SS32.

The functional core executes the program exactly -- registers, memory,
control flow, syscalls -- and knows nothing about cycles.  The timing
models drive it one instruction at a time and charge cycles around the
dynamic stream it produces.  Because compression is transparent to the
CPU (paper Section 2.3: "The CPU is unaware of compression"), the same
core underlies native and CodePack simulations; integration tests
verify the architectural results are identical.

Predecoding classifies the whole ``.text`` section in one NumPy pass
(:func:`classify_text`: execution class, latency, operand slots and
block ends per word) and builds each :class:`StaticInstr` the first
time something reads it, so a program pays for the objects and closures
of only the code a run reaches.  ``step()`` dispatches on a dense
integer opcode, which keeps the interpreter around a microsecond per
instruction -- the difference between minutes and hours over the full
experiment suite.
"""

from collections.abc import Sequence

import numpy as np

from repro.isa.encoding import sign_extend_16
from repro.isa.opcodes import (
    INSTRUCTIONS,
    OP_REGIMM,
    OP_SPECIAL,
    InstrClass,
    spec_for_word,
)
from repro.isa.program import DEFAULT_STACK_TOP

# Dense execution opcodes (roughly frequency-ordered for dispatch speed).
(
    X_ADDIU, X_ADDU, X_LW, X_SW, X_BNE, X_BEQ, X_ORI, X_LUI, X_SLL, X_JAL,
    X_JR, X_ADDI, X_SLTI, X_SLT, X_SLTU, X_SLTIU, X_ANDI, X_XORI, X_AND,
    X_OR, X_XOR, X_NOR, X_SUB, X_SUBU, X_ADD, X_SRL, X_SRA, X_SLLV, X_SRLV,
    X_SRAV, X_BLEZ, X_BGTZ, X_BLTZ, X_BGEZ, X_J, X_JALR, X_LB, X_LBU, X_LH,
    X_LHU, X_SB, X_SH, X_MULT, X_MULTU, X_DIV, X_DIVU, X_MFHI, X_MFLO,
    X_SYSCALL,
) = range(49)

_XOP_BY_NAME = {
    "addiu": X_ADDIU, "addu": X_ADDU, "lw": X_LW, "sw": X_SW, "bne": X_BNE,
    "beq": X_BEQ, "ori": X_ORI, "lui": X_LUI, "sll": X_SLL, "jal": X_JAL,
    "jr": X_JR, "addi": X_ADDI, "slti": X_SLTI, "slt": X_SLT,
    "sltu": X_SLTU, "sltiu": X_SLTIU, "andi": X_ANDI, "xori": X_XORI,
    "and": X_AND, "or": X_OR, "xor": X_XOR, "nor": X_NOR, "sub": X_SUB,
    "subu": X_SUBU, "add": X_ADD, "srl": X_SRL, "sra": X_SRA,
    "sllv": X_SLLV, "srlv": X_SRLV, "srav": X_SRAV, "blez": X_BLEZ,
    "bgtz": X_BGTZ, "bltz": X_BLTZ, "bgez": X_BGEZ, "j": X_J,
    "jalr": X_JALR, "lb": X_LB, "lbu": X_LBU, "lh": X_LH, "lhu": X_LHU,
    "sb": X_SB, "sh": X_SH, "mult": X_MULT, "multu": X_MULTU, "div": X_DIV,
    "divu": X_DIVU, "mfhi": X_MFHI, "mflo": X_MFLO, "syscall": X_SYSCALL,
}

# Timing kinds shared with the pipeline models.
KIND_PLAIN = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_COND_BRANCH = 3
KIND_UNCOND = 4
KIND_SYSCALL = 5

# Function-unit pools (paper Table 2).
FU_ALU = 0
FU_MULT = 1
FU_MEMPORT = 2

# Virtual register ids for the multiply result registers.
REG_HI = 32
REG_LO = 33

_FU_BY_NAME = {"alu": FU_ALU, "mult": FU_MULT, "memport": FU_MEMPORT}

_KIND_BY_CLASS = {
    InstrClass.ALU: KIND_PLAIN,
    InstrClass.SHIFT: KIND_PLAIN,
    InstrClass.MULT: KIND_PLAIN,
    InstrClass.DIV: KIND_PLAIN,
    InstrClass.MFLOHI: KIND_PLAIN,
    InstrClass.LOAD: KIND_LOAD,
    InstrClass.STORE: KIND_STORE,
    InstrClass.BRANCH: KIND_COND_BRANCH,
    InstrClass.JUMP: KIND_UNCOND,
    InstrClass.CALL: KIND_UNCOND,
    InstrClass.JUMP_REG: KIND_UNCOND,
    InstrClass.CALL_REG: KIND_UNCOND,
    InstrClass.SYSCALL: KIND_SYSCALL,
}

# Execution classes: how trace recording runs an instruction's compiled
# closure (see the compiled-closure section below) and what the replay
# engines charge for it.
EX_PLAIN = 0
EX_MULT = 1
EX_LOAD = 2
EX_STORE = 3
EX_BRANCH = 4
EX_JUMP = 5
EX_SYSCALL = 6

#: Execution classes that end a basic block (control may leave the
#: straight line, or -- for syscalls -- the core may halt).
EX_TERMINATORS = (EX_BRANCH, EX_JUMP, EX_SYSCALL)

_EX_BY_KIND = {KIND_LOAD: EX_LOAD, KIND_STORE: EX_STORE,
               KIND_COND_BRANCH: EX_BRANCH, KIND_UNCOND: EX_JUMP,
               KIND_SYSCALL: EX_SYSCALL}

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

SYSCALL_PRINT_INT = 1
SYSCALL_EXIT = 10
SYSCALL_PRINT_CHAR = 11


class SimulationError(RuntimeError):
    """Raised for architectural faults (bad opcode, misalignment, ...)."""


#: word -> decoded field tuple.  Every StaticInstr field other than the
#: address-derived ones is a pure function of the instruction word, and
#: generated programs repeat most words (register skew, small
#: immediates), so predecode shares one decode per distinct word.
_DECODE_CACHE = {}

#: How ``taken_target`` derives from the word: 0 = not control flow,
#: 1 = conditional branch (PC-relative), 2 = absolute jump/call target.
_TT_NONE, _TT_COND, _TT_ABS = 0, 1, 2


def _decode_word(word):
    """Word-determined :class:`StaticInstr` fields, or ``None``."""
    spec = spec_for_word(word)
    if spec is None:
        return None
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    rd = (word >> 11) & 0x1F
    kind = _KIND_BY_CLASS[spec.iclass]
    if kind == KIND_COND_BRANCH:
        tt_mode = _TT_COND
    elif spec.iclass in (InstrClass.JUMP, InstrClass.CALL):
        tt_mode = _TT_ABS
    else:
        tt_mode = _TT_NONE
    field_regs = {"rs": rs, "rt": rt, "rd": rd,
                  "hi": REG_HI, "lo": REG_LO, "ra": 31}
    entry = (
        _XOP_BY_NAME[spec.name], rs, rt, rd,
        (word >> 6) & 0x1F,  # shamt
        word & 0xFFFF,  # uimm
        sign_extend_16(word),
        (word & 0x3FFFFFF) * 4,  # target
        kind, _FU_BY_NAME[spec.fu], spec.latency,
        tuple(field_regs[f] for f in spec.reads if field_regs[f] != 0),
        tuple(field_regs[f] for f in spec.writes if field_regs[f] != 0),
        tt_mode,
    )
    _DECODE_CACHE[word] = entry
    return entry


class StaticInstr:
    """Predecoded static instruction: functional + timing views.

    Control flow is fully precomputed: ``fall_through`` is the next
    sequential address and ``taken_target`` the branch/jump
    destination, so the interpreter never does PC arithmetic.  This is
    what lets the 16/32-bit mixed layout of :mod:`repro.isa16` reuse
    the same interpreter with 2-byte instructions: the translator
    simply supplies different addresses and targets (and ``size``).
    """

    __slots__ = ("addr", "word", "xop", "rs", "rt", "rd", "shamt", "simm",
                 "uimm", "target", "kind", "srcs", "dsts", "fu", "latency",
                 "size", "fall_through", "taken_target")

    def __init__(self, addr, word, size=4, fall_through=None,
                 taken_target=None):
        entry = _DECODE_CACHE.get(word)
        if entry is None:
            entry = _decode_word(word)
            if entry is None:
                raise SimulationError(
                    "undecodable instruction %#010x at %#x" % (word, addr))
        (self.xop, self.rs, self.rt, self.rd, self.shamt, self.uimm,
         simm, target, self.kind, self.fu, self.latency, self.srcs,
         self.dsts, tt_mode) = entry
        self.simm = simm
        self.target = target
        self.addr = addr
        self.word = word
        self.size = size
        self.fall_through = (addr + size if fall_through is None
                             else fall_through)
        if taken_target is not None:
            self.taken_target = taken_target
        elif tt_mode == _TT_COND:
            self.taken_target = (addr + 4 + simm * 4) & 0xFFFFFFFF
        elif tt_mode == _TT_ABS:
            self.taken_target = target
        else:
            self.taken_target = 0


# ---------------------------------------------------------------------------
# Whole-text classification: one table gather per word
# ---------------------------------------------------------------------------
#
# ``spec_for_word`` keys on the funct field for SPECIAL words, on the rt
# field for REGIMM words and on the opcode otherwise.  Folding the three
# into one key (opcode, 64 + funct, 128 + rt) makes every per-spec fact
# a 160-entry table and classifying a whole text section a handful of
# NumPy gathers.

_N_KEYS = 160

#: Register-field codes of the operand tables: none, the three encoded
#: fields, then the fixed HI, LO and $ra registers.
_FIELD_CODE = {"rs": 1, "rt": 2, "rd": 3, "hi": 4, "lo": 5, "ra": 6}


def _spec_key(spec):
    if spec.op == OP_SPECIAL:
        return 64 + spec.funct
    if spec.op == OP_REGIMM:
        return 128 + spec.regimm_rt
    return spec.op


def _key_tables():
    valid = np.zeros(_N_KEYS, dtype=bool)
    ex = np.zeros(_N_KEYS, dtype=np.uint8)
    latency = np.zeros(_N_KEYS, dtype=np.uint8)
    fields = np.zeros((4, _N_KEYS), dtype=np.uint8)  # read 0/1, write 0/1
    for spec in INSTRUCTIONS.values():
        key = _spec_key(spec)
        valid[key] = True
        kind = _KIND_BY_CLASS[spec.iclass]
        if kind == KIND_PLAIN:
            ex[key] = EX_MULT if _FU_BY_NAME[spec.fu] == FU_MULT \
                else EX_PLAIN
        else:
            ex[key] = _EX_BY_KIND[kind]
        latency[key] = spec.latency
        for row, names in ((0, spec.reads), (2, spec.writes)):
            for slot, name in enumerate(names):
                fields[row + slot, key] = _FIELD_CODE[name]
    return valid, ex, latency, fields


_KEY_VALID, _KEY_EX, _KEY_LATENCY, _KEY_FIELDS = _key_tables()


class TextColumns:
    """Per-word classification of a ``.text`` section, as NumPy columns.

    ``ex`` (the EX_* class), ``latency`` and the operand slots ``s0``,
    ``s1``, ``d0``, ``d1`` (nonzero registers in encoding order, padded
    with ``NO_SRC``/``NO_DST``) are ``uint8`` per word: the rows of
    :class:`repro.sim.replay.ReplayTable`.  ``next_term[i]`` is the
    index of the first block terminator (``EX_TERMINATORS``) at or
    after *i*, or the last index when none follows.
    """

    __slots__ = ("ex", "latency", "s0", "s1", "d0", "d1", "next_term")

    def __init__(self, ex, latency, s0, s1, d0, d1, next_term):
        self.ex = ex
        self.latency = latency
        self.s0 = s0
        self.s1 = s1
        self.d0 = d0
        self.d1 = d1
        self.next_term = next_term


def _slots(first, second, pad):
    """Nonzero registers of a two-field operand list, padded with *pad*."""
    lead = np.where(first != 0, first, second)
    follow = np.where(first != 0, second, 0)
    return (np.where(lead != 0, lead, pad).astype(np.uint8),
            np.where(follow != 0, follow, pad).astype(np.uint8))


def classify_text(words, text_base):
    """Classify every word of a ``.text`` section at once.

    Returns the :class:`TextColumns` of *words* (32-bit instruction
    words from address *text_base*); raises :class:`SimulationError`
    for the first word that does not decode, as building its
    :class:`StaticInstr` would.
    """
    w = np.array(words, dtype=np.int64)
    op = w >> 26
    key = np.where(op == OP_SPECIAL, 64 + (w & 0x3F),
                   np.where(op == OP_REGIMM, 128 + ((w >> 16) & 0x1F), op))
    bad = ~_KEY_VALID[key]
    if bad.any():
        i = int(np.argmax(bad))
        raise SimulationError("undecodable instruction %#010x at %#x"
                              % (int(w[i]), text_base + 4 * i))
    regs = (0, (w >> 21) & 0x1F, (w >> 16) & 0x1F, (w >> 11) & 0x1F,
            REG_HI, REG_LO, 31)
    r0, r1, w0, w1 = (np.choose(_KEY_FIELDS[row][key], regs)
                      for row in range(4))
    s0, s1 = _slots(r0, r1, NO_SRC)
    d0, d1 = _slots(w0, w1, NO_DST)
    ex = _KEY_EX[key]
    n = len(w)
    ends = np.flatnonzero(np.isin(ex, EX_TERMINATORS))
    next_term = np.append(ends, n - 1)[
        np.searchsorted(ends, np.arange(n))]
    return TextColumns(ex, _KEY_LATENCY[key], s0, s1, d0, d1, next_term)


class StaticText(Sequence):
    """A predecoded ``.text`` section.

    Classified whole at construction (:func:`classify_text`, which
    raises for the first undecodable word); the :class:`StaticInstr` for
    index *i* is built the first time something reads ``static[i]``.
    ``decoded[i]`` is that instruction or ``None`` until then, which is
    what lets ``FunctionalCore.step`` skip a call per instruction.
    Indexing, iteration and ``len`` behave like the plain list of
    :class:`StaticInstr` it stands for.

    ``columns`` holds the classification; the ``block_table`` and
    ``replay_table`` slots let trace recording and the trace-replay
    engines (:mod:`repro.sim.replay`) cache their per-program tables on
    the predecoded program, so sweeps that share one ``static`` across
    hundreds of runs build them only once.
    """

    __slots__ = ("text_base", "words", "columns", "decoded", "block_table",
                 "replay_table")

    def __init__(self, words, text_base):
        self.words = tuple(words)
        self.text_base = text_base
        self.columns = classify_text(self.words, text_base)
        self.decoded = [None] * len(self.words)
        self.block_table = None
        self.replay_table = None

    def __len__(self):
        return len(self.decoded)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        st = self.decoded[index]
        if st is None:
            # A plain non-negative int, whatever index type was passed.
            index = range(len(self.decoded))[index]
            st = self.decoded[index] = StaticInstr(
                self.text_base + 4 * index, self.words[index])
        return st

    def __iter__(self):
        return map(self.__getitem__, range(len(self.decoded)))


def predecode(program):
    """Predecode the ``.text`` section of *program* (see StaticText)."""
    return StaticText(program.text, program.text_base)


def text_columns(static):
    """The :class:`TextColumns` of a predecoded program.

    A :class:`StaticText` carries them; a plain list of
    :class:`StaticInstr` is classified from its words by the same code.
    """
    columns = getattr(static, "columns", None)
    if columns is None:
        columns = classify_text([st.word for st in static],
                                static[0].addr if len(static) else 0)
    return columns


def _sdiv(a, b):
    """C-style truncating signed division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class FunctionalCore:
    """Architectural state plus the instruction interpreter.

    ``step()`` executes the instruction at ``pc`` and returns
    ``(static, taken, mem_addr)`` where *static* is the
    :class:`StaticInstr`, *taken* reports conditional-branch direction
    (``False`` otherwise) and *mem_addr* is the byte address touched by
    loads/stores (``-1`` otherwise).
    """

    def __init__(self, program, static=None, pc_index=None, entry=None):
        self.program = program
        self.static = static if static is not None else predecode(program)
        # A StaticText's decoded-or-None list: step() indexes it and asks
        # the StaticText to build an instruction only on a None.
        self._decoded = getattr(self.static, "decoded", self.static)
        self.regs = [0] * 34  # 32 GPRs + HI + LO
        self.regs[29] = DEFAULT_STACK_TOP  # $sp
        self.pc = entry if entry is not None else program.entry
        self.halted = False
        self.exit_code = 0
        self.output = []  # syscall print stream
        self.instret = 0
        self._text_base = program.text_base
        self._text_len = len(self.static)
        # Variable-length layouts supply an explicit pc -> index map;
        # the fixed-width SS32 fast path divides by 4.
        self._pc_index = pc_index
        self.mem = {}
        for addr, byte in program.data.items():
            word_index = addr >> 2
            shift = 24 - 8 * (addr & 3)
            word = self.mem.get(word_index, 0)
            self.mem[word_index] = (word & ~(0xFF << shift)) | (byte << shift)

    # -- data memory ---------------------------------------------------------

    def load_word(self, addr):
        if addr & 3:
            raise SimulationError("misaligned lw at %#x" % addr)
        return self.mem.get(addr >> 2, 0)

    def store_word(self, addr, value):
        if addr & 3:
            raise SimulationError("misaligned sw at %#x" % addr)
        self.mem[addr >> 2] = value & 0xFFFFFFFF

    def load_byte(self, addr):
        word = self.mem.get(addr >> 2, 0)
        return (word >> (24 - 8 * (addr & 3))) & 0xFF

    def store_byte(self, addr, value):
        word_index = addr >> 2
        shift = 24 - 8 * (addr & 3)
        word = self.mem.get(word_index, 0)
        self.mem[word_index] = (word & ~(0xFF << shift)) \
            | ((value & 0xFF) << shift)

    def load_half(self, addr):
        if addr & 1:
            raise SimulationError("misaligned lh at %#x" % addr)
        word = self.mem.get(addr >> 2, 0)
        return (word >> (16 - 8 * (addr & 2))) & 0xFFFF

    def store_half(self, addr, value):
        if addr & 1:
            raise SimulationError("misaligned sh at %#x" % addr)
        word_index = addr >> 2
        shift = 16 - 8 * (addr & 2)
        word = self.mem.get(word_index, 0)
        self.mem[word_index] = (word & ~(0xFFFF << shift)) \
            | ((value & 0xFFFF) << shift)

    # -- syscalls -------------------------------------------------------------

    def _syscall(self):
        code = self.regs[2]  # $v0
        if code == SYSCALL_EXIT:
            self.halted = True
            self.exit_code = self.regs[4]
        elif code == SYSCALL_PRINT_INT:
            value = self.regs[4]
            self.output.append(str(value - 0x100000000
                                   if value & 0x80000000 else value))
        elif code == SYSCALL_PRINT_CHAR:
            self.output.append(chr(self.regs[4] & 0xFF))
        else:
            raise SimulationError("unknown syscall %d at pc=%#x"
                                  % (code, self.pc))

    # -- the interpreter -------------------------------------------------------

    def step(self):
        """Execute one instruction; see class docstring for the return."""
        if self._pc_index is None:
            index = (self.pc - self._text_base) >> 2
            if not 0 <= index < self._text_len:
                raise SimulationError("pc %#x outside .text" % self.pc)
        else:
            index = self._pc_index.get(self.pc, -1)
            if index < 0:
                raise SimulationError("pc %#x outside .text" % self.pc)
        st = self._decoded[index]
        if st is None:
            st = self.static[index]
        regs = self.regs
        xop = st.xop
        next_pc = st.fall_through
        taken = False
        mem_addr = -1

        if xop == X_ADDIU or xop == X_ADDI:
            if st.rt:
                regs[st.rt] = (regs[st.rs] + st.simm) & 0xFFFFFFFF
        elif xop == X_ADDU or xop == X_ADD:
            if st.rd:
                regs[st.rd] = (regs[st.rs] + regs[st.rt]) & 0xFFFFFFFF
        elif xop == X_LW:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            if st.rt:
                regs[st.rt] = self.load_word(mem_addr)
        elif xop == X_SW:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            self.store_word(mem_addr, regs[st.rt])
        elif xop == X_BNE:
            taken = regs[st.rs] != regs[st.rt]
            if taken:
                next_pc = st.taken_target
        elif xop == X_BEQ:
            taken = regs[st.rs] == regs[st.rt]
            if taken:
                next_pc = st.taken_target
        elif xop == X_ORI:
            if st.rt:
                regs[st.rt] = regs[st.rs] | st.uimm
        elif xop == X_LUI:
            if st.rt:
                regs[st.rt] = (st.uimm << 16) & 0xFFFFFFFF
        elif xop == X_SLL:
            if st.rd:
                regs[st.rd] = (regs[st.rt] << st.shamt) & 0xFFFFFFFF
        elif xop == X_JAL:
            regs[31] = st.fall_through
            next_pc = st.taken_target
        elif xop == X_JR:
            next_pc = regs[st.rs]
        elif xop == X_SLTI:
            a = regs[st.rs]
            if st.rt:
                regs[st.rt] = int((a - 0x100000000 if a & 0x80000000 else a)
                                  < st.simm)
        elif xop == X_SLT:
            if st.rd:
                regs[st.rd] = int((regs[st.rs] ^ 0x80000000)
                                  < (regs[st.rt] ^ 0x80000000))
        elif xop == X_SLTU:
            if st.rd:
                regs[st.rd] = int(regs[st.rs] < regs[st.rt])
        elif xop == X_SLTIU:
            if st.rt:
                regs[st.rt] = int(regs[st.rs] < (st.simm & 0xFFFFFFFF))
        elif xop == X_ANDI:
            if st.rt:
                regs[st.rt] = regs[st.rs] & st.uimm
        elif xop == X_XORI:
            if st.rt:
                regs[st.rt] = regs[st.rs] ^ st.uimm
        elif xop == X_AND:
            if st.rd:
                regs[st.rd] = regs[st.rs] & regs[st.rt]
        elif xop == X_OR:
            if st.rd:
                regs[st.rd] = regs[st.rs] | regs[st.rt]
        elif xop == X_XOR:
            if st.rd:
                regs[st.rd] = regs[st.rs] ^ regs[st.rt]
        elif xop == X_NOR:
            if st.rd:
                regs[st.rd] = ~(regs[st.rs] | regs[st.rt]) & 0xFFFFFFFF
        elif xop == X_SUB or xop == X_SUBU:
            if st.rd:
                regs[st.rd] = (regs[st.rs] - regs[st.rt]) & 0xFFFFFFFF
        elif xop == X_SRL:
            if st.rd:
                regs[st.rd] = regs[st.rt] >> st.shamt
        elif xop == X_SRA:
            if st.rd:
                value = regs[st.rt]
                if value & 0x80000000:
                    value -= 0x100000000
                regs[st.rd] = (value >> st.shamt) & 0xFFFFFFFF
        elif xop == X_SLLV:
            if st.rd:
                regs[st.rd] = (regs[st.rt] << (regs[st.rs] & 31)) & 0xFFFFFFFF
        elif xop == X_SRLV:
            if st.rd:
                regs[st.rd] = regs[st.rt] >> (regs[st.rs] & 31)
        elif xop == X_SRAV:
            if st.rd:
                value = regs[st.rt]
                if value & 0x80000000:
                    value -= 0x100000000
                regs[st.rd] = (value >> (regs[st.rs] & 31)) & 0xFFFFFFFF
        elif xop == X_BLEZ:
            value = regs[st.rs]
            taken = value == 0 or bool(value & 0x80000000)
            if taken:
                next_pc = st.taken_target
        elif xop == X_BGTZ:
            value = regs[st.rs]
            taken = value != 0 and not value & 0x80000000
            if taken:
                next_pc = st.taken_target
        elif xop == X_BLTZ:
            taken = bool(regs[st.rs] & 0x80000000)
            if taken:
                next_pc = st.taken_target
        elif xop == X_BGEZ:
            taken = not regs[st.rs] & 0x80000000
            if taken:
                next_pc = st.taken_target
        elif xop == X_J:
            next_pc = st.taken_target
        elif xop == X_JALR:
            if st.rd:
                regs[st.rd] = st.fall_through
            next_pc = regs[st.rs]
        elif xop == X_LB:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            value = self.load_byte(mem_addr)
            if st.rt:
                regs[st.rt] = value - 0x100 if value & 0x80 else value
                regs[st.rt] &= 0xFFFFFFFF
        elif xop == X_LBU:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            if st.rt:
                regs[st.rt] = self.load_byte(mem_addr)
        elif xop == X_LH:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            value = self.load_half(mem_addr)
            if st.rt:
                regs[st.rt] = value - 0x10000 if value & 0x8000 else value
                regs[st.rt] &= 0xFFFFFFFF
        elif xop == X_LHU:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            if st.rt:
                regs[st.rt] = self.load_half(mem_addr)
        elif xop == X_SB:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            self.store_byte(mem_addr, regs[st.rt])
        elif xop == X_SH:
            mem_addr = (regs[st.rs] + st.simm) & 0xFFFFFFFF
            self.store_half(mem_addr, regs[st.rt])
        elif xop == X_MULT:
            a, b = regs[st.rs], regs[st.rt]
            if a & 0x80000000:
                a -= 0x100000000
            if b & 0x80000000:
                b -= 0x100000000
            product = (a * b) & 0xFFFFFFFFFFFFFFFF
            regs[REG_LO] = product & 0xFFFFFFFF
            regs[REG_HI] = (product >> 32) & 0xFFFFFFFF
        elif xop == X_MULTU:
            product = regs[st.rs] * regs[st.rt]
            regs[REG_LO] = product & 0xFFFFFFFF
            regs[REG_HI] = (product >> 32) & 0xFFFFFFFF
        elif xop == X_DIV:
            a, b = regs[st.rs], regs[st.rt]
            if a & 0x80000000:
                a -= 0x100000000
            if b & 0x80000000:
                b -= 0x100000000
            if b == 0:
                regs[REG_LO] = 0xFFFFFFFF
                regs[REG_HI] = a & 0xFFFFFFFF
            else:
                regs[REG_LO] = _sdiv(a, b) & 0xFFFFFFFF
                regs[REG_HI] = (a - _sdiv(a, b) * b) & 0xFFFFFFFF
        elif xop == X_DIVU:
            a, b = regs[st.rs], regs[st.rt]
            if b == 0:
                regs[REG_LO] = 0xFFFFFFFF
                regs[REG_HI] = a
            else:
                regs[REG_LO] = a // b
                regs[REG_HI] = a % b
        elif xop == X_MFHI:
            if st.rd:
                regs[st.rd] = regs[REG_HI]
        elif xop == X_MFLO:
            if st.rd:
                regs[st.rd] = regs[REG_LO]
        elif xop == X_SYSCALL:
            self._syscall()
        else:  # pragma: no cover
            raise SimulationError("unhandled xop %d" % xop)

        self.pc = next_pc
        self.instret += 1
        return st, taken, mem_addr

    def run(self, max_instructions=10_000_000):
        """Run functionally to completion (no timing); returns instret."""
        while not self.halted:
            if self.instret >= max_instructions:
                raise SimulationError(
                    "instruction budget exceeded (%d)" % max_instructions)
            self.step()
        return self.instret


# ---------------------------------------------------------------------------
# Compiled per-instruction closures (trace recording's dispatch)
# ---------------------------------------------------------------------------
#
# ``compile_exec`` turns one StaticInstr into a specialised closure that
# performs exactly the architectural effect ``step()`` would, with the
# operand fields and $zero-write guards baked in at compile time, so
# trace recording (repro.sim.replay.record_trace) executes straight-line
# code without walking the 49-way dispatch chain above.  ``step()`` is
# deliberately left untouched: it is the oracle the differential tests
# compare the compiled path against.
#
# The closure signature depends on the execution class:
#
# * EX_PLAIN / EX_MULT   -- ``fn(regs)``; result registers written in place.
# * EX_LOAD / EX_STORE   -- ``fn(core) -> mem_addr`` (byte address touched).
# * EX_BRANCH            -- ``fn(regs) -> taken``.
# * EX_JUMP              -- ``fn(regs) -> next_pc`` (link register written).
# * EX_SYSCALL           -- ``fn(core)``; may halt the core.

def _ex_nop(regs):
    return None


#: word -> compiled closure, for the word-determined execution classes.
#: Jumps and calls close over ``taken_target``/``fall_through`` (address
#: context), so they are compiled per site; everything else reads only
#: word fields and architectural state passed in at call time, making
#: one closure per distinct word safe to share across programs.
_EXEC_CACHE = {}


def compile_exec(st):
    """Compile *st* to a specialised closure (see module comment)."""
    xop = st.xop
    if xop == X_J or xop == X_JAL or xop == X_JALR:
        return _compile_exec(st)
    word = st.word
    fn = _EXEC_CACHE.get(word)
    if fn is None:
        fn = _EXEC_CACHE[word] = _compile_exec(st)
    return fn


def _compile_exec(st):
    xop = st.xop
    rs = st.rs
    rt = st.rt
    rd = st.rd
    shamt = st.shamt
    simm = st.simm
    uimm = st.uimm

    # -- ALU / shift / immediate ------------------------------------------
    if xop == X_ADDIU or xop == X_ADDI:
        if not rt:
            return _ex_nop

        def fn(regs):
            regs[rt] = (regs[rs] + simm) & 0xFFFFFFFF
        return fn
    if xop == X_ADDU or xop == X_ADD:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = (regs[rs] + regs[rt]) & 0xFFFFFFFF
        return fn
    if xop == X_SUB or xop == X_SUBU:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = (regs[rs] - regs[rt]) & 0xFFFFFFFF
        return fn
    if xop == X_ORI:
        if not rt:
            return _ex_nop

        def fn(regs):
            regs[rt] = regs[rs] | uimm
        return fn
    if xop == X_LUI:
        if not rt:
            return _ex_nop
        value = (uimm << 16) & 0xFFFFFFFF

        def fn(regs):
            regs[rt] = value
        return fn
    if xop == X_ANDI:
        if not rt:
            return _ex_nop

        def fn(regs):
            regs[rt] = regs[rs] & uimm
        return fn
    if xop == X_XORI:
        if not rt:
            return _ex_nop

        def fn(regs):
            regs[rt] = regs[rs] ^ uimm
        return fn
    if xop == X_AND:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[rs] & regs[rt]
        return fn
    if xop == X_OR:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[rs] | regs[rt]
        return fn
    if xop == X_XOR:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[rs] ^ regs[rt]
        return fn
    if xop == X_NOR:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = ~(regs[rs] | regs[rt]) & 0xFFFFFFFF
        return fn
    if xop == X_SLL:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = (regs[rt] << shamt) & 0xFFFFFFFF
        return fn
    if xop == X_SRL:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[rt] >> shamt
        return fn
    if xop == X_SRA:
        if not rd:
            return _ex_nop

        def fn(regs):
            value = regs[rt]
            if value & 0x80000000:
                value -= 0x100000000
            regs[rd] = (value >> shamt) & 0xFFFFFFFF
        return fn
    if xop == X_SLLV:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = (regs[rt] << (regs[rs] & 31)) & 0xFFFFFFFF
        return fn
    if xop == X_SRLV:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[rt] >> (regs[rs] & 31)
        return fn
    if xop == X_SRAV:
        if not rd:
            return _ex_nop

        def fn(regs):
            value = regs[rt]
            if value & 0x80000000:
                value -= 0x100000000
            regs[rd] = (value >> (regs[rs] & 31)) & 0xFFFFFFFF
        return fn
    if xop == X_SLTI:
        if not rt:
            return _ex_nop

        def fn(regs):
            a = regs[rs]
            regs[rt] = int((a - 0x100000000 if a & 0x80000000 else a) < simm)
        return fn
    if xop == X_SLT:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = int((regs[rs] ^ 0x80000000) < (regs[rt] ^ 0x80000000))
        return fn
    if xop == X_SLTU:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = int(regs[rs] < regs[rt])
        return fn
    if xop == X_SLTIU:
        if not rt:
            return _ex_nop
        bound = simm & 0xFFFFFFFF

        def fn(regs):
            regs[rt] = int(regs[rs] < bound)
        return fn

    # -- multiply / divide -------------------------------------------------
    if xop == X_MULT:
        def fn(regs):
            a = regs[rs]
            b = regs[rt]
            if a & 0x80000000:
                a -= 0x100000000
            if b & 0x80000000:
                b -= 0x100000000
            product = (a * b) & 0xFFFFFFFFFFFFFFFF
            regs[REG_LO] = product & 0xFFFFFFFF
            regs[REG_HI] = (product >> 32) & 0xFFFFFFFF
        return fn
    if xop == X_MULTU:
        def fn(regs):
            product = regs[rs] * regs[rt]
            regs[REG_LO] = product & 0xFFFFFFFF
            regs[REG_HI] = (product >> 32) & 0xFFFFFFFF
        return fn
    if xop == X_DIV:
        def fn(regs):
            a = regs[rs]
            b = regs[rt]
            if a & 0x80000000:
                a -= 0x100000000
            if b & 0x80000000:
                b -= 0x100000000
            if b == 0:
                regs[REG_LO] = 0xFFFFFFFF
                regs[REG_HI] = a & 0xFFFFFFFF
            else:
                regs[REG_LO] = _sdiv(a, b) & 0xFFFFFFFF
                regs[REG_HI] = (a - _sdiv(a, b) * b) & 0xFFFFFFFF
        return fn
    if xop == X_DIVU:
        def fn(regs):
            a = regs[rs]
            b = regs[rt]
            if b == 0:
                regs[REG_LO] = 0xFFFFFFFF
                regs[REG_HI] = a
            else:
                regs[REG_LO] = a // b
                regs[REG_HI] = a % b
        return fn
    if xop == X_MFHI:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[REG_HI]
        return fn
    if xop == X_MFLO:
        if not rd:
            return _ex_nop

        def fn(regs):
            regs[rd] = regs[REG_LO]
        return fn

    # -- loads / stores ----------------------------------------------------
    if xop == X_LW:
        if rt:
            def fn(core):
                regs = core.regs
                addr = (regs[rs] + simm) & 0xFFFFFFFF
                if addr & 3:
                    raise SimulationError("misaligned lw at %#x" % addr)
                regs[rt] = core.mem.get(addr >> 2, 0)
                return addr
        else:
            def fn(core):
                return (core.regs[rs] + simm) & 0xFFFFFFFF
        return fn
    if xop == X_SW:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            if addr & 3:
                raise SimulationError("misaligned sw at %#x" % addr)
            core.mem[addr >> 2] = regs[rt] & 0xFFFFFFFF
            return addr
        return fn
    if xop == X_LB:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            value = core.load_byte(addr)
            if rt:
                regs[rt] = (value - 0x100 if value & 0x80
                            else value) & 0xFFFFFFFF
            return addr
        return fn
    if xop == X_LBU:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            if rt:
                regs[rt] = core.load_byte(addr)
            return addr
        return fn
    if xop == X_LH:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            value = core.load_half(addr)
            if rt:
                regs[rt] = (value - 0x10000 if value & 0x8000
                            else value) & 0xFFFFFFFF
            return addr
        return fn
    if xop == X_LHU:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            if rt:
                regs[rt] = core.load_half(addr)
            return addr
        return fn
    if xop == X_SB:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            core.store_byte(addr, regs[rt])
            return addr
        return fn
    if xop == X_SH:
        def fn(core):
            regs = core.regs
            addr = (regs[rs] + simm) & 0xFFFFFFFF
            core.store_half(addr, regs[rt])
            return addr
        return fn

    # -- control flow ------------------------------------------------------
    if xop == X_BNE:
        def fn(regs):
            return regs[rs] != regs[rt]
        return fn
    if xop == X_BEQ:
        def fn(regs):
            return regs[rs] == regs[rt]
        return fn
    if xop == X_BLEZ:
        def fn(regs):
            value = regs[rs]
            return value == 0 or bool(value & 0x80000000)
        return fn
    if xop == X_BGTZ:
        def fn(regs):
            value = regs[rs]
            return value != 0 and not value & 0x80000000
        return fn
    if xop == X_BLTZ:
        def fn(regs):
            return bool(regs[rs] & 0x80000000)
        return fn
    if xop == X_BGEZ:
        def fn(regs):
            return not regs[rs] & 0x80000000
        return fn
    if xop == X_J:
        target = st.taken_target

        def fn(regs):
            return target
        return fn
    if xop == X_JAL:
        target = st.taken_target
        link = st.fall_through

        def fn(regs):
            regs[31] = link
            return target
        return fn
    if xop == X_JR:
        def fn(regs):
            return regs[rs]
        return fn
    if xop == X_JALR:
        link = st.fall_through
        if rd:
            # Write the link register first: step() does, so jalr with
            # rd == rs jumps to the fall-through address.
            def fn(regs):
                regs[rd] = link
                return regs[rs]
        else:
            def fn(regs):
                return regs[rs]
        return fn
    if xop == X_SYSCALL:
        def fn(core):
            core._syscall()
        return fn
    raise SimulationError("unhandled xop %d" % xop)  # pragma: no cover
