"""Program generators for the synthetic benchmark suite.

Two families:

* :func:`build_call_heavy` -- a large population of generated functions
  driven by a data-dependent dispatch loop.  A linear-congruential
  generator computed *in simulated code* picks each callee: mostly from
  a small cache-resident "hot" subset, occasionally from the whole
  population.  The cold-call probability and population size dial in
  the L1 I-miss rate, mimicking cc1/go/perl/vortex.
* :func:`build_media_kernel` / :func:`build_crypto_kernel` --
  loop-dominated kernels with tiny instruction footprints, mimicking
  mpeg2enc/pegwit.

Generated code is deliberately "compiler shaped" so that CodePack sees
a realistic halfword distribution: a small set of registers carries
most traffic, immediates are mostly small but occasionally arbitrary,
and global accesses materialise scattered 32-bit addresses with
``lui``/``ori`` -- the source of the paper's 15-25% raw bits.
"""

import random
from bisect import bisect as _bisect
from dataclasses import dataclass
from itertools import accumulate as _accumulate

from repro.isa.builder import AsmBuilder
from repro.isa.encoding import (
    RD_SHIFT,
    RS_SHIFT,
    RT_SHIFT,
    SHAMT_SHIFT,
    encode_i,
    encode_j,
    encode_r,
)
from repro.isa.opcodes import INSTRUCTIONS
from repro.isa.registers import (
    A0, A1, A2, A3, RA, SP, V0, V1,
    S0, S1, S2, S3, S4, S5, S6, S7,
    T0, T1, T2, T3, T4, T5, T6, T7, T8, T9,
)

#: Data-segment layout (byte addresses).
TABLE_BASE = 0x1000_0000  # function-pointer dispatch table
GLOBAL_BASE = 0x1010_0000  # scattered global variables
ARRAY_BASE = 0x1020_0000  # dense kernel arrays

_LCG_MULTIPLIER = 1103515245
_LCG_INCREMENT = 12345

# Registers generated function bodies may clobber.
_TEMP_REGS = (T0, T1, T2, T3, T4, T5, T6, T7, T8, T9, A1, A2, A3, V1)
# Register-allocation skew profiles.  CodePack's high halfword packs
# op|rs|rt, so the number of *register pair* combinations in flight
# directly sets how much of the high stream fits the dictionary; the
# "tight" profile mimics a compiler that channels most traffic through
# two or three registers (low raw fraction, go/vortex-like) while
# "flat" spreads it (cc1/perl-like, 20%+ raw).
_REG_PROFILES = {
    "flat": (18, 16, 14, 12, 8, 6, 4, 3, 2, 2, 4, 3, 2, 2),
    "tight": (45, 28, 14, 7, 4, 3, 2, 1, 1, 1, 2, 1, 1, 1),
}

_FRAME_BYTES = 48
_FRAME_RA_OFFSET = 44


@dataclass(frozen=True)
class CallHeavyParams:
    """Tuning knobs for the call-heavy generator.

    * ``n_funcs`` -- population size (power of two), sets static footprint
    * ``hot_funcs`` -- size of the cache-resident subset (power of two)
    * ``cold_threshold`` -- out of 256: probability of a cold call
    * ``iterations`` -- dispatch-loop trip count (dynamic length)
    * ``body_min``/``body_max`` -- operations per generated function
    * ``rare_imm_pct`` -- percent of immediates drawn uniformly from 16
      bits (drives the raw-bits fraction of the compressed image)
    """

    n_funcs: int = 1024
    hot_funcs: int = 64
    cold_threshold: int = 32
    iterations: int = 8000
    body_min: int = 10
    body_max: int = 28
    rare_imm_pct: int = 12
    call_leaf_pct: int = 20
    global_pct: int = 12
    global_span: int = 16 * 1024
    reg_profile: str = "flat"
    cold_window: int = 0  # 0 = uniform over n_funcs; else window size
    window_step_shift: int = 3  # window drifts every 2**shift iterations
    seed: int = 1

    def __post_init__(self):
        for field in ("n_funcs", "hot_funcs"):
            value = getattr(self, field)
            if value < 1 or value & (value - 1):
                raise ValueError("%s must be a power of two" % field)
        if self.hot_funcs > self.n_funcs:
            raise ValueError("hot_funcs must not exceed n_funcs")
        if not 0 <= self.body_min <= self.body_max:
            raise ValueError("need 0 <= body_min <= body_max")
        if self.global_span < 1:
            raise ValueError("global_span must be positive")
        if not 0 <= self.cold_threshold <= 256:
            raise ValueError("cold_threshold out of range")
        if self.reg_profile not in _REG_PROFILES:
            raise ValueError("unknown reg_profile %r" % self.reg_profile)
        if self.cold_window and self.cold_window & (self.cold_window - 1):
            raise ValueError("cold_window must be a power of two")


def _below(getrandbits, n):
    """``Random._randbelow(n)`` on CPython, draw for draw.

    ``n.bit_length()`` bits from *getrandbits*, redrawn while the value
    is ``>= n``: so ``_below(g, 8)`` takes 4 bits and can reject.
    ``choice(seq)`` is ``seq[_below(g, len(seq))]`` and ``randrange(a,
    b)`` is ``a + _below(g, b - a)``.  *n* must be positive (for 0 it
    draws zero bits and rejects forever).  The emitter inlines the same
    two-line loop, with the bit count folded, where ``n`` is a constant.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _r_word(name, rs=0, rt=0, rd=0, shamt=0):
    spec = INSTRUCTIONS[name]
    return encode_r(spec.op, rs, rt, rd, shamt, spec.funct)


def _i_word(name, rs=0, rt=0, imm=0):
    return encode_i(INSTRUCTIONS[name].op, rs, rt, imm)


def _field_error(word):
    raise ValueError("operand field out of range in %#x" % word)


# Operand-free words of everything the emitter draws, in the order the
# draws index them (``choice`` over the ALU forms, ``randbelow(2)`` over
# the branch and stack forms).  Register and immediate fields are ORed
# in per word, behind one combined range check.
_THREE_REG = tuple(_r_word(m) for m in ("addu", "subu", "xor", "or", "and"))
_IMMEDIATE = tuple(_i_word(m)
                   for m in ("addiu", "andi", "ori", "xori", "slti"))
_SHIFT = tuple(_r_word(m) for m in ("sll", "srl", "sra"))
_SLT = _r_word("slt")
_BRANCH = (_i_word("bne"), _i_word("beq"))
_LW = _i_word("lw")
_SW = _i_word("sw")
_STACK = (_LW, _SW)
_LUI = _i_word("lui")
_ORI = _i_word("ori")
_MULT = _r_word("mult")
_MFLO = _r_word("mflo")
_JAL = encode_j(INSTRUCTIONS["jal"].op, 0)
_ADDU_V0 = _r_word("addu", rd=V0)
_JR_RA = _r_word("jr", rs=RA)
_PROLOGUE = (_i_word("addiu", SP, SP, -_FRAME_BYTES),
             _i_word("sw", SP, RA, _FRAME_RA_OFFSET))
_EPILOGUE = (_i_word("lw", SP, RA, _FRAME_RA_OFFSET),
             _i_word("addiu", SP, SP, _FRAME_BYTES),
             _JR_RA)


def _emit_routines(b, rng, params, n_leaves, stem, n_functions,
                   table=False):
    """Emit ``n_leaves`` leaf helpers, then ``n_functions`` full functions.

    Leaves are ``leaf_<i>``: frameless, 4-8 ALU ops.  Functions are
    ``<stem>_<i>``: a frame, a body of ``body_min``-``body_max`` ops
    (ALU, stack and global accesses, if-diamonds, multiplies and calls
    to the leaves) and an epilogue.  With *table*, function *i*'s
    address is stored at ``TABLE_BASE + 4 * i`` (the dispatch table).

    Benchmark content is defined by the exact sequence of draws from the
    seeded *rng* (the goldens hash the generated programs), so each
    draw is written out as the CPython ``random.Random`` call that
    defines it, named in the comment beside it: ``randbelow(n)`` is
    :func:`_below`'s loop, ``reg()`` one ``random()`` bisected into the
    profile's cumulative weights (``choices(regs, weights)[0]``),
    ``choice(seq)`` is ``seq[randbelow(len(seq))]`` and ``randrange(4,
    9)`` is ``4 + randbelow(5)``.  Draws come in operand order, and
    where ``choice`` picks an instruction form its draw precedes the
    form's immediate or shift-amount draw (a callee before its
    arguments).

    Words are encoded here and appended to the builder's own word list;
    labels and branch/call fixups go through the builder, which checks
    duplicates and resolves the fixups in :meth:`AsmBuilder.build`.
    """
    words = b.words
    emit = words.append
    extend = words.extend
    label = b.label
    fixup = b.fixup
    getrandbits = rng.getrandbits
    random = rng.random
    bisect = _bisect
    regs = _TEMP_REGS
    cum = list(_accumulate(_REG_PROFILES[params.reg_profile]))
    total = cum[-1] + 0.0
    top = len(regs) - 1
    rare = params.rare_imm_pct
    small = rare + 50
    span = params.global_span
    below_global = 60 + params.global_pct
    below_call = 92 + params.call_leaf_pct // 2 if n_leaves else 0
    leaves = ["leaf_%d" % i for i in range(n_leaves)]
    three_reg, immediate, shift = _THREE_REG, _IMMEDIATE, _SHIFT

    def alu():
        form = getrandbits(4)  # randbelow(10)
        while form >= 10:
            form = getrandbits(4)
        rd = regs[bisect(cum, random() * total, 0, top)]
        rs = regs[bisect(cum, random() * total, 0, top)]
        rt = regs[bisect(cum, random() * total, 0, top)]
        if form < 4:
            c = getrandbits(3)  # choice(three_reg)
            while c >= 5:
                c = getrandbits(3)
            word = (three_reg[c] | rs << RS_SHIFT | rt << RT_SHIFT
                    | rd << RD_SHIFT)
            bad = (rs | rt | rd) >> 5
        elif form < 7:
            c = getrandbits(3)  # choice(immediate), before imm()
            while c >= 5:
                c = getrandbits(3)
            roll = getrandbits(7)  # randbelow(100)
            while roll >= 100:
                roll = getrandbits(7)
            if roll < rare:
                imm = getrandbits(16)  # randbelow(0x8000)
                while imm >= 0x8000:
                    imm = getrandbits(16)
            elif roll < small:
                imm = getrandbits(5)  # randbelow(16)
                while imm >= 16:
                    imm = getrandbits(5)
            else:
                imm = getrandbits(9)  # randbelow(256)
                while imm >= 256:
                    imm = getrandbits(9)
            word = immediate[c] | rs << RS_SHIFT | rd << RT_SHIFT | imm
            bad = (rs | rd) >> 5 | imm >> 16
        elif form < 9:
            c = getrandbits(2)  # choice(shift)
            while c >= 3:
                c = getrandbits(2)
            amount = getrandbits(4)  # 1 + randbelow(8)
            while amount >= 8:
                amount = getrandbits(4)
            amount += 1
            word = (shift[c] | rs << RT_SHIFT | rd << RD_SHIFT
                    | amount << SHAMT_SHIFT)
            bad = (rs | rd | amount) >> 5
        else:
            word = _SLT | rs << RS_SHIFT | rt << RT_SHIFT | rd << RD_SHIFT
            bad = (rs | rt | rd) >> 5
        if bad:
            _field_error(word)
        emit(word)

    def result():  # addu $v0, reg(), reg()
        rs = regs[bisect(cum, random() * total, 0, top)]
        rt = regs[bisect(cum, random() * total, 0, top)]
        if (rs | rt) >> 5:
            _field_error(_ADDU_V0)
        emit(_ADDU_V0 | rs << RS_SHIFT | rt << RT_SHIFT)

    for name in leaves:
        label(name)
        for _ in range(4 + _below(getrandbits, 5)):  # randrange(4, 9)
            alu()
        result()
        emit(_JR_RA)

    for index in range(n_functions):
        name = "%s_%d" % (stem, index)
        label(name)
        extend(_PROLOGUE)
        for _ in range(params.body_min + _below(
                getrandbits, params.body_max + 1 - params.body_min)):
            kind = getrandbits(7)  # randbelow(100)
            while kind >= 100:
                kind = getrandbits(7)
            if kind < 45:
                alu()
            elif kind < 60:  # stack slot below $ra
                offset = getrandbits(4)  # 4 * randbelow(8)
                while offset >= 8:
                    offset = getrandbits(4)
                store = getrandbits(2)  # randbelow(2)
                while store >= 2:
                    store = getrandbits(2)
                rt = regs[bisect(cum, random() * total, 0, top)]
                word = (_STACK[store] | SP << RS_SHIFT | rt << RT_SHIFT
                        | offset << 2)
                if rt >> 5:
                    _field_error(word)
                emit(word)
            elif kind < below_global:
                # A scattered global: lui/ori materialises the address.
                # A random low halfword from a wide span is exactly the
                # kind of value CodePack leaves raw; a narrow span
                # repeats values the dictionary captures, which is how
                # the low-raw-fraction benchmarks behave.
                addr = (GLOBAL_BASE + 4 * _below(getrandbits, span)) \
                    & 0xFFFFFFFF
                base = regs[bisect(cum, random() * total, 0, top)]
                if base >> 5:
                    _field_error(_LUI)
                emit(_LUI | base << RT_SHIFT | addr >> 16)
                emit(_ORI | base << RS_SHIFT | base << RT_SHIFT
                     | (addr & 0xFFFF))
                load = getrandbits(2)  # randbelow(3)
                while load >= 3:
                    load = getrandbits(2)
                rt = regs[bisect(cum, random() * total, 0, top)]
                word = ((_LW if load else _SW) | base << RS_SHIFT
                        | rt << RT_SHIFT)
                if rt >> 5:
                    _field_error(word)
                emit(word)
            elif kind < 86:  # if-diamond over 1-3 ALU ops
                rs = regs[bisect(cum, random() * total, 0, top)]
                rt = regs[bisect(cum, random() * total, 0, top)]
                skip = "%s_skip_%d" % (name, len(words))
                taken = getrandbits(2)  # randbelow(2): beq, else bne
                while taken >= 2:
                    taken = getrandbits(2)
                word = _BRANCH[taken] | rs << RS_SHIFT | rt << RT_SHIFT
                if (rs | rt) >> 5:
                    _field_error(word)
                fixup("branch", skip)
                emit(word)
                count = getrandbits(2)  # 1 + randbelow(3)
                while count >= 3:
                    count = getrandbits(2)
                for _ in range(1 + count):
                    alu()
                label(skip)
            elif kind < 92:  # mult reg(), reg(); mflo reg()
                rs = regs[bisect(cum, random() * total, 0, top)]
                rt = regs[bisect(cum, random() * total, 0, top)]
                rd = regs[bisect(cum, random() * total, 0, top)]
                if (rs | rt | rd) >> 5:
                    _field_error(_MULT)
                emit(_MULT | rs << RS_SHIFT | rt << RT_SHIFT)
                emit(_MFLO | rd << RD_SHIFT)
            elif kind < below_call:  # jal choice(leaves)
                fixup("jump", leaves[_below(getrandbits, n_leaves)])
                emit(_JAL)
            else:
                alu()
        result()
        extend(_EPILOGUE)
        if table:
            b.data_label_word(TABLE_BASE + 4 * index, name)


def build_call_heavy(name, params=None):
    """Generate a call-heavy benchmark (the cc1/go/perl/vortex family).

    Register roles in the dispatch loop: S0 = LCG state, S1 = loop
    counter, S2 = trip count, S3 = table base, S4 = checksum, S7 = LCG
    multiplier.  Generated functions preserve S-registers and $sp.
    """
    params = params or CallHeavyParams()
    rng = random.Random(params.seed)
    b = AsmBuilder(name=name)

    # ---- dispatch loop -----------------------------------------------------
    b.li(S0, params.seed * 2654435761 % (1 << 32) | 1)
    b.li(S7, _LCG_MULTIPLIER)
    b.li(S1, 0)
    b.li(S2, params.iterations)
    b.li(S3, TABLE_BASE)
    b.li(S4, 0)
    b.label("main_loop")
    b.mult(S0, S7)
    b.mflo(S0)
    b.addiu(S0, S0, _LCG_INCREMENT)
    b.srl(T0, S0, 18)
    b.andi(T0, T0, 0xFF)
    b.sltiu(T1, T0, params.cold_threshold)
    b.bne(T1, 0, "cold_call")
    b.srl(T2, S0, 8)
    b.andi(T2, T2, params.hot_funcs - 1)
    b.branch_always("do_call")
    b.label("cold_call")
    b.srl(T2, S0, 8)
    if params.cold_window:
        # Cold calls cluster in a window that drifts through the
        # population as the run proceeds -- real programs take their
        # I-misses in phases, which is what gives the index cache its
        # locality (paper Table 6's steep curve).
        b.andi(T2, T2, params.cold_window - 1)
        b.srl(T5, S1, params.window_step_shift)
        b.addu(T2, T2, T5)
        b.andi(T2, T2, params.n_funcs - 1)
    else:
        b.andi(T2, T2, params.n_funcs - 1)
    b.label("do_call")
    b.sll(T3, T2, 2)
    b.addu(T3, T3, S3)
    b.lw(T4, 0, T3)
    b.jalr(RA, T4)
    b.addu(S4, S4, V0)
    b.addiu(S1, S1, 1)
    b.bne(S1, S2, "main_loop")
    # ---- epilogue: print the checksum and exit ------------------------------
    b.move(A0, S4)
    b.addiu(V0, 0, 1)
    b.syscall()
    b.halt()

    # ---- leaf helpers (hot, shared), then the function population -----------
    _emit_routines(b, rng, params, 8, "fn", params.n_funcs, table=True)
    return b.build()


def _emit_dead_library(b, rng, params, count):
    """Emit *count* never-called functions after the program's hot code.

    The paper's benchmarks are statically linked, so most of their
    ``.text`` is library code the run never touches; it still gets
    compressed and counted.  This keeps the kernels' compression-ratio
    denominators realistic without perturbing their I-cache behaviour.
    """
    _emit_routines(b, rng, params, 0, "lib", count)


def build_media_kernel(name="mpeg2enc", iterations=600, seed=7,
                       dead_funcs=280):
    """A loop-dominated DCT/SAD-style kernel (the mpeg2enc stand-in).

    Per outer iteration: an 8x8 integer butterfly transform over one
    block (unrolled row loop) followed by a sum-of-absolute-differences
    loop against a reference block.  Instruction footprint is a few
    hundred words, so the I-cache never misses after warm-up -- the
    paper reports 0.0% for mpeg2enc.
    """
    rng = random.Random(seed)
    b = AsmBuilder(name=name)
    block_a = ARRAY_BASE
    block_b = ARRAY_BASE + 0x400
    out = ARRAY_BASE + 0x800
    for i in range(64):
        b.data_word(block_a + 4 * i, rng.randrange(0, 256))
        b.data_word(block_b + 4 * i, rng.randrange(0, 256))

    b.li(S0, 0)  # outer counter
    b.li(S1, iterations)
    b.li(S4, 0)  # checksum
    b.label("outer")

    # -- row transform: 8 rows, loop-controlled --------------------------------
    b.li(S2, block_a)
    b.li(S3, out)
    b.li(T9, 8)
    b.label("row_loop")
    for col in range(0, 8, 2):
        b.lw(T0, 4 * col, S2)
        b.lw(T1, 4 * col + 4, S2)
        b.addu(T2, T0, T1)  # butterfly
        b.subu(T3, T0, T1)
        b.sra(T2, T2, 1)
        b.sll(T4, T3, 2)
        b.addu(T5, T2, T4)
        b.sw(T2, 4 * col, S3)
        b.sw(T5, 4 * col + 4, S3)
        b.addu(S4, S4, T5)
    b.addiu(S2, S2, 32)
    b.addiu(S3, S3, 32)
    b.addiu(T9, T9, -1)
    b.bne(T9, 0, "row_loop")

    # -- SAD loop over the block against the reference ---------------------------
    b.li(S2, out)
    b.li(S3, block_b)
    b.li(T9, 64)
    b.li(T8, 0)
    b.label("sad_loop")
    b.lw(T0, 0, S2)
    b.lw(T1, 0, S3)
    b.subu(T2, T0, T1)
    b.sra(T3, T2, 31)
    b.xor(T2, T2, T3)
    b.subu(T2, T2, T3)  # |a - b|
    b.addu(T8, T8, T2)
    b.addiu(S2, S2, 4)
    b.addiu(S3, S3, 4)
    b.addiu(T9, T9, -1)
    b.bne(T9, 0, "sad_loop")
    b.addu(S4, S4, T8)

    b.addiu(S0, S0, 1)
    b.bne(S0, S1, "outer")
    b.move(A0, S4)
    b.addiu(V0, 0, 1)
    b.syscall()
    b.halt()
    _emit_dead_library(
        b, rng, CallHeavyParams(body_min=14, body_max=34, rare_imm_pct=12,
                                seed=seed), dead_funcs)
    return b.build()


def build_crypto_kernel(name="pegwit", iterations=6000, seed=11,
                        cold_funcs=64, excursion_mask=511, dead_funcs=140):
    """An ARX/sbox cipher loop (the pegwit stand-in).

    The hot loop mixes state with add/rotate/xor rounds and an S-box
    lookup.  Every ``excursion_mask + 1`` iterations it calls one of
    ``cold_funcs`` generated functions, producing the faint 0.1% I-miss
    rate the paper reports for pegwit.
    """
    rng = random.Random(seed)
    b = AsmBuilder(name=name)
    sbox = ARRAY_BASE + 0x1000
    for i in range(256):
        b.data_word(sbox + 4 * i, rng.randrange(0, 1 << 32))

    params = CallHeavyParams(n_funcs=cold_funcs, hot_funcs=cold_funcs,
                             cold_threshold=0, iterations=0,
                             body_min=14, body_max=30, rare_imm_pct=11,
                             global_pct=8, global_span=2048,
                             reg_profile="tight", seed=seed)

    b.li(S0, (0x12345678 ^ seed) & 0xFFFFFFFF)  # cipher state a
    b.li(S5, 0x9E3779B9)  # round constant (golden ratio)
    b.li(S1, 0)  # iteration counter
    b.li(S2, iterations)
    b.li(S3, sbox)
    b.li(S4, 0)  # checksum
    b.li(S6, TABLE_BASE)
    b.label("main_loop")
    # Four unrolled ARX rounds: state = rotl(state + K, r) ^ counter.
    for shift in (7, 13, 5, 11):
        b.addu(S0, S0, S5)
        b.sll(T0, S0, shift)
        b.srl(T1, S0, 32 - shift)
        b.or_(S0, T0, T1)
        b.xor(S0, S0, S1)
    # S-box substitution of the low byte.
    b.andi(T2, S0, 0xFF)
    b.sll(T2, T2, 2)
    b.addu(T2, T2, S3)
    b.lw(T3, 0, T2)
    b.xor(S0, S0, T3)
    b.addu(S4, S4, S0)
    # Rare excursion into cold code, once every excursion_mask+1 trips.
    b.andi(T4, S1, excursion_mask)
    b.bne(T4, 0, "no_excursion")
    b.srl(T5, S0, 3)
    b.andi(T5, T5, cold_funcs - 1)
    b.sll(T5, T5, 2)
    b.addu(T5, T5, S6)
    b.lw(T6, 0, T5)
    b.jalr(RA, T6)
    b.addu(S4, S4, V0)
    b.label("no_excursion")
    b.addiu(S1, S1, 1)
    b.bne(S1, S2, "main_loop")
    b.move(A0, S4)
    b.addiu(V0, 0, 1)
    b.syscall()
    b.halt()

    # Cold function population reached only by the excursions.
    _emit_routines(b, rng, params, 4, "fn", cold_funcs, table=True)
    _emit_dead_library(b, rng, params, dead_funcs)
    return b.build()
