"""Binary instruction formats for SS32.

SS32 is a fixed-width 32-bit encoding with the three classic MIPS
formats:

* R-type: ``op(6) rs(5) rt(5) rd(5) shamt(5) funct(6)``
* I-type: ``op(6) rs(5) rt(5) imm(16)``
* J-type: ``op(6) target(26)``

CodePack never interprets these fields -- it compresses the raw 16-bit
halves of each word -- but the simulator's functional core and the
assembler/disassembler do, so the codecs live here in one place.
"""

from dataclasses import dataclass

WORD_MASK = 0xFFFFFFFF
INSTRUCTION_BYTES = 4

#: Bit positions of the fields in the formats above (``funct``, ``imm``
#: and ``target`` start at bit 0).
OP_SHIFT = 26
RS_SHIFT = 21
RT_SHIFT = 16
RD_SHIFT = 11
SHAMT_SHIFT = 6


def _check_range(value, bits, what):
    if not 0 <= value < (1 << bits):
        raise ValueError("%s out of range for %d bits: %d" % (what, bits, value))


def encode_r(op, rs, rt, rd, shamt, funct):
    """Pack an R-type instruction word."""
    _check_range(op, 6, "opcode")
    _check_range(rs, 5, "rs")
    _check_range(rt, 5, "rt")
    _check_range(rd, 5, "rd")
    _check_range(shamt, 5, "shamt")
    _check_range(funct, 6, "funct")
    return (op << OP_SHIFT | rs << RS_SHIFT | rt << RT_SHIFT | rd << RD_SHIFT
            | shamt << SHAMT_SHIFT | funct)


def encode_i(op, rs, rt, imm):
    """Pack an I-type instruction word.  *imm* may be signed or unsigned."""
    _check_range(op, 6, "opcode")
    _check_range(rs, 5, "rs")
    _check_range(rt, 5, "rt")
    if not -0x8000 <= imm <= 0xFFFF:
        raise ValueError("immediate out of range for 16 bits: %d" % imm)
    return op << OP_SHIFT | rs << RS_SHIFT | rt << RT_SHIFT | (imm & 0xFFFF)


def encode_j(op, target):
    """Pack a J-type instruction word.  *target* is a 26-bit word index."""
    _check_range(op, 6, "opcode")
    _check_range(target, 26, "jump target")
    return op << OP_SHIFT | target


#: Jump targets the J-type field reaches: the simulator jumps to
#: ``field * 4``, so a target must be word aligned and below 2**28.
JUMP_LIMIT = 1 << 28


def jump_field(target):
    """The 26-bit J-type field that jumps to byte address *target*.

    Raises ``ValueError`` for a target the field cannot reach (unaligned,
    negative, or at/above :data:`JUMP_LIMIT`) rather than masking it.
    """
    if target % INSTRUCTION_BYTES or not 0 <= target < JUMP_LIMIT:
        raise ValueError("jump target %#x not reachable: must be word "
                         "aligned and below %#x" % (target, JUMP_LIMIT))
    return target // INSTRUCTION_BYTES


def branch_offset(target, source):
    """The signed 16-bit word offset of a branch at *source* to *target*.

    Offsets count from the instruction after the branch.  Raises
    ``ValueError`` for an unaligned target or one more than 0x8000 words
    away rather than flooring or wrapping it.
    """
    delta = target - (source + INSTRUCTION_BYTES)
    if delta % INSTRUCTION_BYTES:
        raise ValueError("branch target %#x not word aligned" % target)
    offset = delta // INSTRUCTION_BYTES
    if not -0x8000 <= offset <= 0x7FFF:
        raise ValueError("branch target %#x too far from %#x"
                         % (target, source))
    return offset


def sign_extend_16(value):
    """Sign-extend a 16-bit field to a Python int."""
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def sign_extend_32(value):
    """Interpret a 32-bit word as a signed Python int."""
    value &= WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value


@dataclass(frozen=True)
class Instruction:
    """A decoded SS32 instruction word.

    All fields are always populated; which ones are meaningful depends on
    the format of the opcode (see :mod:`repro.isa.opcodes`).  ``imm`` is
    the raw unsigned 16-bit field; use :func:`sign_extend_16` when the
    instruction treats it as signed.
    """

    word: int
    op: int
    rs: int
    rt: int
    rd: int
    shamt: int
    funct: int
    imm: int
    target: int


def decode(word):
    """Split a 32-bit word into every possible field view."""
    if not 0 <= word <= WORD_MASK:
        raise ValueError("instruction word out of range: %#x" % word)
    return Instruction(
        word=word,
        op=(word >> OP_SHIFT) & 0x3F,
        rs=(word >> RS_SHIFT) & 0x1F,
        rt=(word >> RT_SHIFT) & 0x1F,
        rd=(word >> RD_SHIFT) & 0x1F,
        shamt=(word >> SHAMT_SHIFT) & 0x1F,
        funct=word & 0x3F,
        imm=word & 0xFFFF,
        target=word & 0x3FFFFFF,
    )


def high_halfword(word):
    """The 16-bit half CodePack calls the *high* symbol (opcode side)."""
    return (word >> 16) & 0xFFFF


def low_halfword(word):
    """The 16-bit half CodePack calls the *low* symbol (immediate side)."""
    return word & 0xFFFF


def join_halfwords(high, low):
    """Rebuild an instruction word from its CodePack symbols."""
    _check_range(high, 16, "high halfword")
    _check_range(low, 16, "low halfword")
    return (high << 16) | low
