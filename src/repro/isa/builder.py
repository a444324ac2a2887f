"""Programmatic assembly builder.

The synthetic workload generators need to emit hundreds of thousands of
instructions; round-tripping through assembly text would be wasteful, so
:class:`AsmBuilder` encodes words directly and patches label references
at build time.  Mnemonics are exposed as methods::

    b = AsmBuilder()
    b.label("loop")
    b.addiu(T0, T0, 1)
    b.bne(T0, T1, "loop")
    prog = b.build()

Register operands are plain ints (see :mod:`repro.isa.registers` for the
symbolic constants); branch/jump targets may be label strings or
absolute addresses.  A target the encoding cannot reach (an unaligned
address, a jump at or above 2**28, a branch more than 0x8000 words
away) raises ``ValueError`` instead of being masked, and so does a
32-bit value out of range: a constant for :meth:`AsmBuilder.li` or
:meth:`AsmBuilder.data_word` outside -0x80000000..0xFFFFFFFF, or a word
for :meth:`AsmBuilder.raw` outside 0..0xFFFFFFFF.

Bulk emitters that encode words themselves (the workload generators)
append to :attr:`AsmBuilder.words` and record label references with
:meth:`AsmBuilder.fixup`; labels still bind through :meth:`label` and
every reference resolves in :meth:`build`.
"""

import operator

from repro.isa.encoding import (
    INSTRUCTION_BYTES,
    branch_offset,
    encode_i,
    encode_j,
    encode_r,
    jump_field,
)
from repro.isa.opcodes import INSTRUCTIONS, OP_REGIMM
from repro.isa.program import DEFAULT_TEXT_BASE, Program

#: Smallest value a 32-bit constant may take (signed); the largest is
#: 0xFFFFFFFF (unsigned).
_CONSTANT_MIN = -0x80000000


def _constant(value, what):
    """*value* as a 32-bit word; ``ValueError`` if it cannot be one."""
    value = operator.index(value)
    if not _CONSTANT_MIN <= value <= 0xFFFFFFFF:
        raise ValueError("%s %#x does not fit in 32 bits" % (what, value))
    return value & 0xFFFFFFFF


class _Fixup:
    """A label reference awaiting resolution: patch text[index]."""

    __slots__ = ("index", "kind", "label")

    def __init__(self, index, kind, label):
        self.index = index
        self.kind = kind  # "branch" or "jump"
        self.label = label


class AsmBuilder:
    """Direct-to-binary assembler with label fixups."""

    def __init__(self, text_base=DEFAULT_TEXT_BASE, name="program"):
        self.text_base = text_base
        self.name = name
        self._words = []
        self._symbols = {}
        self._fixups = []
        self._data = {}
        self._data_fixups = []  # (data_addr, label) resolved at build
        self._entry_label = None

    # -- layout ------------------------------------------------------------

    @property
    def words(self):
        """The live list of emitted words, for bulk emitters to append to."""
        return self._words

    @property
    def here(self):
        """Address of the next instruction to be emitted."""
        return self.text_base + len(self._words) * INSTRUCTION_BYTES

    def label(self, name):
        """Bind *name* to the current address."""
        if name in self._symbols:
            raise ValueError("duplicate label %r" % name)
        self._symbols[name] = self.here
        return self.here

    def unique_label(self, stem):
        """Create and bind a label guaranteed not to collide."""
        name = "%s__%d" % (stem, len(self._words))
        while name in self._symbols:
            name += "_"
        self.label(name)
        return name

    def entry(self, label):
        """Select the program entry point."""
        self._entry_label = label

    def data_word(self, addr, value):
        """Place one initialised 32-bit word in the data segment."""
        value = _constant(value, "data word")
        for offset in range(4):
            self._data[addr + offset] = (value >> (24 - 8 * offset)) & 0xFF

    def data_words(self, addr, values):
        """Place consecutive initialised words starting at *addr*."""
        for i, value in enumerate(values):
            self.data_word(addr + 4 * i, value)

    def data_label_word(self, addr, label):
        """Place a label's address in the data segment (e.g. jump tables).

        The address is recorded as a relocation so layout-changing
        transforms can rewrite it.
        """
        self._data_fixups.append((addr, label))
        self.data_word(addr, 0)

    # -- emission ----------------------------------------------------------

    def raw(self, word):
        """Emit a pre-encoded instruction word (0..0xFFFFFFFF)."""
        word = operator.index(word)
        if not 0 <= word <= 0xFFFFFFFF:
            raise ValueError("instruction word %#x does not fit in 32 bits"
                             % word)
        self._words.append(word)

    def fixup(self, kind, label):
        """Patch the next word's *kind* field with *label* at build time.

        *kind* is ``"branch"``, ``"jump"``, ``"hi16"`` or ``"lo16"``; the
        word itself is emitted next, with that field zero.
        """
        self._fixups.append(_Fixup(len(self._words), kind, label))

    def _target(self, label_or_addr):
        if isinstance(label_or_addr, str):
            return None, label_or_addr
        return int(label_or_addr), None

    def _emit_branch(self, spec, rs, rt, target):
        addr, label = self._target(target)
        if label is not None:
            self.fixup("branch", label)
            offset = 0
        else:
            offset = branch_offset(addr, self.here)
        self.raw(encode_i(spec.op, rs, rt, offset & 0xFFFF))

    def _emit_jump(self, spec, target):
        addr, label = self._target(target)
        if label is not None:
            self.fixup("jump", label)
            field = 0
        else:
            field = jump_field(addr)
        self.raw(encode_j(spec.op, field))

    def _emit(self, spec, args):
        syntax = spec.syntax
        if syntax == "rd,rs,rt":
            rd, rs, rt = args
            self.raw(encode_r(spec.op, rs, rt, rd, 0, spec.funct))
        elif syntax == "rd,rt,shamt":
            rd, rt, shamt = args
            self.raw(encode_r(spec.op, 0, rt, rd, shamt, spec.funct))
        elif syntax == "rd,rt,rs":
            rd, rt, rs = args
            self.raw(encode_r(spec.op, rs, rt, rd, 0, spec.funct))
        elif syntax == "rs":
            (rs,) = args
            self.raw(encode_r(spec.op, rs, 0, 0, 0, spec.funct))
        elif syntax == "rd,rs":
            rd, rs = args
            self.raw(encode_r(spec.op, rs, 0, rd, 0, spec.funct))
        elif syntax == "rd":
            (rd,) = args
            self.raw(encode_r(spec.op, 0, 0, rd, 0, spec.funct))
        elif syntax == "rs,rt":
            rs, rt = args
            self.raw(encode_r(spec.op, rs, rt, 0, 0, spec.funct))
        elif syntax == "":
            self.raw(encode_r(spec.op, 0, 0, 0, 0, spec.funct))
        elif syntax == "rt,rs,imm":
            rt, rs, imm = args
            self.raw(encode_i(spec.op, rs, rt, imm))
        elif syntax == "rt,imm":
            rt, imm = args
            self.raw(encode_i(spec.op, 0, rt, imm))
        elif syntax == "rt,offset(rs)":
            rt, offset, rs = args
            self.raw(encode_i(spec.op, rs, rt, offset))
        elif syntax == "rs,rt,label":
            rs, rt, target = args
            self._emit_branch(spec, rs, rt, target)
        elif syntax == "rs,label":
            rs, target = args
            rt = spec.regimm_rt if spec.op == OP_REGIMM else 0
            self._emit_branch(spec, rs, rt, target)
        elif syntax == "label":
            (target,) = args
            self._emit_jump(spec, target)
        else:  # pragma: no cover
            raise AssertionError("unhandled syntax %r" % syntax)

    def __getattr__(self, mnemonic):
        # "or_"/"and_" aliases exist because the bare mnemonics are
        # Python keywords.
        spec = INSTRUCTIONS.get(mnemonic) \
            or INSTRUCTIONS.get(mnemonic.rstrip("_"))
        if spec is None:
            raise AttributeError(mnemonic)

        def emit(*args):
            self._emit(spec, args)

        return emit

    # -- pseudo-instructions ------------------------------------------------

    def nop(self):
        """Emit ``sll $zero, $zero, 0``."""
        self._emit(INSTRUCTIONS["sll"], (0, 0, 0))

    def move(self, rd, rs):
        """Emit ``addu rd, rs, $zero``."""
        self._emit(INSTRUCTIONS["addu"], (rd, rs, 0))

    def li(self, rt, value):
        """Load a 32-bit constant (always two instructions: lui+ori)."""
        value = _constant(value, "li constant")
        self._emit(INSTRUCTIONS["lui"], (rt, (value >> 16) & 0xFFFF))
        self._emit(INSTRUCTIONS["ori"], (rt, rt, value & 0xFFFF))

    def la(self, rt, label):
        """Load a label's address; resolved at build time."""
        self.fixup("hi16", label)
        self._emit(INSTRUCTIONS["lui"], (rt, 0))
        self.fixup("lo16", label)
        self._emit(INSTRUCTIONS["ori"], (rt, rt, 0))

    def branch_always(self, target):
        """Emit an unconditional ``beq $zero, $zero`` branch."""
        self._emit_branch(INSTRUCTIONS["beq"], 0, 0, target)

    def ret(self):
        """Emit ``jr $ra``."""
        self._emit(INSTRUCTIONS["jr"], (31,))

    def halt(self, code=0):
        """Emit the exit convention: ``li $v0, 10; syscall``.

        *code* is placed in ``$a0`` first when nonzero.
        """
        if code:
            self._emit(INSTRUCTIONS["addiu"], (4, 0, code))
        self._emit(INSTRUCTIONS["addiu"], (2, 0, 10))
        self._emit(INSTRUCTIONS["syscall"], ())

    # -- finalisation --------------------------------------------------------

    def build(self):
        """Resolve fixups and return the finished :class:`Program`."""
        for fixup in self._fixups:
            if fixup.label not in self._symbols:
                raise ValueError("undefined label %r" % fixup.label)
            target = self._symbols[fixup.label]
            word = self._words[fixup.index]
            if fixup.kind == "branch":
                try:
                    offset = branch_offset(
                        target,
                        self.text_base + fixup.index * INSTRUCTION_BYTES)
                except ValueError as exc:
                    raise ValueError("branch to %r: %s"
                                     % (fixup.label, exc)) from None
                word = (word & 0xFFFF0000) | (offset & 0xFFFF)
            elif fixup.kind == "jump":
                try:
                    field = jump_field(target)
                except ValueError as exc:
                    raise ValueError("jump to %r: %s"
                                     % (fixup.label, exc)) from None
                word = (word & 0xFC000000) | field
            elif fixup.kind == "hi16":
                word = (word & 0xFFFF0000) | ((target >> 16) & 0xFFFF)
            elif fixup.kind == "lo16":
                word = (word & 0xFFFF0000) | (target & 0xFFFF)
            else:  # pragma: no cover
                raise AssertionError("unknown fixup kind %r" % fixup.kind)
            self._words[fixup.index] = word
        for data_addr, label in self._data_fixups:
            if label not in self._symbols:
                raise ValueError("undefined label %r" % label)
            self.data_word(data_addr, self._symbols[label])
        entry = self.text_base
        if self._entry_label is not None:
            entry = self._symbols[self._entry_label]
        return Program(text=list(self._words), text_base=self.text_base,
                       data=dict(self._data), symbols=dict(self._symbols),
                       entry=entry, name=self.name,
                       data_relocs=tuple(sorted(
                           addr for addr, _ in self._data_fixups)))
