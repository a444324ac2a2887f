"""Two-pass text assembler for SS32.

Supports the full instruction table from :mod:`repro.isa.opcodes`, a
small set of directives (``.text``, ``.data``, ``.word``, ``.space``,
``.align``), labels, decimal/hex immediates, and the common pseudo-
instructions (``nop``, ``move``, ``li``, ``la``, ``b``, ``beqz``,
``bnez``, ``neg``, ``not``).

The first pass lays out sections and records label addresses; the second
pass encodes instructions and resolves branch/jump targets.
"""

import re
import struct

from repro.isa.encoding import (
    INSTRUCTION_BYTES,
    branch_offset,
    encode_i,
    encode_j,
    encode_r,
    jump_field,
)
from repro.isa.opcodes import INSTRUCTIONS, OP_REGIMM
from repro.isa.program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, Program
from repro.isa.registers import reg_num


class AssemblerError(ValueError):
    """Raised for any malformed assembly input, with a line number."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?[0-9A-Fa-fx]*)\(([^)]+)\)$")


def _parse_int(token, lineno):
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(lineno, "bad integer literal: %r" % token)


def _strip_comment(line):
    for marker in ("#", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(rest):
    return [part.strip() for part in rest.split(",")] if rest else []


class _Statement:
    """One instruction occurrence awaiting encoding in pass 2."""

    __slots__ = ("lineno", "mnemonic", "operands", "addr")

    def __init__(self, lineno, mnemonic, operands, addr):
        self.lineno = lineno
        self.mnemonic = mnemonic
        self.operands = operands
        self.addr = addr


def _expand_pseudo(mnemonic, operands, lineno):
    """Rewrite a pseudo-instruction into real instructions.

    Returns a list of ``(mnemonic, operands)`` pairs, or ``None`` when
    *mnemonic* is not a pseudo-instruction.
    """
    if mnemonic == "nop":
        return [("sll", ["$zero", "$zero", "0"])]
    if mnemonic == "move":
        if len(operands) != 2:
            raise AssemblerError(lineno, "move takes 2 operands")
        return [("addu", [operands[0], operands[1], "$zero"])]
    if mnemonic == "neg":
        if len(operands) != 2:
            raise AssemblerError(lineno, "neg takes 2 operands")
        return [("subu", [operands[0], "$zero", operands[1]])]
    if mnemonic == "not":
        if len(operands) != 2:
            raise AssemblerError(lineno, "not takes 2 operands")
        return [("nor", [operands[0], operands[1], "$zero"])]
    if mnemonic == "b":
        if len(operands) != 1:
            raise AssemblerError(lineno, "b takes 1 operand")
        return [("beq", ["$zero", "$zero", operands[0]])]
    if mnemonic == "beqz":
        if len(operands) != 2:
            raise AssemblerError(lineno, "beqz takes 2 operands")
        return [("beq", [operands[0], "$zero", operands[1]])]
    if mnemonic == "bnez":
        if len(operands) != 2:
            raise AssemblerError(lineno, "bnez takes 2 operands")
        return [("bne", [operands[0], "$zero", operands[1]])]
    if mnemonic in ("li", "la"):
        if len(operands) != 2:
            raise AssemblerError(lineno, "%s takes 2 operands" % mnemonic)
        # li/la always expand to two instructions so that pass-1 layout
        # does not depend on the operand value.
        return [
            ("lui", [operands[0], "%%hi(%s)" % operands[1]]),
            ("ori", [operands[0], operands[0], "%%lo(%s)" % operands[1]]),
        ]
    return None


class _Assembler:
    def __init__(self, source, name):
        self.source = source
        self.name = name
        self.symbols = {}
        self.statements = []
        self.text_base = DEFAULT_TEXT_BASE
        self.data_base = DEFAULT_DATA_BASE
        self.data = {}
        self.entry_label = None

    # -- pass 1 ------------------------------------------------------------

    def layout(self):
        section = "text"
        text_addr = None
        data_addr = None
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw)
            while line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label = match.group(1)
                if label in self.symbols:
                    raise AssemblerError(lineno, "duplicate label %r" % label)
                if section == "text":
                    if text_addr is None:
                        text_addr = self.text_base
                    self.symbols[label] = text_addr
                else:
                    if data_addr is None:
                        data_addr = self.data_base
                    self.symbols[label] = data_addr
                line = line[match.end():].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if head.startswith("."):
                section, text_addr, data_addr = self._directive_pass1(
                    head, rest, lineno, section, text_addr, data_addr)
                continue
            if section != "text":
                raise AssemblerError(lineno, "instruction outside .text")
            if text_addr is None:
                text_addr = self.text_base
            operands = _split_operands(rest)
            expansion = _expand_pseudo(head, operands, lineno)
            if expansion is None:
                if head not in INSTRUCTIONS:
                    raise AssemblerError(lineno, "unknown mnemonic %r" % head)
                expansion = [(head, operands)]
            for mnemonic, ops in expansion:
                self.statements.append(
                    _Statement(lineno, mnemonic, ops, text_addr))
                text_addr += INSTRUCTION_BYTES

    def _directive_pass1(self, head, rest, lineno, section, text_addr,
                         data_addr):
        if head == ".text":
            if rest:
                self.text_base = _parse_int(rest, lineno)
                if text_addr is not None:
                    raise AssemblerError(lineno, ".text base set after code")
            return "text", text_addr, data_addr
        if head == ".data":
            if rest:
                self.data_base = _parse_int(rest, lineno)
            return "data", text_addr, data_addr
        if head == ".globl":
            self.entry_label = rest.strip()
            return section, text_addr, data_addr
        if head == ".word":
            if section != "data":
                raise AssemblerError(lineno, ".word only allowed in .data")
            if data_addr is None:
                data_addr = self.data_base
            for token in _split_operands(rest):
                value = _parse_int(token, lineno) & 0xFFFFFFFF
                for offset, byte in enumerate(struct.pack(">I", value)):
                    self.data[data_addr + offset] = byte
                data_addr += 4
            return section, text_addr, data_addr
        if head == ".space":
            if section != "data":
                raise AssemblerError(lineno, ".space only allowed in .data")
            if data_addr is None:
                data_addr = self.data_base
            count = _parse_int(rest, lineno)
            for offset in range(count):
                self.data.setdefault(data_addr + offset, 0)
            data_addr += count
            return section, text_addr, data_addr
        if head == ".align":
            power = _parse_int(rest, lineno)
            unit = 1 << power
            if section == "data":
                if data_addr is None:
                    data_addr = self.data_base
                data_addr = (data_addr + unit - 1) & ~(unit - 1)
            else:
                raise AssemblerError(lineno, ".align only allowed in .data")
            return section, text_addr, data_addr
        raise AssemblerError(lineno, "unknown directive %r" % head)

    # -- pass 2 ------------------------------------------------------------

    def _resolve(self, token, lineno):
        """Resolve an immediate operand: literal, label, or %hi/%lo."""
        token = token.strip()
        if token.startswith("%hi(") and token.endswith(")"):
            return (self._resolve(token[4:-1], lineno) >> 16) & 0xFFFF
        if token.startswith("%lo(") and token.endswith(")"):
            return self._resolve(token[4:-1], lineno) & 0xFFFF
        if token in self.symbols:
            return self.symbols[token]
        return _parse_int(token, lineno)

    def _branch_offset(self, label, stmt):
        target = self._resolve(label, stmt.lineno)
        try:
            return branch_offset(target, stmt.addr)
        except ValueError as exc:
            raise AssemblerError(stmt.lineno, str(exc)) from None

    def encode(self, stmt):
        spec = INSTRUCTIONS[stmt.mnemonic]
        ops = stmt.operands
        lineno = stmt.lineno

        def expect(count):
            if len(ops) != count:
                raise AssemblerError(
                    lineno, "%s takes %d operands, got %d"
                    % (stmt.mnemonic, count, len(ops)))

        syntax = spec.syntax
        if syntax == "rd,rs,rt":
            expect(3)
            return encode_r(spec.op, reg_num(ops[1]), reg_num(ops[2]),
                            reg_num(ops[0]), 0, spec.funct)
        if syntax == "rd,rt,shamt":
            expect(3)
            shamt = self._resolve(ops[2], lineno)
            if not 0 <= shamt < 32:
                raise AssemblerError(lineno, "shift amount out of range")
            return encode_r(spec.op, 0, reg_num(ops[1]), reg_num(ops[0]),
                            shamt, spec.funct)
        if syntax == "rd,rt,rs":
            expect(3)
            return encode_r(spec.op, reg_num(ops[2]), reg_num(ops[1]),
                            reg_num(ops[0]), 0, spec.funct)
        if syntax == "rs":
            expect(1)
            return encode_r(spec.op, reg_num(ops[0]), 0, 0, 0, spec.funct)
        if syntax == "rd,rs":
            expect(2)
            return encode_r(spec.op, reg_num(ops[1]), 0, reg_num(ops[0]),
                            0, spec.funct)
        if syntax == "rd":
            expect(1)
            return encode_r(spec.op, 0, 0, reg_num(ops[0]), 0, spec.funct)
        if syntax == "rs,rt":
            expect(2)
            return encode_r(spec.op, reg_num(ops[0]), reg_num(ops[1]),
                            0, 0, spec.funct)
        if syntax == "":
            expect(0)
            return encode_r(spec.op, 0, 0, 0, 0, spec.funct)
        if syntax == "rt,rs,imm":
            expect(3)
            imm = self._resolve(ops[2], lineno)
            return encode_i(spec.op, reg_num(ops[1]), reg_num(ops[0]), imm)
        if syntax == "rt,imm":
            expect(2)
            imm = self._resolve(ops[1], lineno)
            return encode_i(spec.op, 0, reg_num(ops[0]), imm)
        if syntax == "rt,offset(rs)":
            expect(2)
            match = _MEM_OPERAND_RE.match(ops[1].replace(" ", ""))
            if not match:
                raise AssemblerError(lineno, "bad memory operand %r" % ops[1])
            offset_text = match.group(1) or "0"
            offset = _parse_int(offset_text, lineno)
            return encode_i(spec.op, reg_num(match.group(2)),
                            reg_num(ops[0]), offset)
        if syntax == "rs,rt,label":
            expect(3)
            return encode_i(spec.op, reg_num(ops[0]), reg_num(ops[1]),
                            self._branch_offset(ops[2], stmt))
        if syntax == "rs,label":
            expect(2)
            rt = spec.regimm_rt if spec.op == OP_REGIMM else 0
            return encode_i(spec.op, reg_num(ops[0]), rt,
                            self._branch_offset(ops[1], stmt))
        if syntax == "label":
            expect(1)
            target = self._resolve(ops[0], lineno)
            try:
                return encode_j(spec.op, jump_field(target))
            except ValueError as exc:
                raise AssemblerError(lineno, str(exc)) from None
        raise AssemblerError(lineno, "unhandled syntax %r" % syntax)

    def assemble(self):
        self.layout()
        words = [self.encode(stmt) for stmt in self.statements]
        entry = self.text_base
        if self.entry_label:
            if self.entry_label not in self.symbols:
                raise AssemblerError(0, "undefined entry label %r"
                                     % self.entry_label)
            entry = self.symbols[self.entry_label]
        return Program(text=words, text_base=self.text_base, data=self.data,
                       symbols=self.symbols, entry=entry, name=self.name)


def assemble(source, name="program"):
    """Assemble SS32 source text into a :class:`Program`."""
    return _Assembler(source, name).assemble()
