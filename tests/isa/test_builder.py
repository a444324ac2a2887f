"""Tests for the programmatic assembly builder."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.builder import AsmBuilder
from repro.isa.encoding import decode, sign_extend_16
from repro.isa.registers import A0, RA, T0, T1, V0, ZERO


class TestEquivalenceWithAssembler:
    def test_same_encoding_as_text(self):
        b = AsmBuilder()
        b.label("main")
        b.addiu(T0, ZERO, 5)
        b.label("loop")
        b.addiu(T0, T0, -1)
        b.bne(T0, ZERO, "loop")
        b.jal("main")
        b.lw(A0, 8, T1)
        b.sll(V0, T0, 3)
        b.jr(RA)
        built = b.build()

        text = assemble("""
        .text 0x400000
        main:
            addiu $t0, $zero, 5
        loop:
            addiu $t0, $t0, -1
            bne $t0, $zero, loop
            jal main
            lw $a0, 8($t1)
            sll $v0, $t0, 3
            jr $ra
        """)
        assert built.text == text.text


class TestFixups:
    def test_forward_branch(self):
        b = AsmBuilder()
        b.beq(T0, T1, "later")
        b.nop()
        b.nop()
        b.label("later")
        prog = b.build()
        assert sign_extend_16(decode(prog.text[0]).imm) == 2

    def test_backward_jump(self):
        b = AsmBuilder()
        b.label("top")
        b.nop()
        b.j("top")
        prog = b.build()
        assert decode(prog.text[1]).target * 4 == prog.text_base

    def test_absolute_targets_accepted(self):
        b = AsmBuilder()
        b.j(0x400000)
        b.beq(ZERO, ZERO, b.here + 8)
        b.nop()
        b.nop()
        prog = b.build()
        assert decode(prog.text[0]).target * 4 == 0x400000
        assert sign_extend_16(decode(prog.text[1]).imm) == 1

    @pytest.mark.parametrize("target", [0x10000000, 0x400002, -4])
    def test_unreachable_numeric_jump_rejected(self, target):
        with pytest.raises(ValueError, match="jump target"):
            AsmBuilder().j(target)

    def test_unreachable_label_jump_rejected_at_build(self):
        # 0x10000000 is past the J-type field's 2**28 reach; masking it
        # would jump to 0.
        b = AsmBuilder(text_base=0x10000000)
        b.label("main")
        b.j("main")
        with pytest.raises(ValueError, match="'main'"):
            b.build()

    @pytest.mark.parametrize("gap, ok", [(0x7FFF, True), (0x8000, False)])
    def test_label_branch_reach_checked_at_build(self, gap, ok):
        b = AsmBuilder()
        b.beq(ZERO, ZERO, "far")
        b.words.extend([0] * gap)
        b.label("far")
        if ok:
            assert decode(b.build().text[0]).imm == gap
        else:
            with pytest.raises(ValueError, match="branch to 'far'"):
                b.build()

    @pytest.mark.parametrize("offset", [0x500000 - 0x400000, 2, -0x20008])
    def test_unreachable_numeric_branch_rejected(self, offset):
        b = AsmBuilder()
        with pytest.raises(ValueError, match="branch target"):
            b.beq(8, 9, b.here + offset)
        assert b.words == []

    def test_branch_reach_edges_accepted(self):
        b = AsmBuilder()
        b.beq(ZERO, ZERO, b.here + 4 + 4 * 0x7FFF)
        b.bne(ZERO, ZERO, b.here + 4 - 4 * 0x8000)
        b.j(0x0FFFFFFC)
        prog = b.build()
        assert decode(prog.text[0]).imm == 0x7FFF
        assert decode(prog.text[1]).imm == 0x8000
        assert decode(prog.text[2]).target * 4 == 0x0FFFFFFC

    def test_undefined_label_rejected_at_build(self):
        b = AsmBuilder()
        b.j("nowhere")
        with pytest.raises(ValueError):
            b.build()

    def test_la_fixup(self):
        b = AsmBuilder()
        b.la(T0, "spot")
        b.label("spot")
        prog = b.build()
        addr = prog.symbols["spot"]
        assert decode(prog.text[0]).imm == (addr >> 16) & 0xFFFF
        assert decode(prog.text[1]).imm == addr & 0xFFFF

    def test_data_label_word(self):
        b = AsmBuilder()
        b.data_label_word(0x10000000, "fn")
        b.label("fn")
        b.nop()
        prog = b.build()
        addr = prog.symbols["fn"]
        stored = 0
        for i in range(4):
            stored = (stored << 8) | prog.data[0x10000000 + i]
        assert stored == addr


class TestPseudos:
    def test_nop_encodes_zero(self):
        b = AsmBuilder()
        b.nop()
        assert b.build().text == [0]

    def test_li_masks_to_32_bits(self):
        b = AsmBuilder()
        b.li(T0, -1)
        prog = b.build()
        assert decode(prog.text[0]).imm == 0xFFFF
        assert decode(prog.text[1]).imm == 0xFFFF

    def test_halt_sequence(self):
        b = AsmBuilder()
        b.halt()
        prog = b.build()
        assert len(prog.text) == 2  # li $v0,10 (addiu form) + syscall

    def test_ret(self):
        b = AsmBuilder()
        b.ret()
        fields = decode(b.build().text[0])
        assert fields.funct == 0x08 and fields.rs == 31

    def test_branch_always(self):
        b = AsmBuilder()
        b.label("top")
        b.branch_always("top")
        fields = decode(b.build().text[0])
        assert fields.op == 4 and fields.rs == 0 and fields.rt == 0


class TestLabels:
    def test_duplicate_label_rejected(self):
        b = AsmBuilder()
        b.label("x")
        with pytest.raises(ValueError):
            b.label("x")

    def test_here_advances(self):
        b = AsmBuilder()
        first = b.here
        b.nop()
        assert b.here == first + 4

    def test_entry_selection(self):
        b = AsmBuilder()
        b.nop()
        b.label("main")
        b.nop()
        b.entry("main")
        prog = b.build()
        assert prog.entry == prog.symbols["main"]

    def test_unknown_mnemonic_raises_attribute_error(self):
        b = AsmBuilder()
        with pytest.raises(AttributeError):
            b.frobnicate()


class TestDataSegment:
    def test_data_words_big_endian(self):
        b = AsmBuilder()
        b.data_words(0x10000000, [0x11223344])
        b.nop()
        prog = b.build()
        assert [prog.data[0x10000000 + i] for i in range(4)] \
            == [0x11, 0x22, 0x33, 0x44]
