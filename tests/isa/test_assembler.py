"""Tests for the two-pass text assembler."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.disassembler import disassemble_word
from repro.isa.encoding import decode, sign_extend_16


def words_of(source):
    return assemble(source).text


class TestBasicEncoding:
    def test_r_type(self):
        (word,) = words_of("addu $v0, $a0, $a1")
        fields = decode(word)
        assert (fields.op, fields.funct) == (0, 0x21)
        assert (fields.rd, fields.rs, fields.rt) == (2, 4, 5)

    def test_shift(self):
        (word,) = words_of("sll $t0, $t1, 5")
        fields = decode(word)
        assert fields.shamt == 5
        assert fields.rt == 9
        assert fields.rd == 8

    def test_i_type_negative_imm(self):
        (word,) = words_of("addiu $sp, $sp, -48")
        assert sign_extend_16(decode(word).imm) == -48

    def test_memory_operand(self):
        (word,) = words_of("lw $t0, 12($sp)")
        fields = decode(word)
        assert fields.rs == 29
        assert fields.rt == 8
        assert fields.imm == 12

    def test_memory_operand_negative_offset(self):
        (word,) = words_of("sw $ra, -4($sp)")
        assert sign_extend_16(decode(word).imm) == -4

    def test_memory_operand_no_offset(self):
        (word,) = words_of("lw $t0, ($sp)")
        assert decode(word).imm == 0

    def test_lui(self):
        (word,) = words_of("lui $t0, 0x1234")
        assert decode(word).imm == 0x1234

    def test_syscall(self):
        (word,) = words_of("syscall")
        assert decode(word).funct == 0x0C


class TestLabelsAndBranches:
    def test_backward_branch_offset(self):
        prog = assemble("""
        loop: addiu $t0, $t0, 1
              bne $t0, $t1, loop
        """)
        offset = sign_extend_16(decode(prog.text[1]).imm)
        assert offset == -2  # relative to the instruction after the branch

    def test_forward_branch_offset(self):
        prog = assemble("""
              beq $t0, $t1, done
              addiu $t0, $t0, 1
        done: syscall
        """)
        assert sign_extend_16(decode(prog.text[0]).imm) == 1

    def test_jump_target_absolute(self):
        prog = assemble("""
        .text 0x400000
        start: j start
        """)
        assert decode(prog.text[0]).target * 4 == 0x400000

    def test_multiple_labels_one_address(self):
        prog = assemble("a: b: syscall")
        assert prog.symbols["a"] == prog.symbols["b"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x: syscall\nx: syscall")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere")

    def test_branch_too_far_rejected(self):
        body = "target: syscall\n" + "addiu $t0, $t0, 1\n" * 0x8002
        with pytest.raises(AssemblerError):
            assemble(body + "beq $t0, $t1, target")

    @pytest.mark.parametrize("source", [
        # The J-type field reaches byte addresses below 2**28 only: the
        # simulator jumps to field * 4, so 0x10000000 would become 0.
        ".text 0x10000000\nmain: j main",
        "jal 0x10000000",
        "j 0x400002",  # unaligned
        "j -4",
    ])
    def test_unreachable_jump_target_rejected(self, source):
        with pytest.raises(AssemblerError, match="line"):
            assemble(source)

    @pytest.mark.parametrize("source", [
        "beq $t0, $t1, 0x400006",  # unaligned numeric target
        "bne $t0, $t1, 0x500000",  # 0x3ffff words away
        "bgez $t0, 0x300000",
    ])
    def test_unreachable_numeric_branch_target_rejected(self, source):
        with pytest.raises(AssemblerError, match="line 1"):
            assemble(source)

    def test_numeric_targets_in_reach_accepted(self):
        prog = assemble("j 0x0FFFFFFC\nbeq $t0, $t1, 0x400000")
        assert decode(prog.text[0]).target * 4 == 0x0FFFFFFC
        assert sign_extend_16(decode(prog.text[1]).imm) == -2


class TestPseudoInstructions:
    def test_nop_is_sll_zero(self):
        (word,) = words_of("nop")
        assert word == 0

    def test_move(self):
        (word,) = words_of("move $t0, $t1")
        fields = decode(word)
        assert fields.funct == 0x21 and fields.rt == 0

    def test_li_always_two_instructions(self):
        assert len(words_of("li $t0, 5")) == 2
        assert len(words_of("li $t0, 0x12345678")) == 2

    def test_li_value(self):
        low_w, high_w = None, None
        words = words_of("li $t0, 0x12345678")
        assert decode(words[0]).imm == 0x1234
        assert decode(words[1]).imm == 0x5678

    def test_la_resolves_label(self):
        prog = assemble("""
        .data 0x10000000
        var: .word 42
        .text
        main: la $t0, var
        """)
        assert decode(prog.text[0]).imm == 0x1000
        assert decode(prog.text[1]).imm == 0x0000

    def test_beqz_bnez_b(self):
        prog = assemble("""
        top: beqz $t0, top
             bnez $t0, top
             b top
        """)
        for word in prog.text:
            assert decode(word).op in (4, 5)

    def test_neg_not(self):
        neg, = words_of("neg $t0, $t1")
        assert decode(neg).funct == 0x23
        not_w, = words_of("not $t0, $t1")
        assert decode(not_w).funct == 0x27


class TestDirectives:
    def test_data_words(self):
        prog = assemble("""
        .data 0x10000000
        tab: .word 1, 2, 0xdeadbeef
        .text
        syscall
        """)
        assert prog.data[0x10000000] == 0
        assert prog.data[0x10000003] == 1
        assert prog.data[0x10000008] == 0xDE

    def test_space_reserves_zeroed(self):
        prog = assemble("""
        .data 0x10000000
        buf: .space 8
        after: .word 7
        .text
        syscall
        """)
        assert prog.symbols["after"] == 0x10000008
        assert prog.data[0x10000000] == 0

    def test_align(self):
        prog = assemble("""
        .data 0x10000000
        a: .word 1
        .align 4
        b: .word 2
        .text
        syscall
        """)
        assert prog.symbols["b"] == 0x10000010

    def test_globl_sets_entry(self):
        prog = assemble("""
        .globl main
        helper: syscall
        main: syscall
        """)
        assert prog.entry == prog.symbols["main"]

    def test_text_base(self):
        prog = assemble(".text 0x800000\nsyscall")
        assert prog.text_base == 0x800000

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".bogus 1")

    def test_word_outside_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 1")


class TestConstantRanges:
    """``li`` and ``.word`` take -0x80000000..0xFFFFFFFF; anything else
    is an error naming the line, not a wrapped value."""

    @pytest.mark.parametrize("value", ["0x100000000", "-0x80000001",
                                       "4294967296", "0x1FFFFFFFF"])
    def test_li_out_of_range_rejected(self, value):
        with pytest.raises(AssemblerError, match="line 2: constant %s "
                           "does not fit in 32 bits" % value):
            assemble("main: nop\n    li $t0, %s\n" % value)

    @pytest.mark.parametrize("value, high, low", [
        ("0xFFFFFFFF", 0xFFFF, 0xFFFF), ("-0x80000000", 0x8000, 0),
        ("-1", 0xFFFF, 0xFFFF)])
    def test_li_range_ends_accepted(self, value, high, low):
        words = words_of("li $t0, %s" % value)
        assert decode(words[0]).imm == high
        assert decode(words[1]).imm == low

    @pytest.mark.parametrize("value", ["0x100000005", "-0x80000001"])
    def test_word_out_of_range_rejected(self, value):
        source = ".data 0x10000000\ntab: .word 1, %s\n.text\nsyscall\n" \
            % value
        with pytest.raises(AssemblerError, match="line 2: constant %s "
                           "does not fit in 32 bits" % value):
            assemble(source)

    @pytest.mark.parametrize("value, stored", [
        ("-0x80000000", [0x80, 0, 0, 0]), ("-1", [0xFF] * 4),
        ("0xFFFFFFFF", [0xFF] * 4)])
    def test_word_range_ends_accepted(self, value, stored):
        prog = assemble(".data 0x10000000\ntab: .word %s\n.text\nsyscall\n"
                        % value)
        assert [prog.data[0x10000000 + i] for i in range(4)] == stored


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError) as err:
            assemble("frob $t0")
        assert "line 1" in str(err.value)

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("addu $t0, $t1")

    def test_bad_register(self):
        with pytest.raises(ValueError):
            assemble("addu $t0, $t1, $nope")

    def test_comments_ignored(self):
        prog = assemble("""
        # full-line comment
        syscall  # trailing comment
        ; alt comment style
        """)
        assert len(prog.text) == 1


class TestDisassemblyRoundtrip:
    SOURCE = """
    .text 0x400000
    main:
        addiu $sp, $sp, -32
        sw $ra, 28($sp)
        li $t0, 0x12345678
        lw $a0, 0($t0)
        jal helper
        beq $v0, $zero, skip
        addu $s0, $s0, $v0
    skip:
        lw $ra, 28($sp)
        addiu $sp, $sp, 32
        jr $ra
    helper:
        slt $v0, $a0, $a1
        jalr $ra, $t9
        mult $a0, $a1
        mflo $v0
        bltz $v0, main
        jr $ra
    """

    def test_reassembles_identically(self):
        prog = assemble(self.SOURCE)
        lines = []
        for addr, word in prog.iter_addresses():
            lines.append(disassemble_word(word, addr))
        reassembled = assemble(".text 0x400000\n" + "\n".join(lines))
        assert reassembled.text == prog.text
