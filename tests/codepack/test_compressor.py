"""Tests for the CodePack encoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack.compressor import (
    BLOCK_INSTRUCTIONS,
    GROUP_BLOCKS,
    GROUP_INSTRUCTIONS,
    compress_program,
    compress_words,
)
from repro.codepack.decompressor import decompress_program
from repro.codepack.reference import compress_words_reference
from tests.conftest import make_counting_program

WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestBlockGeometry:
    def test_block_count(self):
        image = compress_words([0] * 40)
        assert image.n_blocks == 3
        assert [b.n_instructions for b in image.blocks] == [16, 16, 8]

    def test_blocks_byte_aligned_and_contiguous(self):
        image = compress_words(list(range(100, 164)))
        offset = 0
        for block in image.blocks:
            assert block.byte_offset == offset
            offset += block.byte_length
        assert offset == len(image.code_bytes)

    def test_inst_end_bits_monotonic_and_within_block(self):
        image = compress_words(list(range(200, 264)))
        for block in image.blocks:
            ends = block.inst_end_bits
            assert len(ends) == block.n_instructions
            assert all(ends[i] < ends[i + 1] for i in range(len(ends) - 1))
            assert ends[-1] <= block.bit_length

    def test_group_count(self):
        image = compress_words([0] * (GROUP_INSTRUCTIONS * 3 + 1))
        assert image.n_groups == 4  # three full groups + one for the tail


class TestIndexEntries:
    def test_entries_locate_blocks(self):
        image = compress_words(list(range(0x1000, 0x1000 + 96)))
        for group, entry in enumerate(image.index_entries):
            first = image.blocks[group * GROUP_BLOCKS]
            assert entry.block1_base == first.byte_offset
            if group * GROUP_BLOCKS + 1 < image.n_blocks:
                second = image.blocks[group * GROUP_BLOCKS + 1]
                assert entry.block2_base == second.byte_offset

    def test_raw_flags_match_blocks(self):
        # Random-looking words compress badly and trigger raw escapes.
        words = [(i * 2654435761) & 0xFFFFFFFF for i in range(64)]
        image = compress_words(words)
        for block in image.blocks:
            entry = image.index_entries[block.index // GROUP_BLOCKS]
            flag = entry.block1_raw if block.index % GROUP_BLOCKS == 0 \
                else entry.block2_raw
            assert flag == block.is_raw


class TestRawEscape:
    def test_incompressible_block_stored_raw(self):
        words = [(i * 2654435761 + 12345) & 0xFFFFFFFF for i in range(16)]
        image = compress_words(words)
        block = image.blocks[0]
        assert block.is_raw
        assert block.byte_length == 16 * 4
        assert block.inst_end_bits == tuple(32 * (i + 1) for i in range(16))

    def test_compressible_block_not_raw(self):
        image = compress_words([0x12340000] * 16)
        assert not image.blocks[0].is_raw
        assert image.blocks[0].byte_length < 64


class TestSizeAccounting:
    def test_stats_sum_to_image_size(self):
        prog = make_counting_program()
        image = compress_program(prog)
        stats = image.stats
        code_bits = len(image.code_bytes) * 8
        accounted_code = (stats.compressed_tag_bits
                          + stats.dictionary_index_bits
                          + stats.raw_tag_bits + stats.raw_bits
                          + stats.pad_bits)
        assert accounted_code == code_bits
        assert stats.index_table_bits == image.n_groups * 32
        assert stats.total_bytes == image.compressed_bytes

    def test_fractions_sum_to_one(self):
        image = compress_program(make_counting_program())
        assert abs(sum(image.stats.fractions().values()) - 1.0) < 1e-9

    def test_compression_ratio_definition(self):
        image = compress_program(make_counting_program())
        assert image.compression_ratio \
            == image.compressed_bytes / image.original_bytes

    def test_repetitive_code_compresses_well(self):
        words = [0x24210001, 0x24420002, 0x00851021] * 200
        image = compress_words(words)
        assert image.compression_ratio < 0.55


class TestAddressMapping:
    def test_block_of_address(self):
        image = compress_words([0] * 48, text_base=0x400000)
        assert image.block_of_address(0x400000) == 0
        assert image.block_of_address(0x400000 + 16 * 4) == 1
        assert image.block_of_address(0x400000 + 47 * 4) == 2

    def test_block_of_address_out_of_range(self):
        image = compress_words([0] * 16, text_base=0x400000)
        with pytest.raises(IndexError):
            image.block_of_address(0x400000 + 16 * 4)

    def test_group_of_address(self):
        image = compress_words([0] * 64, text_base=0)
        assert image.group_of_address(0) == 0
        assert image.group_of_address(32 * 4) == 1

    def test_slot_in_block(self):
        image = compress_words([0] * 32, text_base=0x400000)
        assert image.slot_in_block(0x400000) == 0
        assert image.slot_in_block(0x400000 + 4 * 17) == 1

    def test_block_base_address(self):
        image = compress_words([0] * 32, text_base=0x400000)
        assert image.block_base_address(1) \
            == 0x400000 + BLOCK_INSTRUCTIONS * 4


@settings(max_examples=50, deadline=None)
@given(st.lists(WORD, min_size=1, max_size=200))
def test_roundtrip_arbitrary_words(words):
    """Compression followed by decompression is the identity."""
    image = compress_words(words)
    assert decompress_program(image) == words


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([0x24210001, 0x8FBF002C, 0x00851021,
                                 0x3C081010, 0xAFBF002C, 0x03E00008]),
                min_size=1, max_size=300))
def test_roundtrip_repetitive_words(words):
    """Highly repetitive (dictionary-heavy) streams also round-trip."""
    image = compress_words(words)
    assert decompress_program(image) == words
    assert image.n_instructions == len(words)


class TestPrebuiltDictionaries:
    def test_generic_dictionaries_roundtrip(self):
        """Compression with a foreign program's dictionaries is still
        lossless (missing symbols fall back to raw escapes)."""
        from repro.codepack.dictionary import build_dictionaries
        donor = [0x24210001, 0x8FBF002C, 0x00851021] * 50
        target = [0x3C081234, 0x35080042, 0x24210001] * 40
        high, low = build_dictionaries(donor)
        image = compress_words(target, high_dict=high, low_dict=low)
        assert decompress_program(image) == target

    def test_adaptation_never_loses(self):
        """Per-program dictionaries compress at least as well as any
        fixed donor dictionary (paper S3.1's load-time adaptation)."""
        from repro.codepack.dictionary import build_dictionaries
        donor = [0x24210001, 0x00851021] * 100
        target = [0x3C081234 + i % 7 for i in range(200)]
        high, low = build_dictionaries(donor)
        own = compress_words(target)
        generic = compress_words(target, high_dict=high, low_dict=low)
        assert own.compression_ratio <= generic.compression_ratio + 1e-9

    def test_partial_override(self):
        from repro.codepack.dictionary import build_dictionaries
        words = [0x24210001] * 40
        high, _ = build_dictionaries(words)
        image = compress_words(words, high_dict=high)  # low auto-built
        assert decompress_program(image) == words


class TestInputChecks:
    """Input no image can represent raises ``ValueError`` before any
    encoding, instead of being masked, truncated or encoded as an image
    with no blocks or no index entries."""

    @pytest.mark.parametrize("bad_word, position", [
        (1 << 32, 1), (-1, 0), (1 << 70, 2), (-(1 << 40), 1),
        (1.9, 0), (1.0, 2), ("1", 1), (None, 0)])
    def test_bad_word_rejected(self, bad_word, position):
        words = [0x24210001, 0x8FBF002C, 0x00851021]
        words[position] = bad_word
        message = "word %d is not an integer in 0..0xFFFFFFFF: %r" \
            % (position, bad_word)
        with pytest.raises(ValueError) as excinfo:
            compress_words(words)
        assert str(excinfo.value) == message

    def test_bad_word_rejected_with_supplied_dictionaries(self):
        # With both dictionaries given no dictionary build sees the
        # words first: the encoder's own check must catch 1.9.
        from repro.codepack.dictionary import build_dictionaries
        high, low = build_dictionaries([1, 2, 3])
        with pytest.raises(ValueError, match="word 1 is not an integer"):
            compress_words([1, 1.9, 3], high_dict=high, low_dict=low)

    @pytest.mark.parametrize("geometry, message", [
        ({"block_instructions": -4},
         "block_instructions must be at least 1, got -4"),
        ({"block_instructions": 0},
         "block_instructions must be at least 1, got 0"),
        ({"group_blocks": -1}, "group_blocks must be at least 1, got -1"),
        ({"group_blocks": 0}, "group_blocks must be at least 1, got 0"),
    ])
    def test_bad_geometry_rejected(self, geometry, message):
        with pytest.raises(ValueError) as excinfo:
            compress_words(list(range(40)), **geometry)
        assert str(excinfo.value) == message

    def test_extreme_words_accepted(self):
        words = [0, 0xFFFFFFFF, 1, 0xFFFFFFFE]
        assert decompress_program(compress_words(words)) == words

    def test_numpy_integer_words_accepted(self):
        import numpy as np

        words = [0x24210001, 0x8FBF002C, 0xFFFFFFFF] * 7
        expected = compress_words_reference(words)
        for dtype in (np.uint32, np.int64, np.uint64):
            array = np.asarray(words, dtype=dtype)
            for given_words in (array, list(array)):
                image = compress_words(given_words)
                assert image.code_bytes == expected.code_bytes
                assert image.blocks == expected.blocks
                assert decompress_program(image) == words

    def test_python_and_numpy_integers_mixed(self):
        import numpy as np

        # NumPy widens this mix to float64; the words convert one by one.
        words = [np.uint64(0xFFFFFFFF), 3, 0x24210001]
        image = compress_words(words)
        assert decompress_program(image) == [int(w) for w in words]
