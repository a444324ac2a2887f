"""The reference (per-bit) CodePack codec, retained as the oracle.

This module is the original, deliberately simple implementation of the
CodePack encoder and decoder: every codeword is emitted and consumed one
field at a time through :class:`~repro.codepack.bitstream.BitWriter` and
:class:`~repro.codepack.bitstream.BitReader`, mirroring the prose of
paper Section 3.1 line by line.

The production codec encodes with a vector kernel
(:mod:`repro.codepack.compressor`) and decodes through precomputed
codeword tables (:mod:`repro.codepack.decompressor`) -- an order of
magnitude faster, but much less obviously correct.  The differential
test harness (``tests/codepack/test_differential.py``) fuzzes both
paths against each other and asserts bit-exact images, so this module
must stay the straightforward transcription of the paper: clarity over
speed.

:func:`check_encode_input` is the input contract both encoders apply
before encoding.
"""

import operator

from repro.codepack.bitstream import BitReader, BitWriter
from repro.codepack.codewords import (
    HIGH_SCHEME,
    LOW_SCHEME,
    LOW_ZERO_TAG,
    LOW_ZERO_TAG_BITS,
    RAW_HALFWORD_BITS,
)
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.errors import DecompressionError
from repro.codepack.index_table import IndexEntry
from repro.codepack.stats import CompositionStats
from repro.isa.encoding import INSTRUCTION_BYTES

#: Instructions per compression block (fixed by the paper).
BLOCK_INSTRUCTIONS = 16
#: Blocks per compression group / index entry.
GROUP_BLOCKS = 2
#: Largest instruction word: words are unsigned 32-bit values.
WORD_MASK = 0xFFFFFFFF


# -- encoding ----------------------------------------------------------------

def check_encode_input(words, block_instructions, group_blocks):
    """Raise ``ValueError`` unless the encoders can represent the input.

    Both geometry parameters must be at least 1, and every word an
    integer (a Python or NumPy integer: anything ``operator.index``
    takes) in ``0..0xFFFFFFFF``.  Masking, truncating or building an
    image with no blocks instead would give one that decodes to other
    words.  The message names the first bad parameter or word.
    """
    for label, value in (("block_instructions", block_instructions),
                         ("group_blocks", group_blocks)):
        if value < 1:
            raise ValueError("%s must be at least 1, got %r"
                             % (label, value))
    for position, word in enumerate(words):
        try:
            valid = 0 <= operator.index(word) <= WORD_MASK
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("word %d is not an integer in 0..0xFFFFFFFF: %r"
                             % (position, word))


def encode_halfword(writer, scheme, dictionary, value, stats):
    """Emit one halfword symbol; update *stats*; return bit count."""
    start = writer.bit_length
    if scheme.zero_special and value == 0:
        writer.write(LOW_ZERO_TAG, LOW_ZERO_TAG_BITS)
        stats.compressed_tag_bits += LOW_ZERO_TAG_BITS
        return writer.bit_length - start
    slot = dictionary.slot(value)
    if slot is None:
        writer.write(scheme.raw_tag, scheme.raw_tag_bits)
        writer.write(value, RAW_HALFWORD_BITS)
        stats.raw_tag_bits += scheme.raw_tag_bits
        stats.raw_bits += RAW_HALFWORD_BITS
        return writer.bit_length - start
    cls, index_in_class = scheme.class_of_entry(slot)
    writer.write(cls.tag, cls.tag_bits)
    writer.write(index_in_class, cls.index_bits)
    stats.compressed_tag_bits += cls.tag_bits
    stats.dictionary_index_bits += cls.index_bits
    return writer.bit_length - start


def encode_block_reference(words, high_scheme, low_scheme,
                           high_dict, low_dict):
    """Compress one block per-bit; returns (bytes, is_raw, ends, stats)."""
    writer = BitWriter()
    stats = CompositionStats()
    end_bits = []
    for word in words:
        encode_halfword(writer, high_scheme, high_dict,
                        (word >> 16) & 0xFFFF, stats)
        encode_halfword(writer, low_scheme, low_dict, word & 0xFFFF, stats)
        end_bits.append(writer.bit_length)
    pad = writer.pad_to_byte()
    stats.pad_bits += pad
    native_bits = len(words) * 32
    if writer.bit_length > native_bits:
        # Whole-block raw escape: store the native words unchanged.
        raw_writer = BitWriter()
        for word in words:
            raw_writer.write(word, 32)
        raw_stats = CompositionStats(raw_bits=native_bits)
        raw_ends = tuple(32 * (i + 1) for i in range(len(words)))
        return raw_writer.to_bytes(), True, raw_ends, raw_stats
    return writer.to_bytes(), False, tuple(end_bits), stats


def compress_words_reference(words, text_base=0, name="program",
                             high_scheme=None, low_scheme=None,
                             block_instructions=BLOCK_INSTRUCTIONS,
                             group_blocks=GROUP_BLOCKS,
                             high_dict=None, low_dict=None):
    """Per-bit equivalent of :func:`repro.codepack.compressor.compress_words`."""
    # Imported here to avoid a circular import at module load.
    from repro.codepack.compressor import BlockInfo, CodePackImage

    check_encode_input(words, block_instructions, group_blocks)
    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    if high_dict is None or low_dict is None:
        built_high, built_low = build_dictionaries(
            words, high_scheme=high_scheme, low_scheme=low_scheme)
        high_dict = high_dict or built_high
        low_dict = low_dict or built_low

    blocks = []
    chunks = []
    stats = CompositionStats()
    offset = 0
    for start in range(0, len(words), block_instructions):
        chunk_words = words[start:start + block_instructions]
        data, is_raw, end_bits, block_stats = encode_block_reference(
            chunk_words, high_scheme, low_scheme, high_dict, low_dict)
        blocks.append(BlockInfo(
            index=len(blocks),
            byte_offset=offset,
            byte_length=len(data),
            is_raw=is_raw,
            n_instructions=len(chunk_words),
            inst_end_bits=end_bits,
        ))
        chunks.append(data)
        stats = stats.merged(block_stats)
        offset += len(data)

    index_entries = build_index_entries(blocks, group_blocks)
    stats.index_table_bits = len(index_entries) * 32
    stats.dictionary_bits = high_dict.storage_bits + low_dict.storage_bits

    return CodePackImage(
        name=name,
        text_base=text_base,
        n_instructions=len(words),
        high_dict=high_dict,
        low_dict=low_dict,
        index_entries=index_entries,
        code_bytes=b"".join(chunks),
        blocks=blocks,
        stats=stats,
        original_bytes=len(words) * INSTRUCTION_BYTES,
        high_scheme=high_scheme,
        low_scheme=low_scheme,
        block_instructions=block_instructions,
        group_blocks=group_blocks,
    )


def compress_program_reference(program, **kwargs):
    """Per-bit equivalent of :func:`repro.codepack.compressor.compress_program`."""
    return compress_words_reference(program.text, text_base=program.text_base,
                                    name=program.name, **kwargs)


def build_index_entries(blocks, group_blocks):
    """Derive the group index entries from block geometry.

    The vector encoder builds the same entries from arrays
    (``compressor._index_entries_vec``); dictword frames its blocks
    with this one.  Each entry covers ``group_blocks`` blocks; only the
    first two are addressable per the 32-bit format.  A group holding a
    single (tail) block records that block's length as the second
    offset, keeping ``block2_base`` pointing one past the end of the
    code region.
    """
    entries = []
    for group_start in range(0, len(blocks), group_blocks):
        first = blocks[group_start]
        if group_blocks > 1 and group_start + 1 < len(blocks):
            second = blocks[group_start + 1]
            entries.append(IndexEntry(
                block1_base=first.byte_offset,
                block2_offset=second.byte_offset - first.byte_offset,
                block1_raw=first.is_raw,
                block2_raw=second.is_raw,
            ))
        else:
            entries.append(IndexEntry(
                block1_base=first.byte_offset,
                block2_offset=first.byte_length,
                block1_raw=first.is_raw,
                block2_raw=False,
            ))
    return entries


# -- decoding ----------------------------------------------------------------

def decode_halfword_reference(reader, scheme, dictionary):
    """Decode one halfword symbol from *reader*, field by field."""
    tag = reader.read(2)
    tag_bits = 2
    if tag == 0b11:
        tag = (tag << 1) | reader.read(1)
        tag_bits = 3
    if tag == scheme.raw_tag and tag_bits == scheme.raw_tag_bits:
        return reader.read(RAW_HALFWORD_BITS)
    if scheme.zero_special and tag == 0b00 and tag_bits == 2:
        return 0
    try:
        cls = scheme.class_for_tag(tag, tag_bits)
    except KeyError as exc:
        raise DecompressionError(str(exc))
    index_in_class = reader.read(cls.index_bits)
    slot = scheme.entry_of_class(cls, index_in_class)
    if slot >= len(dictionary):
        raise DecompressionError(
            "dictionary slot %d beyond %s dictionary (%d entries)"
            % (slot, scheme.name, len(dictionary)))
    return dictionary.value(slot)


def iter_block_symbols_reference(image, block_index):
    """Yield ``(instruction_word, end_bit_offset)`` for one block."""
    block = image.blocks[block_index]
    reader = BitReader(image.code_bytes, bit_offset=block.byte_offset * 8)
    base_bit = block.byte_offset * 8
    if block.is_raw:
        for _ in range(block.n_instructions):
            yield reader.read(32), reader.position - base_bit
        return
    for _ in range(block.n_instructions):
        high = decode_halfword_reference(reader, image.high_scheme,
                                         image.high_dict)
        low = decode_halfword_reference(reader, image.low_scheme,
                                        image.low_dict)
        yield (high << 16) | low, reader.position - base_bit


def decompress_block_reference(image, block_index):
    """Decode one compression block back to instruction words."""
    return [word for word, _ in iter_block_symbols_reference(image,
                                                             block_index)]


def decompress_program_reference(image):
    """Decode the whole image back to the original ``.text`` words."""
    words = []
    for block_index in range(image.n_blocks):
        words.extend(decompress_block_reference(image, block_index))
    if len(words) != image.n_instructions:
        raise DecompressionError(
            "decoded %d instructions, expected %d"
            % (len(words), image.n_instructions))
    return words
