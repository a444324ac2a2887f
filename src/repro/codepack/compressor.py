"""The CodePack encoder.

Compression walks the ``.text`` section in 16-instruction *compression
blocks* (paper: "This is the granularity at which decompression
occurs").  Each instruction contributes a high codeword followed by a
low codeword; blocks are zero-padded to a byte boundary so that the
index table can address them with byte offsets.  Two consecutive blocks
form a *compression group* described by a single 32-bit index entry.

A block whose compressed form would be no smaller than its native 64
bytes is stored raw and flagged in the index entry (paper: "CodePack may
choose to not compress entire blocks in the case that using the
compression algorithm would expand them").

The resulting :class:`CodePackImage` carries everything downstream
consumers need: the raw compressed bytes and index table for the
functional decompressor, per-block geometry (including per-instruction
bit boundaries) for the decompression-engine timing model, and the
bit-exact :class:`~repro.codepack.stats.CompositionStats` for Table 4.

The encoder is a vector kernel in the shape of SIMD integer codecs
(Lemire & Boytsov, "Decoding billions of integers per second through
vectorization"): dense 65536-entry tables gather (codeword, width,
stat-category) for every halfword at once, prefix sums over the widths
place each codeword's bit span and each block's byte extent (including
the padded-length whole-block raw-escape decision), and the codewords
scatter into the output through four ``bitwise_or.at`` byte lanes --
no per-codeword Python.  With shared dictionaries, a whole batch of
programs is encoded by one fused pass over the concatenated symbol
stream (:func:`compress_many`).

There are two encoders: this one and the per-bit oracle,
:func:`repro.codepack.reference.compress_words_reference`.  Both apply
the same input checks, and the differential and golden suites hold
their images byte-identical.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.codepack.codewords import (
    HIGH_SCHEME,
    LOW_SCHEME,
    LOW_ZERO_TAG,
    LOW_ZERO_TAG_BITS,
    RAW_HALFWORD_BITS,
)
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.index_table import IndexEntry
from repro.codepack.reference import WORD_MASK, check_encode_input
from repro.codepack.stats import CompositionStats
from repro.isa.encoding import INSTRUCTION_BYTES

__all__ = [
    "BLOCK_INSTRUCTIONS",
    "GROUP_BLOCKS",
    "GROUP_INSTRUCTIONS",
    "BLOCK_NATIVE_BITS",
    "BlockInfo",
    "CodePackImage",
    "compress_words",
    "compress_many",
    "compress_program",
]

#: Instructions per compression block (fixed by the paper).
BLOCK_INSTRUCTIONS = 16
#: Blocks per compression group / index entry.
GROUP_BLOCKS = 2
#: Instructions covered by one index entry.
GROUP_INSTRUCTIONS = BLOCK_INSTRUCTIONS * GROUP_BLOCKS
#: Native bits in a full block.
BLOCK_NATIVE_BITS = BLOCK_INSTRUCTIONS * 32

_HALF_MASK = 0xFFFF
#: Zero bytes past the end of the scatter buffer: a codeword's 32-bit
#: window may reach three bytes beyond the last code byte.
_PAD_BYTES = 8


@dataclass(frozen=True)
class BlockInfo:
    """Geometry of one compressed block inside the code region.

    ``inst_end_bits[i]`` is the bit offset, from the start of the block,
    at which instruction *i*'s codewords end -- the decompression-engine
    timing model uses it to decide when each instruction's bits have
    arrived over the memory bus.
    """

    index: int
    byte_offset: int
    byte_length: int
    is_raw: bool
    n_instructions: int
    inst_end_bits: tuple

    @property
    def bit_length(self):
        return self.byte_length * 8


@dataclass
class CodePackImage:
    """A fully compressed program image.

    The native program is *not* stored here; CodePack keeps compressed
    and native address spaces disjoint and the CPU never sees this
    image directly -- only the decompression engine does.

    ``block_instructions``/``group_blocks`` default to the paper's
    16-instruction blocks and 2-block groups; the ablation benchmarks
    vary them.
    """

    name: str
    text_base: int
    n_instructions: int
    high_dict: object
    low_dict: object
    index_entries: list
    code_bytes: bytes
    blocks: list
    stats: CompositionStats
    original_bytes: int
    high_scheme: object = field(default=HIGH_SCHEME)
    low_scheme: object = field(default=LOW_SCHEME)
    block_instructions: int = BLOCK_INSTRUCTIONS
    group_blocks: int = GROUP_BLOCKS

    # -- size metrics --------------------------------------------------------

    @property
    def compressed_bytes(self):
        """Total compressed size: index table + dictionaries + code."""
        return self.stats.total_bytes

    @property
    def compression_ratio(self):
        """Paper Eq. 1: compressed size / original size (smaller is better).

        An empty program has no meaningful ratio; report 1.0 rather than
        dividing by zero (the image still carries fixed container overhead).
        """
        if not self.original_bytes:
            return 1.0
        return self.compressed_bytes / float(self.original_bytes)

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def n_groups(self):
        return len(self.index_entries)

    # -- address mapping -------------------------------------------------------

    def block_of_address(self, addr):
        """Compression-block number containing native address *addr*."""
        index = (addr - self.text_base) \
            // (self.block_instructions * INSTRUCTION_BYTES)
        if not 0 <= index < len(self.blocks):
            raise IndexError("address %#x outside compressed text" % addr)
        return index

    def group_of_address(self, addr):
        """Compression-group number containing native address *addr*."""
        return self.block_of_address(addr) // self.group_blocks

    def block_base_address(self, block_index):
        """Native address of a block's first instruction."""
        return self.text_base \
            + block_index * self.block_instructions * INSTRUCTION_BYTES

    def slot_in_block(self, addr):
        """Position of the instruction at *addr* inside its block."""
        return ((addr - self.text_base) // INSTRUCTION_BYTES) \
            % self.block_instructions


# -- encode tables -----------------------------------------------------------

class _EncodeTables:
    """Dense value-indexed encode tables for one (scheme, dict) pair.

    The kernel wants O(1) gathers over the full 16-bit symbol space:
    every value is pre-resolved to its codeword, width, and stat-category
    split (compressed-tag bits / dictionary-index bits; raw escapes are
    the ``tag_bits == 0`` residue).  Built with array scatters, so the
    cost beyond three dense fills is proportional to the dictionary.
    """

    def __init__(self, scheme, dictionary):
        n = 1 << 16
        values = np.arange(n, dtype=np.int64)
        self.codes = (scheme.raw_tag << RAW_HALFWORD_BITS) | values
        self.widths = np.full(
            n, scheme.raw_tag_bits + RAW_HALFWORD_BITS, dtype=np.int32)
        self.tag_bits = np.zeros(n, dtype=np.int32)
        self.index_bits = np.zeros(n, dtype=np.int32)
        self.raw_tag_bits = scheme.raw_tag_bits
        entries = np.asarray(dictionary.entries, dtype=np.int64)
        slot = 0
        for cls in scheme.classes:
            if slot >= len(entries):
                break
            k = min(cls.capacity, len(entries) - slot)
            chunk = entries[slot:slot + k]
            self.codes[chunk] = (cls.tag << cls.index_bits) \
                | np.arange(k, dtype=np.int64)
            self.widths[chunk] = cls.total_bits
            self.tag_bits[chunk] = cls.tag_bits
            self.index_bits[chunk] = cls.index_bits
            slot += k
        if scheme.zero_special:
            self.codes[0] = LOW_ZERO_TAG
            self.widths[0] = LOW_ZERO_TAG_BITS
            self.tag_bits[0] = LOW_ZERO_TAG_BITS
            self.index_bits[0] = 0


# -- the kernel --------------------------------------------------------------

def _scatter_codes(buf, start_bits, codes, widths):
    """OR variable-width *codes* into byte buffer *buf* at *start_bits*.

    Each codeword is at most 19 bits and starts at an arbitrary bit
    offset, so it spans at most 4 bytes; aligning it inside a 32-bit
    window and OR-scattering the window's four byte lanes packs every
    codeword of the batch without a Python-level loop.  ``bitwise_or.at``
    is unbuffered, so adjacent codewords sharing a boundary byte
    accumulate correctly (their bit spans never overlap).
    """
    byte = start_bits >> 3
    shifted = codes << (32 - (start_bits & 7) - widths)
    np.bitwise_or.at(buf, byte, (shifted >> 24) & 0xFF)
    np.bitwise_or.at(buf, byte + 1, (shifted >> 16) & 0xFF)
    np.bitwise_or.at(buf, byte + 2, (shifted >> 8) & 0xFF)
    np.bitwise_or.at(buf, byte + 3, shifted & 0xFF)


def _encode_spans(tables_high, tables_low, words, counts,
                  block_instructions):
    """The fused batch encode kernel.

    *words* is an int64 array concatenating one or more programs'
    instruction streams; *counts* lists each program's length.  Block
    partitions restart at every program boundary (a tail block never
    absorbs the next program's words) and each program's block byte
    offsets restart at zero, exactly as if the programs were encoded
    one at a time.

    Returns one tuple per program: ``(code_bytes, is_raw, byte_lengths,
    byte_offsets, ends_per_block, stats_tuple)`` with one array entry
    per block in the geometry columns, per-instruction end-bit tuples
    in ``ends_per_block``, and the program's ``(compressed_tag,
    dict_index, raw_tag, raw, pad)`` bit totals in ``stats_tuple``.
    """
    n = len(words)
    hi = (words >> 16) & _HALF_MASK
    lo = words & _HALF_MASK

    tagb = tables_high.tag_bits[hi] + tables_low.tag_bits[lo]
    idxb = tables_high.index_bits[hi] + tables_low.index_bits[lo]
    raw_h = tables_high.tag_bits[hi] == 0
    raw_l = tables_low.tag_bits[lo] == 0
    code_h = tables_high.codes[hi]
    width_h = tables_high.widths[hi]
    code_l = tables_low.codes[lo]
    width_l = tables_low.widths[lo]
    word_widths = width_h + width_l

    # Per-program block partition, concatenated: block boundaries are
    # derived from program-local word counts so programs stay
    # independent.
    span_nblocks = [-(-count // block_instructions) for count in counts]
    binst_parts = [np.zeros(0, dtype=np.int64)]
    for count, blocks in zip(counts, span_nblocks):
        part = np.full(blocks, block_instructions, dtype=np.int64)
        if count % block_instructions:
            part[-1] = count % block_instructions
        binst_parts.append(part)
    binst = np.concatenate(binst_parts)
    n_blocks = len(binst)
    bstart = np.cumsum(binst) - binst

    # Bit geometry via one global prefix sum over codeword widths.
    csum = np.cumsum(word_widths, dtype=np.int64)
    block_bit0 = np.where(bstart > 0, csum[bstart - 1], 0)
    nbits = csum[bstart + binst - 1] - block_bit0
    pad = (-nbits) % 8
    is_raw = (nbits + pad) > binst * 32
    byte_lengths = np.where(is_raw, binst * 4, (nbits + pad) >> 3)
    # Global byte offsets place blocks in the shared scatter buffer;
    # per-program offsets (what BlockInfo records) subtract the base.
    gboff = np.cumsum(byte_lengths) - byte_lengths
    total = int(byte_lengths.sum())

    word_block = np.repeat(np.arange(n_blocks), binst)
    raw_word = is_raw[word_block]
    packed = ~raw_word
    # Absolute output bit of each instruction's high codeword.
    out_bit0 = gboff[word_block] * 8 \
        + (csum - word_widths - block_bit0[word_block])

    buf = np.zeros(total + _PAD_BYTES, dtype=np.int64)
    if packed.any():
        _scatter_codes(buf, out_bit0[packed], code_h[packed],
                       width_h[packed])
        _scatter_codes(buf, out_bit0[packed] + width_h[packed],
                       code_l[packed], width_l[packed])
    index_in_block = np.arange(n, dtype=np.int64) - bstart[word_block]
    if raw_word.any():
        start = gboff[word_block[raw_word]] + index_in_block[raw_word] * 4
        native = words[raw_word]
        buf[start] = (native >> 24) & 0xFF
        buf[start + 1] = (native >> 16) & 0xFF
        buf[start + 2] = (native >> 8) & 0xFF
        buf[start + 3] = native & 0xFF
    code_bytes = buf[:total].astype(np.uint8).tobytes()

    # Per-instruction end bits, relative to the block start: the packed
    # prefix sums, overridden with the 32-bit native grid in raw blocks.
    ends_flat = np.where(raw_word, (index_in_block + 1) * 32,
                         csum - block_bit0[word_block]).tolist()

    results = []
    start = b0 = 0
    for count, blocks in zip(counts, span_nblocks):
        b1 = b0 + blocks
        span_byte0 = int(gboff[b0]) if blocks else 0
        span_bytes = int(byte_lengths[b0:b1].sum())
        ends = [tuple(ends_flat[s:s + c])
                for s, c in zip(bstart[b0:b1].tolist(),
                                binst[b0:b1].tolist())]
        pk = packed[start:start + count]
        ct = int(tagb[start:start + count][pk].sum())
        di = int(idxb[start:start + count][pk].sum())
        rh = int((raw_h[start:start + count] & pk).sum())
        rl = int((raw_l[start:start + count] & pk).sum())
        rt = rh * tables_high.raw_tag_bits + rl * tables_low.raw_tag_bits
        rb = (rh + rl) * RAW_HALFWORD_BITS \
            + int((binst[b0:b1][is_raw[b0:b1]] * 32).sum())
        pad_total = int(pad[b0:b1][~is_raw[b0:b1]].sum())
        results.append((
            code_bytes[span_byte0:span_byte0 + span_bytes],
            is_raw[b0:b1],
            byte_lengths[b0:b1],
            gboff[b0:b1] - span_byte0,
            ends,
            (ct, di, rt, rb, pad_total),
        ))
        start += count
        b0 = b1
    return results


def _index_entries_vec(byte_offsets, byte_lengths, is_raw, group_blocks):
    """The group index entries, from the block-geometry columns.

    Array form of :func:`~repro.codepack.reference.build_index_entries`
    (the reference encoder's builder, which the differential suite
    compares it with): every group's ``(block1_base, block2_offset, raw
    flags)`` comes from array slicing, then the :class:`IndexEntry`
    list materialises in one bulk pass.
    """
    n = len(byte_offsets)
    first = np.arange(0, n, group_blocks, dtype=np.int64)
    second = first + 1
    with_second = second < n if group_blocks > 1 \
        else np.zeros(len(first), dtype=bool)
    second_c = np.minimum(second, max(n - 1, 0))
    b2 = np.where(with_second,
                  byte_offsets[second_c] - byte_offsets[first],
                  byte_lengths[first])
    r2 = with_second & is_raw[second_c]
    return [IndexEntry(block1_base=base, block2_offset=off,
                       block1_raw=raw1, block2_raw=raw2)
            for base, off, raw1, raw2 in zip(
                byte_offsets[first].tolist(), b2.tolist(),
                is_raw[first].tolist(), r2.tolist())]


def _assemble_image(n_instructions, name, text_base, high_scheme,
                    low_scheme, high_dict, low_dict, block_instructions,
                    group_blocks, encoded):
    """Build a :class:`CodePackImage` from the kernel's block arrays.

    Geometry columns convert to Python scalars with one ``tolist`` pass
    each and zip straight into :class:`BlockInfo` constructors -- no
    per-block element indexing into arrays (each such access pays a
    NumPy-scalar box).
    """
    code_bytes, is_raw, byte_lengths, byte_offsets, ends, stats = encoded
    blocks = [
        BlockInfo(index=i, byte_offset=offset, byte_length=length,
                  is_raw=raw, n_instructions=len(block_ends),
                  inst_end_bits=block_ends)
        for i, (offset, length, raw, block_ends) in enumerate(
            zip(byte_offsets.tolist(), byte_lengths.tolist(),
                is_raw.tolist(), ends))]
    index_entries = _index_entries_vec(byte_offsets, byte_lengths, is_raw,
                                       group_blocks)
    ct, di, rt, rb, pad = stats
    return CodePackImage(
        name=name,
        text_base=text_base,
        n_instructions=n_instructions,
        high_dict=high_dict,
        low_dict=low_dict,
        index_entries=index_entries,
        code_bytes=code_bytes,
        blocks=blocks,
        stats=CompositionStats(
            index_table_bits=len(index_entries) * 32,
            dictionary_bits=high_dict.storage_bits + low_dict.storage_bits,
            compressed_tag_bits=ct,
            dictionary_index_bits=di,
            raw_tag_bits=rt,
            raw_bits=rb,
            pad_bits=pad,
        ),
        original_bytes=n_instructions * INSTRUCTION_BYTES,
        high_scheme=high_scheme,
        low_scheme=low_scheme,
        block_instructions=block_instructions,
        group_blocks=group_blocks,
    )


def _word_array(words, block_instructions, group_blocks):
    """*words* as an int64 array, after the encoders' input checks.

    One vector range test proves the usual input valid.  Anything it
    cannot prove goes through
    :func:`~repro.codepack.reference.check_encode_input`, which raises
    ``ValueError`` naming the first bad word or geometry parameter; what
    passes that (Python ints NumPy widened to float beside an
    ``np.uint64``, say) converts word by word.
    """
    try:
        array = np.asarray(words)
        valid = (array.ndim == 1 and array.dtype.kind in "biu"
                 and block_instructions >= 1 and group_blocks >= 1
                 and (not array.size or (array.min() >= 0
                                         and array.max() <= WORD_MASK)))
    except (OverflowError, TypeError, ValueError):
        valid = False
    if not valid:
        check_encode_input(words, block_instructions, group_blocks)
        array = np.array([operator.index(word) for word in words],
                         dtype=np.int64)
    return array.astype(np.int64, copy=False)


def compress_words(words, text_base=0, name="program",
                   high_scheme=None, low_scheme=None,
                   block_instructions=BLOCK_INSTRUCTIONS,
                   group_blocks=GROUP_BLOCKS,
                   high_dict=None, low_dict=None):
    """Compress a list of instruction words into a :class:`CodePackImage`.

    Every word must be an integer (Python or NumPy) in
    ``0..0xFFFFFFFF`` and both geometry parameters at least 1; anything
    else raises ``ValueError``, exactly as
    :func:`~repro.codepack.reference.compress_words_reference` does.

    ``block_instructions`` and ``group_blocks`` default to the paper's
    fixed 16 and 2; they are exposed for the ablation studies only.
    Pre-built ``high_dict``/``low_dict`` override the per-program
    frequency build (the paper's load-time adaptation) -- used by the
    generic-dictionary ablation.
    """
    words = list(words)
    array = _word_array(words, block_instructions, group_blocks)
    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    if high_dict is None or low_dict is None:
        built_high, built_low = build_dictionaries(
            words, high_scheme=high_scheme, low_scheme=low_scheme)
        high_dict = high_dict or built_high
        low_dict = low_dict or built_low
    [encoded] = _encode_spans(_EncodeTables(high_scheme, high_dict),
                              _EncodeTables(low_scheme, low_dict),
                              array, [len(words)], block_instructions)
    return _assemble_image(len(words), name, text_base, high_scheme,
                           low_scheme, high_dict, low_dict,
                           block_instructions, group_blocks, encoded)


def compress_many(programs, high_scheme=None, low_scheme=None,
                  block_instructions=BLOCK_INSTRUCTIONS,
                  group_blocks=GROUP_BLOCKS,
                  high_dict=None, low_dict=None):
    """Compress several programs; returns images in input order.

    *programs* may be :class:`~repro.isa.program.Program` objects or
    plain lists of instruction words.  Each program normally gets its
    own load-time dictionaries (the paper's adaptation), so the default
    path runs one kernel invocation per program.  When *both*
    dictionaries are supplied (the generic-dictionary ablation, or any
    shared-dictionary fleet) the whole batch shares one pair of encode
    tables and is compressed by a **single** fused kernel pass over the
    concatenated symbol stream, split back into per-program images.
    Either way each image, and the first program's input error, is what
    :func:`compress_words` gives for that program alone.
    """
    parts = []
    for item in programs:
        if hasattr(item, "text"):
            parts.append((list(item.text), item.text_base, item.name))
        else:
            parts.append((list(item), 0, "program"))

    if high_dict is None or low_dict is None:
        return [compress_words(words, text_base=base, name=name,
                               high_scheme=high_scheme,
                               low_scheme=low_scheme,
                               block_instructions=block_instructions,
                               group_blocks=group_blocks,
                               high_dict=high_dict, low_dict=low_dict)
                for words, base, name in parts]

    arrays = [_word_array(words, block_instructions, group_blocks)
              for words, _base, _name in parts]
    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    encoded = _encode_spans(
        _EncodeTables(high_scheme, high_dict),
        _EncodeTables(low_scheme, low_dict),
        np.concatenate(arrays + [np.zeros(0, dtype=np.int64)]),
        [len(words) for words, _base, _name in parts], block_instructions)
    return [_assemble_image(len(words), name, base, high_scheme, low_scheme,
                            high_dict, low_dict, block_instructions,
                            group_blocks, enc)
            for (words, base, name), enc in zip(parts, encoded)]


def compress_program(program, high_scheme=None, low_scheme=None,
                     block_instructions=BLOCK_INSTRUCTIONS,
                     group_blocks=GROUP_BLOCKS,
                     high_dict=None, low_dict=None):
    """Compress a :class:`~repro.isa.program.Program`'s ``.text`` section."""
    return compress_words(program.text, text_base=program.text_base,
                          name=program.name, high_scheme=high_scheme,
                          low_scheme=low_scheme,
                          block_instructions=block_instructions,
                          group_blocks=group_blocks,
                          high_dict=high_dict, low_dict=low_dict)
