"""Vectorized batch kernels for the CodePack bitstream codec.

:mod:`repro.codepack.fastcodec` made the codec table-driven but left
one Python-level loop iteration per codeword.  This module removes that
last scalar tier for batch work, following the shape of SIMD integer
codecs (Lemire & Boytsov, "Decoding billions of integers per second
through vectorization"): classify tags with one table gather, locate
variable-length boundaries with prefix sums, and touch the bitstream
through whole-array shift/mask passes.

**Decode** runs all compression blocks of a batch in lockstep: blocks
are byte-aligned and independent, so they form the vector lanes.  A
one-time pass builds a sliding 24-bit window per byte position; each
symbol step then gathers :data:`~repro.codepack.fastcodec.
DECODE_LOOKUP_BITS`-bit peeks for every lane at once, resolves
(width, value) through the PR 1 decode tables lowered to flat arrays,
extracts raw-escape literals where flagged, and advances every lane's
bit cursor with one vector add.  The multi-image variant concatenates
code buffers and stacks decode tables, so a whole batch of ``.cpk``
groups decodes in one kernel call (the serve tier's micro-batches).

**Encode** gathers (codeword, width, stat-category) for every halfword
of every block from dense 65536-entry tables, prefix-sums the widths to
place each codeword's bit span and each block's byte extent (including
the padded-length whole-block raw-escape decision), and scatters the
codewords into the output buffer through four ``bitwise_or.at`` byte
lanes -- a fused bit-packing kernel with no per-codeword Python.  With
shared dictionaries, a whole batch of programs is encoded by one fused
pass over the concatenated symbol stream.  Image assembly is bulk work
too: block geometry converts to :class:`BlockInfo` rows via whole-array
``tolist`` passes and the group index entries derive from array slices
(:func:`_index_entries_vec`), so no per-block NumPy-scalar boxing
remains on the encode path.

Everything here is an accelerator, never a model change: outputs are
byte-identical ``.cpk`` artifacts, ``repro.codepack.reference`` stays
the oracle and :mod:`~repro.codepack.fastcodec` the scalar mid-tier.
Lanes that decode to an error or overrun (possible only on malformed
input) are re-run through the scalar decoder so exception types and
messages match exactly.  :mod:`repro.codepack.batch` exposes the batch
kernels as one call each.

The three-way differential harness (``tests/codepack/test_veccodec.py``)
asserts byte-identical images and word-identical decodes across
reference / fastcodec / veccodec on the workload corpus, adversarial
shapes, Hypothesis-generated programs and the golden fixtures.
"""

import numpy as np

from repro.codepack.codewords import (
    HIGH_SCHEME,
    LOW_SCHEME,
    LOW_ZERO_TAG,
    LOW_ZERO_TAG_BITS,
    RAW_HALFWORD_BITS,
)
from repro.codepack.compressor import (
    BLOCK_INSTRUCTIONS,
    GROUP_BLOCKS,
    BlockInfo,
    CodePackImage,
    compress_words,
)
from repro.codepack.decompressor import decoder_for_image
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.errors import DecompressionError
from repro.codepack.fastcodec import DECODE_LOOKUP_BITS, build_decode_table
from repro.codepack.index_table import IndexEntry
from repro.codepack.reference import build_index_entries
from repro.codepack.stats import CompositionStats
from repro.isa.encoding import INSTRUCTION_BYTES

__all__ = [
    "compress_words_vec",
    "compress_many_vec",
    "decompress_program_vec",
    "decompress_many_vec",
    "decode_block_sets_vec",
    "vec_decoder_for_image",
]

_HALF_MASK = 0xFFFF
_PEEK_MASK = (1 << DECODE_LOOKUP_BITS) - 1
_TABLE_LEN = 1 << DECODE_LOOKUP_BITS
#: Zero padding appended to decode buffers so clipped window gathers
#: past the last codeword stay in bounds (the scalar decoder's
#: ``acc << -shift`` zero-fill, in array form).
_PAD_BYTES = 8


# -- encode tables -----------------------------------------------------------

class _EncodeTables:
    """Dense value-indexed encode tables for one (scheme, dict) pair.

    Unlike the fast path's lazily-grown dict, the vector kernel wants
    O(1) gathers over the full 16-bit symbol space: every value is
    pre-resolved to its codeword, width, and stat-category split
    (compressed-tag bits / dictionary-index bits; raw escapes are the
    ``tag_bits == 0`` residue).  Built with array scatters, so the cost
    beyond three dense fills is proportional to the dictionary.
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


_EMPTY_ENCODED = (b"", (), (), (), [], (0, 0, 0, 0, 0))


def _encode_spans(tables_high, tables_low, words, spans,
                  block_instructions):
    """The fused batch encode kernel.

    *words* is the concatenation of one or more programs' instruction
    streams; *spans* lists each program's ``(start, count)`` slice.
    Block partitions restart at every span boundary (a tail block never
    absorbs the next program's words) and each program's block byte
    offsets restart at zero, exactly as if the programs were encoded
    one at a time.

    Returns one tuple per span: ``(code_bytes, is_raw, byte_lengths,
    byte_offsets, ends_per_block, stats_tuple)`` with one entry per
    block in the geometry sequences, per-instruction end-bit tuples in
    ``ends_per_block``, and the span's ``(compressed_tag, dict_index,
    raw_tag, raw, pad)`` bit totals in ``stats_tuple``.
    """
    n = len(words)
    if n == 0:
        return [_EMPTY_ENCODED for _ in spans]
    wa = np.asarray(words, dtype=np.int64)
    hi = (wa >> 16) & _HALF_MASK
    lo = wa & _HALF_MASK

    tagb = tables_high.tag_bits[hi] + tables_low.tag_bits[lo]
    idxb = tables_high.index_bits[hi] + tables_low.index_bits[lo]
    raw_h = tables_high.tag_bits[hi] == 0
    raw_l = tables_low.tag_bits[lo] == 0
    code_h = tables_high.codes[hi]
    width_h = tables_high.widths[hi]
    code_l = tables_low.codes[lo]
    width_l = tables_low.widths[lo]
    word_widths = width_h + width_l

    # Per-span block partition, concatenated: block boundaries are
    # derived from span-local word counts so spans stay independent
    # (a tail block never absorbs the next span's words).
    binst_parts = []
    for _start, count in spans:
        if count == 0:
            continue
        span_blocks = -(-count // block_instructions)
        part = np.full(span_blocks, block_instructions, dtype=np.int64)
        if count % block_instructions:
            part[-1] = count % block_instructions
        binst_parts.append(part)
    span_nblocks = [-(-count // block_instructions) if count else 0
                    for _start, count in spans]
    block_starts_of_span = np.concatenate(
        ([0], np.cumsum(span_nblocks))).astype(np.int64)
    binst = np.concatenate(binst_parts) if binst_parts \
        else np.zeros(0, dtype=np.int64)
    n_blocks = len(binst)
    bstart = np.concatenate(([0], np.cumsum(binst[:-1]))).astype(np.int64) \
        if n_blocks else np.zeros(0, dtype=np.int64)

    # Bit geometry via one global prefix sum over codeword widths.
    csum = np.cumsum(word_widths, dtype=np.int64)
    block_bit0 = np.where(bstart > 0, csum[bstart - 1], 0)
    nbits = csum[bstart + binst - 1] - block_bit0
    pad = (-nbits) % 8
    is_raw = (nbits + pad) > binst * 32
    byte_lengths = np.where(is_raw, binst * 4, (nbits + pad) >> 3)
    # Global byte offsets place blocks in the shared scatter buffer;
    # per-span offsets (what BlockInfo records) subtract the span base.
    gboff = np.concatenate(([0], np.cumsum(byte_lengths[:-1]))) \
        .astype(np.int64) if n_blocks else np.zeros(0, dtype=np.int64)
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
        native = wa[raw_word]
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
    for span_index, (start, count) in enumerate(spans):
        if count == 0:
            results.append(_EMPTY_ENCODED)
            continue
        b0 = int(block_starts_of_span[span_index])
        b1 = b0 + span_nblocks[span_index]
        span_byte0 = int(gboff[b0])
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
    return results


def _index_entries_vec(byte_offsets, byte_lengths, is_raw, group_blocks):
    """Vectorized :func:`~repro.codepack.reference.build_index_entries`.

    Derives every group's ``(block1_base, block2_offset, raw flags)``
    with array slicing over the block-geometry columns instead of a
    per-group Python walk, then materialises the identical
    :class:`IndexEntry` list in one bulk pass.  The scalar builder
    stays the oracle (the differential suite compares images
    field-for-field).
    """
    n = len(byte_offsets)
    first = np.arange(0, n, group_blocks, dtype=np.int64)
    second = first + 1
    has_second = group_blocks > 1
    with_second = second < n if has_second \
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


def _assemble_image(words, name, text_base, high_scheme, low_scheme,
                    high_dict, low_dict, block_instructions, group_blocks,
                    encoded):
    """Build a :class:`CodePackImage` from the kernel's block arrays.

    The per-block assembly is bulk work too: geometry columns convert
    to Python scalars with one ``tolist`` pass each and zip straight
    into :class:`BlockInfo` constructors, and the group index entries
    come from :func:`_index_entries_vec` -- no per-block element
    indexing into arrays (each such access pays a NumPy-scalar box).
    """
    code_bytes, is_raw, byte_lengths, byte_offsets, ends, stats = encoded
    if len(ends):  # empty spans carry plain tuples, not arrays
        blocks = [
            BlockInfo(index=i, byte_offset=offset, byte_length=length,
                      is_raw=raw, n_instructions=len(block_ends),
                      inst_end_bits=block_ends)
            for i, (offset, length, raw, block_ends) in enumerate(
                zip(byte_offsets.tolist(), byte_lengths.tolist(),
                    is_raw.tolist(), ends))]
    else:
        blocks = []
    if group_blocks >= 1 and len(blocks):
        index_entries = _index_entries_vec(
            np.asarray(byte_offsets, dtype=np.int64),
            np.asarray(byte_lengths, dtype=np.int64),
            np.asarray(is_raw, dtype=bool), group_blocks)
    else:  # degenerate geometry: keep the scalar builder's behaviour
        index_entries = build_index_entries(blocks, group_blocks)
    ct, di, rt, rb, pad = stats
    return CodePackImage(
        name=name,
        text_base=text_base,
        n_instructions=len(words),
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
        original_bytes=len(words) * INSTRUCTION_BYTES,
        high_scheme=high_scheme,
        low_scheme=low_scheme,
        block_instructions=block_instructions,
        group_blocks=group_blocks,
    )


def _words_in_range(words):
    """Whether every word fits the kernel's 32-bit symbol split.

    Out-of-range inputs are delegated to the scalar compressor so its
    exact error behaviour (mask-then-raw-escape, ``ValueError`` on raw
    blocks) is preserved.
    """
    if not len(words):
        return True
    try:
        arr = np.asarray(words, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return False
    return bool(((arr >= 0) & (arr <= 0xFFFFFFFF)).all())


def compress_words_vec(words, text_base=0, name="program",
                       high_scheme=None, low_scheme=None,
                       block_instructions=BLOCK_INSTRUCTIONS,
                       group_blocks=GROUP_BLOCKS,
                       high_dict=None, low_dict=None):
    """Vectorized :func:`~repro.codepack.compressor.compress_words`.

    Byte-identical to the scalar compressor for every input.  Inputs
    the kernel cannot represent (words outside 32 bits, degenerate
    geometry) are delegated to the scalar path so error behaviour --
    exception types and messages -- matches exactly.
    """
    words = list(words)
    if block_instructions < 1 or not _words_in_range(words):
        return compress_words(words, text_base=text_base, name=name,
                              high_scheme=high_scheme,
                              low_scheme=low_scheme,
                              block_instructions=block_instructions,
                              group_blocks=group_blocks,
                              high_dict=high_dict, low_dict=low_dict)
    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    if high_dict is None or low_dict is None:
        built_high, built_low = build_dictionaries(
            words, high_scheme=high_scheme, low_scheme=low_scheme)
        high_dict = high_dict or built_high
        low_dict = low_dict or built_low
    encoded = _encode_spans(_EncodeTables(high_scheme, high_dict),
                            _EncodeTables(low_scheme, low_dict),
                            words, [(0, len(words))],
                            block_instructions)[0]
    return _assemble_image(words, name, text_base, high_scheme, low_scheme,
                           high_dict, low_dict, block_instructions,
                           group_blocks, encoded)


def compress_many_vec(programs, high_scheme=None, low_scheme=None,
                      block_instructions=BLOCK_INSTRUCTIONS,
                      group_blocks=GROUP_BLOCKS,
                      high_dict=None, low_dict=None):
    """Batch-compress many programs through the vector kernels.

    Each program normally gets its own load-time dictionaries (the
    paper's adaptation), so the default path runs one fused kernel
    invocation per program.  When *both* dictionaries are supplied (the
    generic-dictionary ablation, or any shared-dictionary fleet) the
    whole batch shares one pair of encode tables and is compressed by a
    **single** fused kernel pass over the concatenated symbol stream,
    split back into per-program images afterwards.
    """
    parts = []
    for item in programs:
        if hasattr(item, "text"):
            parts.append((list(item.text), item.text_base, item.name))
        else:
            parts.append((list(item), 0, "program"))

    if high_dict is None or low_dict is None or block_instructions < 1 \
            or not all(_words_in_range(words) for words, _, _ in parts):
        return [compress_words_vec(words, text_base=base, name=name,
                                   high_scheme=high_scheme,
                                   low_scheme=low_scheme,
                                   block_instructions=block_instructions,
                                   group_blocks=group_blocks,
                                   high_dict=high_dict, low_dict=low_dict)
                for words, base, name in parts]

    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    all_words = []
    spans = []
    for words, _base, _name in parts:
        spans.append((len(all_words), len(words)))
        all_words.extend(words)
    encoded = _encode_spans(_EncodeTables(high_scheme, high_dict),
                            _EncodeTables(low_scheme, low_dict),
                            all_words, spans, block_instructions)
    return [_assemble_image(words, name, base, high_scheme, low_scheme,
                            high_dict, low_dict, block_instructions,
                            group_blocks, enc)
            for (words, base, name), enc in zip(parts, encoded)]


# -- decode ------------------------------------------------------------------

class _DecodeTables:
    """The fast path's decode table lowered to flat gather arrays.

    ``widths[peek] > 0`` is a directly decoded symbol of that bit
    width with ``values[peek]`` its halfword; ``widths[peek] < 0``
    marks the raw escape (magnitude = tag bits, 16 literal bits
    follow); ``widths[peek] == 0`` marks a malformed codeword -- the
    lane is re-decoded by the scalar path to raise its exact error.
    """

    def __init__(self, scheme, dictionary):
        table = build_decode_table(scheme, dictionary)
        self.widths = np.zeros(len(table), dtype=np.int32)
        self.values = np.zeros(len(table), dtype=np.int32)
        for i, entry in enumerate(table):
            kind = entry[0]
            if kind > 0:
                self.widths[i] = kind
                self.values[i] = entry[1]
            elif kind == 0:  # raw escape; entry[1] is the tag width
                self.widths[i] = -entry[1]


def vec_decoder_for_image(image):
    """The image's cached :class:`_DecodeTables` pair.

    Mirrors :func:`~repro.codepack.decompressor.decoder_for_image`,
    including its invalidation: swapping a dictionary rebuilds them.
    """
    cache = getattr(image, "_vec_decoder", None)
    if cache is not None and cache[0] is image.high_dict \
            and cache[1] is image.low_dict:
        return cache[2], cache[3]
    high = _DecodeTables(image.high_scheme, image.high_dict)
    low = _DecodeTables(image.low_scheme, image.low_dict)
    image._vec_decoder = (image.high_dict, image.low_dict, high, low)
    return high, low


def _decode_lanes(data, base_bits, n_inst, avail_bits,
                  widths_h, values_h, widths_l, values_l, table_base):
    """The lockstep decode kernel.

    *data* is the concatenated (padded) byte buffer as a uint8 array;
    each lane is one compressed block with its absolute *base_bits*
    cursor, instruction count, and per-lane readable-bit budget.
    ``table_base`` offsets each lane's peeks into the stacked
    (flattened) decode tables, so lanes from different images gather
    from their own dictionaries in the same pass; ``None`` means all
    lanes share table 0.

    Returns ``(words_matrix, bad_mask)``: row *i* of the matrix holds
    lane *i*'s decoded words (garbage past ``n_inst[i]``), and
    ``bad_mask`` flags lanes that hit a malformed codeword or ran past
    their budget -- the caller re-decodes those through the scalar path
    for exact error semantics.
    """
    lanes = len(base_bits)
    max_steps = int(n_inst.max()) if lanes else 0
    min_steps = int(n_inst.min()) if lanes else 0
    # Bit cursors and the byte window fit int32 for any buffer under
    # 256 MB -- half the gather bandwidth of int64, which dominates the
    # kernel.  Oversized batches (never seen in practice) fall back.
    dtype = np.int32 if len(data) * 8 < 2**31 - 256 else np.int64
    # Sliding 24-bit big-endian window at every byte offset: one
    # gather then replaces the scalar path's three byte loads.
    window = (data[:-2].astype(dtype) << 16) \
        | (data[1:-1].astype(dtype) << 8) | data[2:]
    max_index = dtype(len(window) - 1)
    pos = base_bits.astype(dtype)
    base_bits = pos.copy()
    if table_base is not None:
        table_base = table_base.astype(dtype)
    out = np.empty((max_steps, lanes), dtype=np.int64)
    bad = np.zeros(lanes, dtype=bool)
    shift_base = 24 - DECODE_LOOKUP_BITS
    take = np.take

    for step in range(max_steps):
        active = None if step < min_steps else n_inst > step
        word = None
        for widths, values in ((widths_h, values_h), (widths_l, values_l)):
            byte = np.minimum(pos >> 3, max_index)
            peek = (take(window, byte) >> (shift_base - (pos & 7))) \
                & _PEEK_MASK
            flat = peek if table_base is None else table_base + peek
            w = take(widths, flat)
            val = take(values, flat)
            raw = w < 0
            if raw.any():
                # Raw escape: 16 literal bits start after the tag
                # (w holds the negated tag width here).
                lit_bit = pos - w
                lit_byte = np.minimum(lit_bit >> 3, max_index)
                literal = (take(window, lit_byte)
                           >> (8 - (lit_bit & 7))) & _HALF_MASK
                w = np.where(raw, RAW_HALFWORD_BITS - w, w)
                val = np.where(raw, literal, val)
            if active is None:
                bad |= w == 0
            else:
                bad |= active & (w == 0)
                w = np.where(active, w, 0)
                val = np.where(active, val, 0)
            pos = pos + w
            if word is None:
                word = val.astype(np.int64)
            else:
                word <<= 16
                word |= val
        out[step] = word
    # Widths are strictly positive and window gathers are clipped, so a
    # lane that ever overran its budget still shows the overrun at the
    # end -- one check replaces the scalar per-symbol EOF test.
    bad |= (pos - base_bits) > avail_bits
    return out.T, bad


def _vec_geometry(image):
    """Cached per-block (byte_offset, n_instructions, is_raw) arrays.

    Block geometry is immutable once an image is assembled, so the
    arrays are built on first use and reused by every later batch
    containing the image -- requests then slice arrays instead of
    walking :class:`BlockInfo` objects.
    """
    cache = getattr(image, "_vec_geometry", None)
    if cache is None:
        blocks = image.blocks
        n = len(blocks)
        cache = (
            np.fromiter((b.byte_offset for b in blocks), np.int64, n),
            np.fromiter((b.n_instructions for b in blocks), np.int64, n),
            np.fromiter((b.is_raw for b in blocks), bool, n),
        )
        image._vec_geometry = cache
    return cache


def _decode_raw_words(image, block):
    """Native big-endian words of one raw block, as a Python list."""
    start = block.byte_offset
    if start + 4 * block.n_instructions > len(image.code_bytes):
        raise EOFError("bitstream exhausted")
    return np.frombuffer(image.code_bytes, dtype=">u4",
                         count=block.n_instructions,
                         offset=start).astype(np.int64).tolist()


def decode_block_sets_vec(requests):
    """Decode many ``(image, block_indices)`` requests in one pass.

    The workhorse behind :func:`decompress_program_vec`,
    :func:`decompress_many_vec` and the serve tier's group batches:
    every compressed block of every request becomes one kernel lane
    (images' code buffers are concatenated, their decode tables
    stacked), raw blocks are bulk-read straight off the byte buffer,
    and per-request word lists are reassembled in block order.

    Returns a list with one entry per request: the concatenated word
    list, or the exception the scalar decoder raises for that request's
    first failing block (captured, not raised -- callers choose how to
    surface it).
    """
    requests = list(requests)
    if not requests:
        return []
    # Deduplicate images: one table set and one buffer slice each.
    slots = {}
    images = []
    for image, _blocks in requests:
        if id(image) not in slots:
            slots[id(image)] = len(images)
            images.append(image)

    offsets = []
    base = 0
    for image in images:
        offsets.append(base)
        base += len(image.code_bytes)
    data = np.frombuffer(
        b"".join([image.code_bytes for image in images])
        + b"\x00" * _PAD_BYTES,
        dtype=np.uint8)

    tables = [vec_decoder_for_image(image) for image in images]
    if len(tables) == 1:
        widths_h, values_h = tables[0][0].widths, tables[0][0].values
        widths_l, values_l = tables[0][1].widths, tables[0][1].values
    else:
        widths_h = np.concatenate([t[0].widths for t in tables])
        values_h = np.concatenate([t[0].values for t in tables])
        widths_l = np.concatenate([t[1].widths for t in tables])
        values_l = np.concatenate([t[1].values for t in tables])

    # Lane assembly is array-at-a-time: each request's block indices
    # slice the image's cached geometry arrays, so the common case (no
    # raw blocks) adds lanes without a per-block Python loop.  Requests
    # that do contain raw blocks keep an interleaving step plan.
    base_parts = []
    ninst_parts = []
    table_parts = []
    plan = []  # ("fast", lane0, n, image, idx) | ("mixed", steps)
    lane_count = 0
    for image, block_indices in requests:
        slot = slots[id(image)]
        image_bits = offsets[slot] * 8
        off, ninst, rawf = _vec_geometry(image)
        idx = block_indices if isinstance(block_indices, np.ndarray) \
            else np.asarray(list(block_indices), dtype=np.int64)
        if len(idx) and rawf[idx].any():
            keep = ~rawf[idx]
            steps = []
            lane = lane_count
            for index, is_raw in zip(idx.tolist(), rawf[idx].tolist()):
                block = image.blocks[index]
                if is_raw:
                    steps.append(("raw", image, block))
                else:
                    steps.append(("lane", lane, image, block))
                    lane += 1
            plan.append(("mixed", steps))
            idx = idx[keep]
        else:
            plan.append(("fast", lane_count, len(idx), image, idx))
        base_parts.append(image_bits + off[idx] * 8)
        ninst_parts.append(ninst[idx])
        table_parts.append(np.full(len(idx), slot, dtype=np.int64))
        lane_count += len(idx)

    if lane_count:
        lane_base = np.concatenate(base_parts)
        lane_ninst = np.concatenate(ninst_parts)
        # Readable bits per lane run to the end of the lane's own image
        # (the scalar decoder's per-block EOF budget).
        image_end_bits = np.concatenate(
            [np.full(len(part),
                     (offsets[slots[id(image)]] + len(image.code_bytes)) * 8,
                     dtype=np.int64)
             for part, (image, _b) in zip(base_parts, requests)])
        lane_avail = image_end_bits - lane_base
        table_base = None if len(tables) == 1 \
            else np.concatenate(table_parts) * _TABLE_LEN
        words_mat, bad = _decode_lanes(
            data, lane_base, lane_ninst, lane_avail,
            widths_h, values_h, widths_l, values_l, table_base)
        max_steps = words_mat.shape[1]
        # Strip each lane's tail garbage in one boolean gather: the
        # result is every lane's words, concatenated in lane order.
        valid = np.arange(max_steps, dtype=np.int64)[None, :] \
            < lane_ninst[:, None]
        flat = words_mat[valid]
        word_off = np.concatenate(
            ([0], np.cumsum(lane_ninst))).astype(np.int64)
        any_bad = bool(bad.any())
    else:
        flat, word_off, bad, any_bad = None, None, (), False

    def lane_error(image, block):
        # Malformed stream: replay through the scalar decoder so the
        # error type/message match exactly.
        try:
            decoder_for_image(image).decode_block(
                image.code_bytes, block.byte_offset, block.n_instructions)
            raise DecompressionError(
                "vectorized decode diverged on block %d" % block.index)
        except Exception as exc:
            return exc

    results = []
    for entry in plan:
        if entry[0] == "fast":
            _kind, lane0, n, image, idx = entry
            if any_bad and bool(bad[lane0:lane0 + n].any()):
                first = lane0 + int(np.flatnonzero(bad[lane0:lane0 + n])[0])
                block = image.blocks[int(idx[first - lane0])]
                results.append(lane_error(image, block))
                continue
            results.append(
                flat[word_off[lane0]:word_off[lane0 + n]].tolist()
                if n else [])
            continue
        words = []
        error = None
        for step in entry[1]:
            if step[0] == "raw":
                try:
                    words.extend(_decode_raw_words(step[1], step[2]))
                except Exception as exc:
                    error = exc
                    break
            else:
                _kind, lane, image, block = step
                if bad[lane]:
                    error = lane_error(image, block)
                    break
                words.extend(
                    flat[word_off[lane]:word_off[lane + 1]].tolist())
        results.append(error if error is not None else words)
    return results


def decompress_program_vec(image):
    """Vectorized :func:`~repro.codepack.decompressor.decompress_program`:
    every block of the image is one kernel lane."""
    return decompress_many_vec([image])[0]


def decompress_many_vec(images):
    """Decode a batch of images in one kernel pass; word lists in order.

    Raises the first failing image's error, with the same exception
    types (and the declared-count integrity check) as the scalar
    :func:`~repro.codepack.batch.decompress_many` path.
    """
    images = list(images)
    results = decode_block_sets_vec(
        [(image, np.arange(image.n_blocks)) for image in images])
    out = []
    for image, result in zip(images, results):
        if isinstance(result, Exception):
            raise result
        if len(result) != image.n_instructions:
            raise DecompressionError(
                "decoded %d instructions, expected %d"
                % (len(result), image.n_instructions))
        out.append(result)
    return out
