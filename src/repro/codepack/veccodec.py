"""Vectorized batch decode kernels for the CodePack bitstream codec.

:mod:`repro.codepack.fastcodec` made decoding table-driven but left one
Python-level loop iteration per codeword.  This module removes that
loop for batch work, following the shape of SIMD integer codecs
(Lemire & Boytsov, "Decoding billions of integers per second through
vectorization"): classify tags with one table gather and touch the
bitstream through whole-array shift/mask passes.  The encoder in
:mod:`repro.codepack.compressor` is the same kind of kernel.

All compression blocks of a batch decode in lockstep: blocks are
byte-aligned and independent, so they form the vector lanes.  A
one-time pass builds a sliding 24-bit window per byte position; each
symbol step then gathers :data:`~repro.codepack.fastcodec.
DECODE_LOOKUP_BITS`-bit peeks for every lane at once, resolves
(width, value) through fastcodec's decode tables lowered to flat
arrays, extracts raw-escape literals where flagged, and advances every
lane's bit cursor with one vector add.  The multi-image variant
concatenates code buffers and stacks decode tables, so a whole batch of
``.cpk`` groups decodes in one kernel call (the serve tier's
micro-batches).

Decoding here never changes a result: the words match
:mod:`repro.codepack.reference` (the oracle) and fastcodec's
:class:`~repro.codepack.fastcodec.BlockDecoder`.  Lanes that decode to
an error or overrun (possible only on malformed input) are re-run
through the block decoder so exception types and messages match
exactly.  :mod:`repro.codepack.batch` exposes the kernels as one call
each; ``tests/codepack/test_veccodec.py`` holds the decodes to both.
"""

import numpy as np

from repro.codepack.codewords import RAW_HALFWORD_BITS
from repro.codepack.decompressor import decoder_for_image
from repro.codepack.errors import DecompressionError
from repro.codepack.fastcodec import DECODE_LOOKUP_BITS, build_decode_table

__all__ = [
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
