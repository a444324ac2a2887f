"""Table-driven block decoding for the CodePack codec.

The reference codec (:mod:`repro.codepack.reference`) walks every
codeword field through ``BitReader``: per symbol it costs a linear scan
over the codeword classes, several bounds-checked bit reads and a
handful of attribute updates.  That is the transcription the paper's
prose suggests -- and it makes the codec, not the simulator, the
bottleneck of every experiment.

This module applies the table-driven decode of fast integer codecs
(zlib's, for one): precompute, per (scheme, dictionary) pair, a
**decode table** of ``2**LOOKUP`` entries indexed by the next
``LOOKUP`` stream bits, resolving tag + dictionary index in a single
load -- raw escapes and malformed tags map to sentinel entries.

:class:`BlockDecoder` wraps the tables with a whole-block loop that
keeps the bit cursor in a plain Python int, so a 16-instruction block
is unpacked with no BitReader objects at all.  It serves every
per-block decode (the functional decompressor, the decompression
engine of the timing model) and re-decodes the vector kernel's
malformed lanes for exact errors;
:mod:`repro.codepack.veccodec` lowers the same tables to arrays.  This
module is decode-only: encoding is the vector kernel of
:mod:`repro.codepack.compressor`.  ``tests/codepack/test_differential.py``
holds the decoder to the reference.
"""

from repro.codepack.codewords import RAW_HALFWORD_BITS
from repro.codepack.errors import DecompressionError

#: Bits the decoder peeks per symbol: must cover the longest
#: non-raw codeword (3-bit tag + 8-bit index = 11 for the low stream).
DECODE_LOOKUP_BITS = 11

#: Upper bound on the encoded bits of one instruction (two raw-escaped
#: halfwords); bounds how far a block decode can possibly read.
MAX_INSTRUCTION_BITS = 2 * (3 + RAW_HALFWORD_BITS)


# -- decode tables -----------------------------------------------------------

#: Decode-table entry kinds (``entry[0]``); ``> 0`` means a directly
#: decoded symbol of that bit width.
_KIND_RAW = 0
_KIND_ERROR = -1


def build_decode_table(scheme, dictionary):
    """Build the ``2**DECODE_LOOKUP_BITS``-entry decode table.

    ``table[peek]`` for the next ``DECODE_LOOKUP_BITS`` stream bits is

    * ``(width, value)`` -- a decoded halfword consuming *width* bits;
    * ``(0, raw_tag_bits)`` -- the raw escape: consume the raw tag then
      :data:`RAW_HALFWORD_BITS` literal bits;
    * ``(-1, needed_bits, message)`` -- a malformed codeword
      (unknown tag or dictionary slot past the end); *needed_bits* is
      how many bits the reference decoder reads before noticing, so the
      fast path can reproduce its EOF-versus-error distinction.
    """
    lookup = DECODE_LOOKUP_BITS
    size = 1 << lookup
    table = [None] * size
    dict_len = len(dictionary)
    for peek in range(size):
        tag = peek >> (lookup - 2)
        tag_bits = 2
        if tag == 0b11:
            tag = peek >> (lookup - 3)
            tag_bits = 3
        if tag == scheme.raw_tag and tag_bits == scheme.raw_tag_bits:
            table[peek] = (_KIND_RAW, scheme.raw_tag_bits)
            continue
        if scheme.zero_special and tag == 0b00 and tag_bits == 2:
            table[peek] = (2, 0)
            continue
        try:
            cls = scheme.class_for_tag(tag, tag_bits)
        except KeyError as exc:
            table[peek] = (_KIND_ERROR, tag_bits, str(exc))
            continue
        index_in_class = (peek >> (lookup - tag_bits - cls.index_bits)) \
            & ((1 << cls.index_bits) - 1)
        slot = scheme.entry_of_class(cls, index_in_class)
        if slot >= dict_len:
            table[peek] = (
                _KIND_ERROR, tag_bits + cls.index_bits,
                "dictionary slot %d beyond %s dictionary (%d entries)"
                % (slot, scheme.name, dict_len))
            continue
        table[peek] = (cls.total_bits, dictionary.value(slot))
    return table


class BlockDecoder:
    """Unpacks compression blocks via the decode tables.

    Reads are satisfied from a block-local integer window (the block's
    bytes plus the bounded overrun a decode can reach), with an explicit
    end-of-buffer check against the true end of ``code_bytes`` so
    malformed streams fail with the same typed errors as the reference
    decoder.
    """

    def __init__(self, high_scheme, low_scheme, high_dict, low_dict):
        self._high = build_decode_table(high_scheme, high_dict)
        self._low = build_decode_table(low_scheme, low_dict)

    def decode_block(self, data, byte_offset, n_instructions):
        """Decode *n_instructions* from *data* starting at *byte_offset*.

        Returns ``(words, ends)`` where ``ends[i]`` is the bit offset,
        from the block start, at which instruction *i*'s codewords end.
        """
        lookup = DECODE_LOOKUP_BITS
        mask = (1 << lookup) - 1
        raw_bits = RAW_HALFWORD_BITS
        high_table = self._high
        low_table = self._low

        # A block decode consumes at most MAX_INSTRUCTION_BITS per
        # instruction, so this window bounds every reachable read.
        max_bytes = (MAX_INSTRUCTION_BITS * n_instructions) // 8 + 8
        window = data[byte_offset:byte_offset + max_bytes]
        window_bits = len(window) * 8
        # Bits the reference decoder could legally read from here.
        avail = (len(data) - byte_offset) * 8
        acc = int.from_bytes(window, "big")

        words = []
        ends = []
        pos = 0
        for _ in range(n_instructions):
            word = 0
            for table in (high_table, low_table):
                shift = window_bits - pos - lookup
                peek = (acc >> shift) & mask if shift >= 0 \
                    else (acc << -shift) & mask
                entry = table[peek]
                width = entry[0]
                if width > 0:
                    if pos + width > avail:
                        raise EOFError("bitstream exhausted")
                    word = (word << 16) | entry[1]
                    pos += width
                elif width == _KIND_RAW:
                    total = entry[1] + raw_bits
                    if pos + total > avail:
                        raise EOFError("bitstream exhausted")
                    shift = window_bits - pos - total
                    literal = (acc >> shift) & ((1 << raw_bits) - 1) \
                        if shift >= 0 \
                        else (acc << -shift) & ((1 << raw_bits) - 1)
                    word = (word << 16) | literal
                    pos += total
                else:
                    if pos + entry[1] > avail:
                        raise EOFError("bitstream exhausted")
                    raise DecompressionError(entry[2])
            words.append(word)
            ends.append(pos)
        return words, ends


def decode_raw_block(data, byte_offset, n_instructions):
    """Decode a raw (uncompressed) block: 32-bit big-endian words."""
    end = byte_offset + 4 * n_instructions
    if end > len(data):
        raise EOFError("bitstream exhausted")
    words = []
    ends = []
    for i in range(n_instructions):
        start = byte_offset + 4 * i
        words.append(int.from_bytes(data[start:start + 4], "big"))
        ends.append(32 * (i + 1))
    return words, ends
