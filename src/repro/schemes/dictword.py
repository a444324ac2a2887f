"""Full-instruction dictionary compression (Lefurgy et al., MICRO-30
1997; paper Section 2.3).

Complete 32-bit instructions are replaced by short tagged codewords
indexing a single large dictionary; instructions outside the dictionary
are escaped in full.  The paper notes the scheme "achieves compression
ratios similar to CodePack, but requires a dictionary with several
thousand entries which could increase access time", and that — like
CodePack — the tag-prefixed variable-length codewords permit parallel
extraction.

Codeword classes (tag + index, prefix-free):

===========  =============  =========
tag          index bits     total
===========  =============  =========
``0``        7 (128)        8 bits
``10``       10 (1024)      12 bits
``110``      12 (4096)      15 bits
``111``      32 raw bits    35 bits
===========  =============  =========

Framing reuses CodePack's 16-instruction blocks and 2-block index
groups so the two schemes are compared on identical miss machinery; the
timing model *is* :class:`~repro.sim.codepack_engine.CodePackEngine`,
pointed at a :class:`DictWordImage`.

The codec is table-driven: codewords are packed through a precomputed
word table with whole-block integer shifts, and decoding resolves the
1/2/3-bit tag with a single 3-bit peek.  The encoding is bit-identical
to the original :class:`BitWriter` transcription.
"""

from dataclasses import dataclass

from repro.codepack.compressor import BLOCK_INSTRUCTIONS, GROUP_BLOCKS, BlockInfo
from repro.codepack.reference import build_index_entries
from repro.codepack.stats import CompositionStats
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.sim.codepack_engine import CodePackEngine

#: (tag value, tag bits, index bits), shortest first.
CODEWORD_CLASSES = ((0b0, 1, 7), (0b10, 2, 10), (0b110, 3, 12))
RAW_TAG, RAW_TAG_BITS = 0b111, 3
RAW_BITS = 32

#: Total dictionary capacity ("several thousand entries").
DICTIONARY_CAPACITY = sum(1 << bits for _, _, bits in CODEWORD_CLASSES)
#: Bits per stored dictionary entry (a full instruction).
DICT_ENTRY_BITS = 32

#: Field width of one packed per-symbol composition-stat counter.  Each
#: field holds a per-*block* bit count (at most ``block_instructions *
#: 35`` bits), so 20 bits leaves orders of magnitude of headroom even
#: for the ablation sweeps' largest block sizes.
_STAT_SHIFT = 20
_STAT_MASK = (1 << _STAT_SHIFT) - 1


def _pack_stats(compressed_tag, dictionary_index, raw_tag, raw):
    """Pack the four per-symbol stat contributions into one int, so the
    encoder accumulates all of them with one addition."""
    return ((compressed_tag << (3 * _STAT_SHIFT))
            | (dictionary_index << (2 * _STAT_SHIFT))
            | (raw_tag << _STAT_SHIFT)
            | raw)


def _class_of_slot(slot):
    base = 0
    for tag, tag_bits, index_bits in CODEWORD_CLASSES:
        capacity = 1 << index_bits
        if slot < base + capacity:
            return tag, tag_bits, index_bits, slot - base
        base += capacity
    raise IndexError(slot)


def _slot_cost_bits(slot):
    tag, tag_bits, index_bits, _ = _class_of_slot(slot)
    return tag_bits + index_bits


def _build_tag_table():
    """3-bit-peek decode table: ``table[peek3]`` is ``(tag_bits,
    index_bits, slot_base)`` for dictionary classes or ``None`` for the
    raw escape.  Every 3-bit value resolves (the class set is complete),
    so block decoding needs one peek per instruction."""
    table = [None] * 8
    base = 0
    for tag, tag_bits, index_bits in CODEWORD_CLASSES:
        for low in range(1 << (3 - tag_bits)):
            table[(tag << (3 - tag_bits)) | low] = (tag_bits, index_bits, base)
        base += 1 << index_bits
    return tuple(table)


_TAG_TABLE = _build_tag_table()

#: Longest codeword one instruction can produce (the raw escape).
_MAX_CODEWORD_BITS = RAW_TAG_BITS + RAW_BITS


def _build_word_table(dictionary):
    """Map instruction word -> ``(code, width, packed_stats)``.

    ``code`` is the ready-to-pack codeword (tag and index merged) and
    ``packed_stats`` the symbol's :class:`CompositionStats` contributions
    in :data:`_STAT_SHIFT`-bit fields.  Raw escapes are added lazily by
    the encoder as they are first met."""
    table = {}
    slot = 0
    n = len(dictionary)
    for tag, tag_bits, index_bits in CODEWORD_CLASSES:
        if slot >= n:
            break
        tag_shifted = tag << index_bits
        total = tag_bits + index_bits
        stat = _pack_stats(tag_bits, index_bits, 0, 0)
        for index_in_class in range(min(1 << index_bits, n - slot)):
            table[dictionary[slot]] = (tag_shifted | index_in_class,
                                       total, stat)
            slot += 1
    return table


@dataclass
class DictWordImage:
    """A dictionary-compressed image, interface-compatible with
    :class:`~repro.codepack.compressor.CodePackImage` for the engine."""

    name: str
    text_base: int
    n_instructions: int
    dictionary: list  # slot -> 32-bit instruction word
    index_entries: list
    code_bytes: bytes
    blocks: list
    stats: CompositionStats
    original_bytes: int
    block_instructions: int = BLOCK_INSTRUCTIONS
    group_blocks: int = GROUP_BLOCKS

    def __post_init__(self):
        self._slot_of = {word: i for i, word in enumerate(self.dictionary)}

    @property
    def compressed_bytes(self):
        return self.stats.total_bytes

    @property
    def compression_ratio(self):
        if not self.original_bytes:
            return 1.0  # empty program: no meaningful ratio
        return self.compressed_bytes / float(self.original_bytes)

    @property
    def n_blocks(self):
        return len(self.blocks)

    def slot(self, word):
        return self._slot_of.get(word)

    def block_of_address(self, addr):
        index = (addr - self.text_base) \
            // (self.block_instructions * INSTRUCTION_BYTES)
        if not 0 <= index < len(self.blocks):
            raise IndexError("address %#x outside compressed text" % addr)
        return index

    def block_base_address(self, block_index):
        return self.text_base \
            + block_index * self.block_instructions * INSTRUCTION_BYTES


def _build_dictionary(words):
    """Frequency-ranked full-instruction dictionary with profitable
    admission (slot cost vs the 35-bit raw escape, counting storage)."""
    from collections import Counter

    ranked = sorted(Counter(words).items(),
                    key=lambda pair: (-pair[1], pair[0]))
    entries = []
    for word, count in ranked:
        slot = len(entries)
        if slot >= DICTIONARY_CAPACITY:
            break
        encoded = _slot_cost_bits(slot)
        saving = count * (RAW_TAG_BITS + RAW_BITS - encoded)
        if saving <= DICT_ENTRY_BITS:
            break
        entries.append(word)
    return entries


def compress_dictword(program, block_instructions=BLOCK_INSTRUCTIONS,
                      group_blocks=GROUP_BLOCKS):
    """Compress a program with the full-word dictionary scheme."""
    words = program.text
    dictionary = _build_dictionary(words)
    table = _build_word_table(dictionary)
    raw_code_base = RAW_TAG << RAW_BITS
    raw_width = RAW_TAG_BITS + RAW_BITS
    raw_stat = _pack_stats(0, 0, RAW_TAG_BITS, RAW_BITS)

    blocks = []
    chunks = []
    ct = di = rt = rb = pd = 0
    offset = 0
    for start in range(0, len(words), block_instructions):
        chunk = words[start:start + block_instructions]
        acc = 0
        nbits = 0
        packed = 0
        ends = []
        append = ends.append
        for word in chunk:
            entry = table.get(word)
            if entry is None:
                if not 0 <= word < (1 << RAW_BITS):
                    raise ValueError(
                        "value %d does not fit in %d bits" % (word, RAW_BITS))
                entry = table[word] = (raw_code_base | word, raw_width,
                                       raw_stat)
            code, width, stat = entry
            acc = (acc << width) | code
            nbits += width
            packed += stat
            append(nbits)
        pad = (8 - nbits % 8) % 8
        if nbits + pad > len(chunk) * 32:
            payload = b"".join(w.to_bytes(4, "big") for w in chunk)
            blocks.append(BlockInfo(len(blocks), offset, len(payload), True,
                                    len(chunk),
                                    tuple(32 * (i + 1)
                                          for i in range(len(chunk)))))
            rb += len(chunk) * 32
        else:
            payload = (acc << pad).to_bytes((nbits + pad) // 8, "big")
            blocks.append(BlockInfo(len(blocks), offset, len(payload), False,
                                    len(chunk), tuple(ends)))
            ct += (packed >> (3 * _STAT_SHIFT)) & _STAT_MASK
            di += (packed >> (2 * _STAT_SHIFT)) & _STAT_MASK
            rt += (packed >> _STAT_SHIFT) & _STAT_MASK
            rb += packed & _STAT_MASK
            pd += pad
        chunks.append(payload)
        offset += len(payload)

    index_entries = build_index_entries(blocks, group_blocks)
    stats = CompositionStats(
        index_table_bits=len(index_entries) * 32,
        dictionary_bits=len(dictionary) * DICT_ENTRY_BITS,
        compressed_tag_bits=ct,
        dictionary_index_bits=di,
        raw_tag_bits=rt,
        raw_bits=rb,
        pad_bits=pd,
    )

    return DictWordImage(
        name=program.name,
        text_base=program.text_base,
        n_instructions=len(words),
        dictionary=dictionary,
        index_entries=index_entries,
        code_bytes=b"".join(chunks),
        blocks=blocks,
        stats=stats,
        original_bytes=len(words) * INSTRUCTION_BYTES,
        block_instructions=block_instructions,
        group_blocks=group_blocks,
    )


def decompress_dictword_block(image, block_index):
    """Functionally decode one block back to instruction words.

    Table-driven: a single 3-bit peek resolves the tag (see
    :data:`_TAG_TABLE`), then the index or raw literal is extracted from
    a block-local integer window in one shift -- no per-bit reads.
    """
    block = image.blocks[block_index]
    data = image.code_bytes
    byte_offset = block.byte_offset
    n = block.n_instructions
    if block.is_raw:
        end = byte_offset + 4 * n
        if end > len(data):
            raise EOFError("bitstream exhausted")
        return [int.from_bytes(data[byte_offset + 4 * i:byte_offset + 4 * i + 4],
                               "big") for i in range(n)]

    tag_table = _TAG_TABLE
    dictionary = image.dictionary
    max_bytes = (_MAX_CODEWORD_BITS * n) // 8 + 8
    window = data[byte_offset:byte_offset + max_bytes]
    window_bits = len(window) * 8
    avail = (len(data) - byte_offset) * 8
    acc = int.from_bytes(window, "big")

    words = []
    pos = 0
    for _ in range(n):
        shift = window_bits - pos - 3
        peek3 = (acc >> shift) & 0b111 if shift >= 0 else (acc << -shift) & 0b111
        entry = tag_table[peek3]
        if entry is None:  # raw escape
            total = RAW_TAG_BITS + RAW_BITS
            if pos + total > avail:
                raise EOFError("bitstream exhausted")
            shift = window_bits - pos - total
            words.append((acc >> shift) & 0xFFFFFFFF)
            pos += total
        else:
            tag_bits, index_bits, slot_base = entry
            total = tag_bits + index_bits
            if pos + total > avail:
                raise EOFError("bitstream exhausted")
            shift = window_bits - pos - total
            index = (acc >> shift) & ((1 << index_bits) - 1) if shift >= 0 \
                else (acc << -shift) & ((1 << index_bits) - 1)
            words.append(dictionary[slot_base + index])
            pos += total
    return words


def decompress_dictword(image):
    """Decode the whole image back to the original ``.text`` words."""
    words = []
    for block_index in range(len(image.blocks)):
        words.extend(decompress_dictword_block(image, block_index))
    return words


class DictWordEngine(CodePackEngine):
    """The timing model: identical miss machinery to CodePack.

    A :class:`DictWordImage` exposes the same block/group/geometry
    interface, so the engine (index path, burst read, serial decode,
    output buffer) is inherited unchanged -- which is the right model:
    the paper groups both schemes as tag-prefixed variable-length
    encodings with equivalent extraction hardware.
    """

    def decode_block(self, block_index):
        """Functional decode through the dictword tag table."""
        return decompress_dictword_block(self.image, block_index)
