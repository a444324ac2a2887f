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

This is the **fast path**: blocks are packed word-at-a-time through the
precomputed codeword tables of :mod:`repro.codepack.fastcodec`.  The
original per-bit encoder survives as
:func:`repro.codepack.reference.compress_words_reference` and the
differential harness keeps the two bit-identical.
"""

from dataclasses import dataclass, field

from repro.codepack.codewords import HIGH_SCHEME, LOW_SCHEME
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.fastcodec import BlockEncoder
from repro.codepack.reference import build_index_entries, encode_halfword
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
    "compress_program",
    "encode_halfword",
]

#: Instructions per compression block (fixed by the paper).
BLOCK_INSTRUCTIONS = 16
#: Blocks per compression group / index entry.
GROUP_BLOCKS = 2
#: Instructions covered by one index entry.
GROUP_INSTRUCTIONS = BLOCK_INSTRUCTIONS * GROUP_BLOCKS
#: Native bits in a full block.
BLOCK_NATIVE_BITS = BLOCK_INSTRUCTIONS * 32


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


def compress_words(words, text_base=0, name="program",
                   high_scheme=None, low_scheme=None,
                   block_instructions=BLOCK_INSTRUCTIONS,
                   group_blocks=GROUP_BLOCKS,
                   high_dict=None, low_dict=None):
    """Compress a list of instruction words into a :class:`CodePackImage`.

    ``block_instructions`` and ``group_blocks`` default to the paper's
    fixed 16 and 2; they are exposed for the ablation studies only.
    Pre-built ``high_dict``/``low_dict`` override the per-program
    frequency build (the paper's load-time adaptation) -- used by the
    generic-dictionary ablation.
    """
    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    if high_dict is None or low_dict is None:
        built_high, built_low = build_dictionaries(
            words, high_scheme=high_scheme, low_scheme=low_scheme)
        high_dict = high_dict or built_high
        low_dict = low_dict or built_low
    encoder = BlockEncoder(high_scheme, low_scheme, high_dict, low_dict)

    blocks = []
    chunks = []
    ct = di = rt = rb = pad = 0
    offset = 0
    for start in range(0, len(words), block_instructions):
        chunk_words = words[start:start + block_instructions]
        data, is_raw, end_bits, block_stats = encoder.encode_block(
            chunk_words)
        blocks.append(BlockInfo(
            index=len(blocks),
            byte_offset=offset,
            byte_length=len(data),
            is_raw=is_raw,
            n_instructions=len(chunk_words),
            inst_end_bits=end_bits,
        ))
        chunks.append(data)
        ct += block_stats[0]
        di += block_stats[1]
        rt += block_stats[2]
        rb += block_stats[3]
        pad += block_stats[4]
        offset += len(data)

    index_entries = build_index_entries(blocks, group_blocks)
    stats = CompositionStats(
        index_table_bits=len(index_entries) * 32,
        dictionary_bits=high_dict.storage_bits + low_dict.storage_bits,
        compressed_tag_bits=ct,
        dictionary_index_bits=di,
        raw_tag_bits=rt,
        raw_bits=rb,
        pad_bits=pad,
    )

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


def compress_program(program, high_scheme=None, low_scheme=None,
                     block_instructions=BLOCK_INSTRUCTIONS,
                     group_blocks=GROUP_BLOCKS,
                     high_dict=None, low_dict=None):
    """Compress a :class:`~repro.isa.program.Program`'s ``.text`` section.

    Encodes through the vector kernel,
    :func:`~repro.codepack.veccodec.compress_words_vec`: byte-identical
    to :func:`compress_words`, which it calls for input it cannot
    represent so that errors match exactly.
    """
    # veccodec builds on this module's types, so it is imported here,
    # after both modules are initialised, not at the top.
    from repro.codepack.veccodec import compress_words_vec

    return compress_words_vec(program.text, text_base=program.text_base,
                              name=program.name, high_scheme=high_scheme,
                              low_scheme=low_scheme,
                              block_instructions=block_instructions,
                              group_blocks=group_blocks,
                              high_dict=high_dict, low_dict=low_dict)
