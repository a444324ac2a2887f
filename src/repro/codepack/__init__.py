"""CodePack instruction compression (the paper's primary subject).

CodePack compresses a 32-bit RISC ``.text`` section by splitting every
instruction into two 16-bit halfword symbols and replacing each symbol
with a tagged variable-length codeword looked up in one of two
program-specific dictionaries.  Instructions are grouped into
16-instruction *compression blocks* (the decompression granularity) and
pairs of blocks form *compression groups*, each described by one 32-bit
entry in an *index table* that maps native cache-miss addresses into the
compressed address space.

This package implements the complete codec plus the size accounting the
paper reports in Tables 3 and 4:

* :mod:`repro.codepack.bitstream` -- MSB-first bit-level I/O
* :mod:`repro.codepack.codewords` -- the tag/index codeword classes
* :mod:`repro.codepack.dictionary` -- frequency-driven dictionary build
* :mod:`repro.codepack.compressor` -- block/group/index-table encoder
  (the table-driven fast path)
* :mod:`repro.codepack.decompressor` -- the functional decoder (fast)
* :mod:`repro.codepack.fastcodec` -- precomputed codeword tables the
  fast paths share
* :mod:`repro.codepack.reference` -- the retained per-bit codec, the
  oracle for the differential test harness
* :mod:`repro.codepack.batch` -- multi-program / multi-group batch API
* :mod:`repro.codepack.index_table` -- index entry packing
* :mod:`repro.codepack.stats` -- bit-exact composition breakdown
"""

#: Codec behaviour version.  Bump whenever the compressed image format,
#: dictionary construction or codeword assignment changes in a way that
#: alters compression output, so persistently cached simulation results
#: (see :mod:`repro.eval.sweep`) are invalidated.
CODEC_VERSION = 1

from repro.codepack.batch import compress_many, decompress_many
from repro.codepack.bitstream import BitReader, BitWriter
from repro.codepack.codewords import (
    HIGH_SCHEME,
    LOW_SCHEME,
    RAW_HALFWORD_BITS,
    CodewordScheme,
)
from repro.codepack.compressor import (
    BLOCK_INSTRUCTIONS,
    GROUP_BLOCKS,
    GROUP_INSTRUCTIONS,
    BlockInfo,
    CodePackImage,
    compress_program,
)
from repro.codepack.decompressor import (
    DecompressionError,
    decompress_block,
    decompress_program,
    iter_block_symbols,
)
from repro.codepack.dictionary import Dictionary, build_dictionaries
from repro.codepack.index_table import IndexEntry, pack_index_entry, unpack_index_entry
from repro.codepack.reference import (
    compress_program_reference,
    compress_words_reference,
    decompress_block_reference,
    decompress_program_reference,
)
from repro.codepack.stats import CompositionStats

__all__ = [
    "BLOCK_INSTRUCTIONS",
    "CODEC_VERSION",
    "BitReader",
    "BitWriter",
    "BlockInfo",
    "CodePackImage",
    "CodewordScheme",
    "CompositionStats",
    "DecompressionError",
    "Dictionary",
    "GROUP_BLOCKS",
    "GROUP_INSTRUCTIONS",
    "HIGH_SCHEME",
    "IndexEntry",
    "LOW_SCHEME",
    "RAW_HALFWORD_BITS",
    "build_dictionaries",
    "compress_many",
    "compress_program",
    "compress_program_reference",
    "compress_words_reference",
    "decompress_block",
    "decompress_block_reference",
    "decompress_many",
    "decompress_program",
    "decompress_program_reference",
    "iter_block_symbols",
    "pack_index_entry",
    "unpack_index_entry",
]
