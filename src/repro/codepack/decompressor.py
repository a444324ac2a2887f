"""The functional CodePack decoder (fast path).

This is the software model of paper Figure 1 step C: given the
compressed bytes of one block and the two dictionaries, reconstruct the
original 32-bit instructions.  The hardware timing aspects (burst
arrival, decode rate, output buffer) live in
:mod:`repro.sim.codepack_engine`; this module only cares about bit-exact
correctness and is what the round-trip tests exercise.

Decoding is table-driven: a per-image :class:`~repro.codepack.fastcodec.
BlockDecoder` resolves each codeword with a single ``2**11``-entry
lookup instead of the reference decoder's field-by-field bit reads.  The
decoder is cached on the image (keyed by dictionary identity, so
swapping an image's dictionaries invalidates it) and is proven
bit-identical to :mod:`repro.codepack.reference` by the differential
test harness.
"""

from repro.codepack.errors import DecompressionError
from repro.codepack.fastcodec import BlockDecoder, decode_raw_block

__all__ = [
    "DecompressionError",
    "decoder_for_image",
    "decompress_block",
    "decompress_program",
    "iter_block_symbols",
]


def decoder_for_image(image):
    """The image's cached :class:`BlockDecoder`, (re)built on demand.

    The decode tables depend only on the image's schemes and
    dictionaries; the cache is invalidated when either dictionary
    object is replaced (the corruption tests do exactly that).
    """
    cache = getattr(image, "_fast_decoder", None)
    if cache is not None and cache[0] is image.high_dict \
            and cache[1] is image.low_dict:
        return cache[2]
    decoder = BlockDecoder(image.high_scheme, image.low_scheme,
                           image.high_dict, image.low_dict)
    image._fast_decoder = (image.high_dict, image.low_dict, decoder)
    return decoder


def _decode_block(image, block_index):
    """Decode one block; returns ``(words, end_bit_offsets)``."""
    block = image.blocks[block_index]
    if block.is_raw:
        return decode_raw_block(image.code_bytes, block.byte_offset,
                                block.n_instructions)
    return decoder_for_image(image).decode_block(
        image.code_bytes, block.byte_offset, block.n_instructions)


def iter_block_symbols(image, block_index):
    """Yield ``(instruction_word, end_bit_offset)`` for one block.

    ``end_bit_offset`` is measured from the start of the block's bytes;
    for raw blocks it advances 32 bits per instruction.  This is the
    decode loop the hardware engine performs serially, so the timing
    model shares it.
    """
    words, ends = _decode_block(image, block_index)
    return iter(zip(words, ends))


def decompress_block(image, block_index):
    """Decode one compression block back to instruction words."""
    return _decode_block(image, block_index)[0]


def decompress_program(image):
    """Decode the whole image back to the original ``.text`` words."""
    words = []
    for block_index in range(image.n_blocks):
        words.extend(decompress_block(image, block_index))
    if len(words) != image.n_instructions:
        raise DecompressionError(
            "decoded %d instructions, expected %d"
            % (len(words), image.n_instructions))
    return words
