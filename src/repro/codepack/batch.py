"""Batch compression/decompression: one vectorized kernel call per batch.

The eval harness compresses six benchmark programs (and the ablation
sweeps recompress them dozens of times with varied geometry), and the
serve tier decodes windows of compression groups that may span several
images.  Each entry point here hands its whole batch to the vectorized
kernels of :mod:`repro.codepack.veccodec` in one call -- one kernel
invocation per batch rather than one Python loop iteration per
codeword.  Outputs are byte-identical to the scalar codec (the
three-way differential suite asserts it).
"""

from repro.codepack import veccodec

__all__ = ["compress_many", "decompress_many", "decode_groups_batch"]


def compress_many(programs, **kwargs):
    """Compress several programs; returns images in input order.

    *programs* may be :class:`~repro.isa.program.Program` objects or
    plain lists of instruction words.  The batch runs one fused encode
    pass when it shares dictionaries, one kernel invocation per program
    otherwise.  Keyword arguments are forwarded to
    :func:`~repro.codepack.veccodec.compress_many_vec`.
    """
    return veccodec.compress_many_vec(list(programs), **kwargs)


def decompress_many(images):
    """Decompress several images; returns word lists in input order.

    The whole batch decodes in one vectorized kernel pass (every
    compressed block is a lane), mirroring
    :func:`~repro.codepack.decompressor.decompress_program` including
    its instruction-count integrity check.
    """
    return veccodec.decompress_many_vec(list(images))


def decode_groups_batch(requests):
    """Decode many ``(image, group_index)`` pairs; one kernel pass.

    The serve tier's micro-batcher collects a window of group decodes
    (possibly spanning several registered images) and hands them here
    as one batch; all groups decode in a single vectorized pass over
    the concatenated bitstreams.

    Returns one entry per request: the group's instruction words as a
    tuple, or the exception that group's decode raised (captured, not
    raised, so one corrupt group cannot fail a whole batch).
    """
    block_sets = []
    for image, group_index in requests:
        first = group_index * image.group_blocks
        last = min(first + image.group_blocks, image.n_blocks)
        block_sets.append((image, range(first, last)))
    return [result if isinstance(result, Exception) else tuple(result)
            for result in veccodec.decode_block_sets_vec(block_sets)]
