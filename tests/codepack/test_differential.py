"""Differential harness: the production codec against the per-bit reference.

The encoder (:mod:`repro.codepack.compressor`'s vector kernel) and the
block decoder (:mod:`repro.codepack.fastcodec` behind the
decompressor) must be **bit-exact** against the retained reference
codec (:mod:`repro.codepack.reference`) on every input: same code
bytes, same index table, same per-block geometry, same
:class:`~repro.codepack.stats.CompositionStats`.  Invalid input must
raise the same ``ValueError`` from both encoders.  This file fuzzes
that contract over 500+ randomized programs plus the workload-derived
benchmark suite, including the ablation geometries.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack.batch import compress_many
from repro.codepack.compressor import compress_words
from repro.codepack.decompressor import decompress_program
from repro.codepack.reference import (
    compress_program_reference,
    compress_words_reference,
    decompress_program_reference,
)

from tests.conftest import (
    WORD_DISTRIBUTIONS,
    make_word_program,
    random_word_program,
    random_words,
)

#: Randomized programs fuzzed by the main differential sweep.
N_FUZZ_PROGRAMS = 520


def assert_images_identical(fast, ref):
    """Every observable artifact of the two images must match."""
    assert fast.code_bytes == ref.code_bytes
    assert fast.index_entries == ref.index_entries
    assert fast.stats == ref.stats
    assert fast.blocks == ref.blocks
    assert fast.n_instructions == ref.n_instructions
    assert fast.high_dict.entries == ref.high_dict.entries
    assert fast.low_dict.entries == ref.low_dict.entries


def assert_differential(program, **kwargs):
    """Both encoders build the same image and both decoders invert it;
    returns the reference image."""
    image = compress_words(program.text, name=program.name, **kwargs)
    ref = compress_words_reference(program.text, name=program.name, **kwargs)
    assert_images_identical(image, ref)
    words = list(program.text)
    assert decompress_program(image) == words
    assert decompress_program_reference(ref) == words
    return ref


class TestRandomizedDifferential:
    """The 500+-program fuzz sweep (seeded, hence reproducible)."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_random_programs_bit_exact(self, chunk):
        per_chunk = N_FUZZ_PROGRAMS // 8
        for i in range(per_chunk):
            seed = chunk * per_chunk + i
            program = random_word_program(seed)
            assert_differential(program)

    @pytest.mark.parametrize("kind", WORD_DISTRIBUTIONS)
    def test_each_distribution_at_block_boundaries(self, kind):
        # Sizes straddling block (16) and group (32) boundaries.
        rng = random.Random(hash(kind) & 0xFFFF)
        for size in (0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65):
            program = make_word_program(random_words(rng, size, kind),
                                        name="%s-%d" % (kind, size))
            assert_differential(program)

    def test_parallel_path_matches_fast_and_reference(self):
        for seed in range(40):
            program = random_word_program(seed + 10_000)
            ref = assert_differential(program)
            [batched] = compress_many([program])
            assert_images_identical(batched, ref)


class TestWorkloadDifferential:
    """The six paper benchmarks through both paths."""

    def test_benchmark_programs_bit_exact(self, small_suite):
        for name, program in small_suite.items():
            image = compress_words(program.text, name=program.name,
                                   text_base=program.text_base)
            assert_images_identical(image,
                                    compress_program_reference(program))
            assert decompress_program(image) == list(program.text)

    def test_counting_program_bit_exact(self, counting_program):
        assert_differential(counting_program)

    def test_memory_program_bit_exact(self, memory_program):
        assert_differential(memory_program)


class TestAblationGeometryDifferential:
    """The ablation sweeps vary block/group geometry; the contract
    must hold there too."""

    @pytest.mark.parametrize("block_instructions", [4, 8, 16, 32])
    @pytest.mark.parametrize("group_blocks", [1, 2, 4])
    def test_geometry_bit_exact(self, block_instructions, group_blocks):
        rng = random.Random(block_instructions * 100 + group_blocks)
        for size in (0, 1, block_instructions - 1, block_instructions,
                     block_instructions * group_blocks + 1, 200):
            words = random_words(rng, size, "workload")
            fast = compress_words(words,
                                  block_instructions=block_instructions,
                                  group_blocks=group_blocks)
            ref = compress_words_reference(
                words, block_instructions=block_instructions,
                group_blocks=group_blocks)
            assert_images_identical(fast, ref)
            assert decompress_program(fast) == words


class TestSharedDictionaries:
    """Pre-built dictionaries (the generic-dictionary ablation) must
    flow through both paths identically."""

    def test_foreign_dictionary_bit_exact(self):
        rng = random.Random(99)
        donor = random_words(rng, 300, "workload")
        from repro.codepack.dictionary import build_dictionaries

        high_dict, low_dict = build_dictionaries(donor)
        for seed in range(20):
            words = random_words(random.Random(seed), 150, "workload")
            fast = compress_words(words, high_dict=high_dict,
                                  low_dict=low_dict)
            ref = compress_words_reference(words, high_dict=high_dict,
                                           low_dict=low_dict)
            assert_images_identical(fast, ref)
            assert decompress_program(fast) == words


def _error(encoder, words, **kwargs):
    try:
        encoder(words, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


BAD_WORDS = st.one_of(
    st.integers(min_value=1 << 32, max_value=1 << 70),
    st.integers(max_value=-1, min_value=-(1 << 70)),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                      max_size=40),
       bad=st.lists(st.tuples(st.integers(min_value=0), BAD_WORDS),
                    max_size=3),
       block_instructions=st.sampled_from([-4, -1, 0, 1, 16]),
       group_blocks=st.sampled_from([-1, 0, 1, 2]),
       shared_dictionaries=st.booleans())
def test_invalid_input_same_error_from_both_encoders(
        words, bad, block_instructions, group_blocks, shared_dictionaries):
    """Bad words (out of range, negative, not integers) and geometry
    below 1 raise the same ``ValueError``, with the same message, from
    both encoders -- with and without supplied dictionaries."""
    for position, value in bad:
        words.insert(position % (len(words) + 1), value)
    kwargs = {"block_instructions": block_instructions,
              "group_blocks": group_blocks}
    if shared_dictionaries:
        from repro.codepack.dictionary import build_dictionaries

        kwargs["high_dict"], kwargs["low_dict"] = build_dictionaries(
            [0x24210001, 0x8FBF002C] * 8)
    expected = _error(compress_words_reference, words, **kwargs)
    assert _error(compress_words, words, **kwargs) == expected
    invalid = bad or block_instructions < 1 or group_blocks < 1
    assert (expected is not None) == bool(invalid)
