"""Differential harness: the fast codec against the per-bit reference.

The fast path (:mod:`repro.codepack.fastcodec` driven by the
compressor/decompressor) must be **bit-exact** against the retained
reference codec (:mod:`repro.codepack.reference`) on every input: same
code bytes, same index table, same per-block geometry, same
:class:`~repro.codepack.stats.CompositionStats`.  This file fuzzes that
contract over 500+ randomized programs plus the workload-derived
benchmark suite, including the ablation geometries.
"""

import random

import pytest

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
    fast = compress_words(program.text, name=program.name, **kwargs)
    ref = compress_words_reference(program.text, name=program.name, **kwargs)
    assert_images_identical(fast, ref)
    words = list(program.text)
    assert decompress_program(fast) == words
    assert decompress_program_reference(ref) == words
    return fast


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
            fast = assert_differential(program)
            [batched] = compress_many([program])
            assert_images_identical(batched, fast)


class TestWorkloadDifferential:
    """The six paper benchmarks through both paths."""

    def test_benchmark_programs_bit_exact(self, small_suite):
        for name, program in small_suite.items():
            # compress_program encodes through the vector kernel, so the
            # fast path is called by name.
            fast = compress_words(program.text, name=program.name,
                                  text_base=program.text_base)
            ref = compress_program_reference(program)
            assert_images_identical(fast, ref)
            assert decompress_program(fast) == list(program.text)

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
