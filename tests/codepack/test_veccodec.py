"""Three-way differential harness for the vectorized codec kernels.

:mod:`repro.codepack.veccodec` is the third codec tier; its contract is
the same as the fast path's, one level up: **byte-identical** compressed
images and **word-identical** decodes against both
:mod:`repro.codepack.reference` (the per-bit oracle) and
:mod:`repro.codepack.fastcodec` (the scalar table-driven tier), on every
input -- the full workload corpus, adversarial shapes (mid-group tails,
zero-instruction programs, empty images, single-codeword groups,
max-length raw escapes), Hypothesis-generated programs, ragged batches,
and a checked-in regression corpus pinned by container digest.  Error
behaviour must match too: malformed bitstreams raise the same exception
types with the same messages through either tier.
"""

import dataclasses
import hashlib
import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codepack import batch, veccodec
from repro.codepack.compressor import compress_words
from repro.codepack.decompressor import decompress_program
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.reference import (
    compress_program_reference,
    compress_words_reference,
    decompress_program_reference,
)
from repro.codepack.veccodec import (
    compress_many_vec,
    compress_words_vec,
    decode_block_sets_vec,
    decompress_many_vec,
    decompress_program_vec,
)
from repro.serve.batcher import decode_group
from repro.tools.container import dump_image

from tests.codepack.test_differential import assert_images_identical
from tests.conftest import (
    WORD_DISTRIBUTIONS,
    make_word_program,
    random_word_program,
    random_words,
)

CORPUS_PATH = pathlib.Path(__file__).parent / "veccodec_corpus.json"


def assert_three_way(words, **kwargs):
    """All three tiers emit the same image; all three decode it back."""
    words = list(words)
    vec = compress_words_vec(words, **kwargs)
    fast = compress_words(words, **kwargs)
    ref = compress_words_reference(words, **kwargs)
    assert_images_identical(vec, fast)
    assert_images_identical(vec, ref)
    assert decompress_program_vec(vec) == words
    assert decompress_program(fast) == words
    assert decompress_program_reference(ref) == words
    return vec


class TestRandomizedDifferential:
    """Seeded fuzz sweep, all three tiers."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_programs_bit_exact(self, chunk):
        for i in range(30):
            program = random_word_program(chunk * 30 + i + 50_000)
            assert_three_way(program.text, name=program.name)

    @pytest.mark.parametrize("kind", WORD_DISTRIBUTIONS)
    def test_each_distribution_at_block_boundaries(self, kind):
        rng = random.Random(hash(kind) & 0xFFFF)
        for size in (0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65):
            assert_three_way(random_words(rng, size, kind))


class TestWorkloadDifferential:
    """The six paper benchmarks through the vector kernels."""

    def test_benchmark_programs_bit_exact(self, small_suite):
        for name, program in small_suite.items():
            vec = compress_words_vec(program.text, name=program.name,
                                     text_base=program.text_base)
            # compress_program encodes through the vector kernel, so the
            # scalar tier is called by name.
            fast = compress_words(program.text, name=program.name,
                                  text_base=program.text_base)
            ref = compress_program_reference(program)
            assert_images_identical(vec, fast)
            assert_images_identical(vec, ref)
            assert decompress_program_vec(vec) == list(program.text)

    def test_counting_program_bit_exact(self, counting_program):
        assert_three_way(counting_program.text)

    def test_memory_program_bit_exact(self, memory_program):
        assert_three_way(memory_program.text)


class TestAdversarialShapes:
    """The geometry and escape edges the kernels must not round off."""

    def test_zero_instruction_program(self):
        image = assert_three_way([])
        assert image.code_bytes == b""
        assert decompress_many_vec([image]) == [[]]

    def test_empty_image_inside_batch(self):
        progs = [[], random_words(random.Random(1), 20, "workload"), []]
        images = [compress_words(p) for p in progs]
        assert decompress_many_vec(images) == progs

    def test_single_codeword_groups(self):
        words = random_words(random.Random(2), 9, "workload")
        assert_three_way(words, block_instructions=1, group_blocks=1)

    def test_mid_group_tails(self):
        rng = random.Random(3)
        for size in (17, 33, 47, 63):
            assert_three_way(random_words(rng, size, "workload"))

    def test_max_length_escapes_stay_packed(self):
        # 12 dictionary hits keep the block under the raw threshold, so
        # the 19-bit (3-bit tag + 16-bit literal) escapes in both
        # halves are packed, not absorbed into a whole-block raw.
        words = [0x24420001] * 12 + [0xABCD1234, 0x5678EF01,
                                     0x13579BDF, 0x2468ACE0]
        image = assert_three_way(words)
        assert not any(block.is_raw for block in image.blocks)
        assert image.stats.raw_tag_bits > 0

    def test_whole_block_raw_escapes(self):
        words = random_words(random.Random(4), 48, "incompressible")
        image = assert_three_way(words)
        assert any(block.is_raw for block in image.blocks)

    @pytest.mark.parametrize("block_instructions", [1, 4, 16, 32])
    @pytest.mark.parametrize("group_blocks", [1, 2, 4])
    def test_ablation_geometry(self, block_instructions, group_blocks):
        rng = random.Random(block_instructions * 10 + group_blocks)
        for size in (0, 1, block_instructions,
                     block_instructions * group_blocks + 1, 100):
            assert_three_way(random_words(rng, size, "workload"),
                             block_instructions=block_instructions,
                             group_blocks=group_blocks)

    @pytest.mark.parametrize("group_blocks", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 7, 8, 9])
    def test_index_entries_vec_matches_scalar(self, group_blocks,
                                              n_blocks):
        # The vectorized index builder against the shared scalar oracle
        # over synthetic geometries: ragged tails, raw flags in both
        # slots, single-block groups.
        from repro.codepack.compressor import BlockInfo
        from repro.codepack.reference import build_index_entries
        from repro.codepack.veccodec import _index_entries_vec

        rng = random.Random(group_blocks * 100 + n_blocks)
        lengths = [rng.randrange(1, 70) for _ in range(n_blocks)]
        offsets = [sum(lengths[:i]) for i in range(n_blocks)]
        raws = [rng.random() < 0.4 for _ in range(n_blocks)]
        blocks = [BlockInfo(index=i, byte_offset=offsets[i],
                            byte_length=lengths[i], is_raw=raws[i],
                            n_instructions=4, inst_end_bits=())
                  for i in range(n_blocks)]
        assert _index_entries_vec(
            np.asarray(offsets, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64),
            np.asarray(raws, dtype=bool), group_blocks,
        ) == build_index_entries(blocks, group_blocks)


class TestBatchKernels:
    """The multi-program entry points: fused encode, one-pass decode."""

    def ragged_programs(self):
        rng = random.Random(5)
        sizes = (0, 1, 16, 17, 150, 3, 64, 0, 33)
        return [random_words(rng, n, kind)
                for n, kind in zip(sizes, (WORD_DISTRIBUTIONS * 3))]

    def test_fused_shared_dictionary_batch(self):
        progs = self.ragged_programs()
        pool = [w for p in progs for w in p]
        high_dict, low_dict = build_dictionaries(pool)
        fused = compress_many_vec(progs, high_dict=high_dict,
                                  low_dict=low_dict)
        for program, image in zip(progs, fused):
            scalar = compress_words(program, high_dict=high_dict,
                                    low_dict=low_dict)
            assert_images_identical(image, scalar)

    def test_per_program_dictionary_batch(self):
        progs = self.ragged_programs()
        for program, image in zip(progs, compress_many_vec(progs)):
            assert_images_identical(image, compress_words(program))

    def test_batch_of_one(self):
        words = random_words(random.Random(6), 40, "workload")
        [image] = compress_many_vec([words])
        assert_images_identical(image, compress_words(words))
        assert decompress_many_vec([image]) == [words]

    def test_decompress_many_matches_scalar(self):
        progs = self.ragged_programs()
        images = [compress_words(p) for p in progs]
        assert decompress_many_vec(images) == progs
        assert decompress_many_vec(images) == \
            [decompress_program(image) for image in images]

    def test_batch_entry_points_route_identically(self):
        progs = self.ragged_programs()
        vec_images = batch.compress_many(progs)
        scalar_images = [compress_words(p) for p in progs]
        for vec_image, scalar_image in zip(vec_images, scalar_images):
            assert_images_identical(vec_image, scalar_image)
        assert batch.decompress_many(vec_images) == \
            [decompress_program(image) for image in scalar_images]

    def test_decode_groups_batch_parity(self):
        progs = self.ragged_programs()
        images = [compress_words(p) for p in progs if p]
        requests = [(image, group) for image in images
                    for group in range(image.n_groups)]
        vec = batch.decode_groups_batch(requests)
        scalar = [tuple(decode_group(image, group))
                  for image, group in requests]
        assert vec == scalar
        assert all(isinstance(words, tuple) for words in vec)

    def test_decode_block_sets_mixed_images(self):
        a = compress_words(random_words(random.Random(7), 90, "workload"))
        b = compress_words(random_words(random.Random(8), 50, "zero_low"))
        c = compress_words(random_words(random.Random(9), 48,
                                        "incompressible"))
        requests = [(a, range(a.n_blocks)), (c, range(c.n_blocks)),
                    (b, range(b.n_blocks)), (a, [0]), (c, [0, 1])]
        results = decode_block_sets_vec(requests)
        from repro.codepack.decompressor import decompress_block
        for (image, indices), words in zip(requests, results):
            expected = []
            for index in indices:
                expected.extend(decompress_block(image, index))
            assert words == expected


class TestErrorParity:
    """Malformed streams raise identical errors through either tier."""

    def _image(self):
        return compress_words(
            random_words(random.Random(10), 120, "workload"))

    @staticmethod
    def _error(func, *args):
        try:
            func(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    def test_truncated_stream(self):
        image = self._image()
        for cut in (0, 1, len(image.code_bytes) // 2):
            bad = dataclasses.replace(image, code_bytes=image.code_bytes[:cut])
            assert self._error(decompress_program_vec, bad) == \
                self._error(decompress_program, bad) != None  # noqa: E711

    def test_foreign_undersized_dictionary(self):
        image = self._image()
        high, low = build_dictionaries(
            random_words(random.Random(11), 6, "repetitive"))
        bad = dataclasses.replace(image, high_dict=high, low_dict=low)
        assert self._error(decompress_program_vec, bad) == \
            self._error(decompress_program, bad) != None  # noqa: E711

    def test_corrupt_group_is_isolated_in_batch(self):
        good = self._image()
        bad = dataclasses.replace(
            good, code_bytes=good.code_bytes[:len(good.code_bytes) // 3])
        requests = [(good, 0), (bad, good.n_groups - 1), (good, 1)]
        results = batch.decode_groups_batch(requests)
        assert results[0] == tuple(decode_group(good, 0))
        assert results[2] == tuple(decode_group(good, 1))
        assert isinstance(results[1], Exception)
        assert (type(results[1]), str(results[1])) == \
            self._error(decode_group, bad, good.n_groups - 1)


class TestRegressionCorpus:
    """The checked-in corpus: cross-impl equality plus digest pinning."""

    def cases(self):
        return json.loads(CORPUS_PATH.read_text())

    def test_corpus_cases_three_way(self):
        for case in self.cases():
            image = assert_three_way(
                case["words"],
                block_instructions=case["block_instructions"],
                group_blocks=case["group_blocks"])
            digest = hashlib.sha256(dump_image(image)).hexdigest()
            assert digest == case["cpk_sha256"], \
                "corpus case %r drifted" % case["name"]

    def test_corpus_covers_the_adversarial_shapes(self):
        names = {case["name"] for case in self.cases()}
        assert {"empty", "mid-group-tail-17", "single-codeword-group",
                "whole-block-raw", "max-length-escape-both-halves"} <= names


word = st.integers(min_value=0, max_value=0xFFFFFFFF)
word_lists = st.lists(word, max_size=120)


@settings(max_examples=50, deadline=None)
@given(words=word_lists)
def test_hypothesis_roundtrip_vec(words):
    image = compress_words_vec(words)
    assert decompress_program_vec(image) == words


@settings(max_examples=40, deadline=None)
@given(words=word_lists)
def test_hypothesis_three_way_equivalence(words):
    assert_three_way(words)


@settings(max_examples=25, deadline=None)
@given(words=word_lists,
       block_instructions=st.sampled_from([1, 4, 16, 32]),
       group_blocks=st.sampled_from([1, 2, 4]))
def test_hypothesis_geometry_equivalence(words, block_instructions,
                                         group_blocks):
    assert_three_way(words, block_instructions=block_instructions,
                     group_blocks=group_blocks)


@settings(max_examples=25, deadline=None)
@given(batch_programs=st.lists(st.lists(word, max_size=40), max_size=6),
       dict_seed=st.integers(min_value=0, max_value=2**16))
def test_hypothesis_ragged_batches(batch_programs, dict_seed):
    """Batches of any raggedness (including empty programs and a batch
    of one) match the scalar tier, with and without shared dicts."""
    images = compress_many_vec(batch_programs)
    for program, image in zip(batch_programs, images):
        assert_images_identical(image, compress_words(program))
    assert decompress_many_vec(images) == batch_programs

    donor = random_words(random.Random(dict_seed), 60, "workload")
    high_dict, low_dict = build_dictionaries(donor)
    fused = compress_many_vec(batch_programs, high_dict=high_dict,
                              low_dict=low_dict)
    for program, image in zip(batch_programs, fused):
        assert_images_identical(
            image, compress_words(program, high_dict=high_dict,
                                  low_dict=low_dict))


@settings(max_examples=25, deadline=None)
@given(entries=st.integers(min_value=0, max_value=300),
       seed=st.integers(min_value=0, max_value=2**16))
def test_hypothesis_dictionary_sizes(entries, seed):
    """Dictionaries of any fill level (empty through overflowing every
    size class) drive identical codewords through all tiers."""
    rng = random.Random(seed)
    donor = [rng.getrandbits(32) for _ in range(entries)]
    high_dict, low_dict = build_dictionaries(donor)
    words = random_words(rng, 50, "workload")
    assert_three_way(words, high_dict=high_dict, low_dict=low_dict)
