"""Tests for the batch compression/decompression API."""

import pytest

from repro.codepack.batch import compress_many, decompress_many
from repro.codepack.compressor import compress_words
from repro.codepack.decompressor import DecompressionError

from tests.conftest import make_word_program, random_word_program


def _image_key(image):
    return (image.code_bytes, tuple(image.index_entries), image.stats,
            tuple(image.blocks))


@pytest.fixture(scope="module")
def fuzz_programs():
    return [random_word_program(seed + 20_000) for seed in range(12)]


class TestCompressMany:
    def test_program_objects_in_input_order(self, fuzz_programs):
        images = compress_many(fuzz_programs)
        assert [im.name for im in images] \
            == [p.name for p in fuzz_programs]
        for program, image in zip(fuzz_programs, images):
            assert _image_key(image) \
                == _image_key(compress_words(program.text, name=program.name))

    def test_plain_word_lists(self):
        word_lists = [p.text for p in
                      (random_word_program(s + 40_000) for s in range(4))]
        images = compress_many(word_lists)
        for words, image in zip(word_lists, images):
            assert _image_key(image) == _image_key(compress_words(words))

    def test_kwargs_forwarded(self, fuzz_programs):
        images = compress_many(fuzz_programs[:3], block_instructions=8)
        for image in images:
            assert image.block_instructions == 8

    def test_geometry_overrides_flow_through(self):
        program = random_word_program(31_337, size=150)
        sequential = compress_words(program.text, block_instructions=8,
                                    group_blocks=4)
        [batched] = compress_many([program.text], block_instructions=8,
                                  group_blocks=4)
        assert _image_key(batched) == _image_key(sequential)


class TestDecompressMany:
    def test_roundtrip_in_order(self, fuzz_programs):
        images = compress_many(fuzz_programs)
        decoded = decompress_many(images)
        assert decoded == [list(p.text) for p in fuzz_programs]

    def test_integrity_check(self):
        program = make_word_program(list(range(100, 150)))
        image = compress_words(program.text)
        image.n_instructions += 1  # corrupt the declared count
        with pytest.raises(DecompressionError):
            decompress_many([image])
