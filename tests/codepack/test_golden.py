"""Golden bitstream regression tests.

``tests/codepack/golden/*.json`` pin the exact compressed artifacts --
code bytes, index table, and composition stats -- of a set of fixed
programs.  Any change to the bitstream layout, dictionary construction,
codeword allocation, or stat accounting shows up here as a byte-for-byte
diff, separating "intentional format change" (regenerate the fixtures,
review the diff) from "accidental corruption" (fix the codec).

Both encoders are held to the same goldens: the vector kernel and the
per-bit reference -- including the kernel's fused shared-dictionary
batch path, which ``golden/batch_shared.json`` pins program-by-program
-- and both decoders must invert them.  A drift in either encoder's
bytes fails here by name.

Regenerate after an intentional format change with::

    PYTHONPATH=src:. python tests/codepack/test_golden.py
"""

import json
import pathlib

import pytest

from repro.codepack import veccodec
from repro.codepack.compressor import compress_many, compress_words
from repro.codepack.decompressor import decompress_program
from repro.codepack.dictionary import build_dictionaries
from repro.codepack.reference import compress_words_reference

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

STAT_FIELDS = (
    "index_table_bits",
    "dictionary_bits",
    "compressed_tag_bits",
    "dictionary_index_bits",
    "raw_tag_bits",
    "raw_bits",
    "pad_bits",
)


def golden_programs():
    """The pinned inputs: deterministic word lists of varied shape."""
    from tests.conftest import (
        make_counting_program,
        make_static_program,
        random_words,
    )
    import random

    programs = {
        "counting": make_counting_program().text,
        "static100": make_static_program(100).text,
        # Mid-group tail: 3 blocks = 1.5 groups.
        "tail48minus1": random_words(random.Random(101), 47, "workload"),
        "zero_low": random_words(random.Random(202), 80, "zero_low"),
        "incompressible": random_words(random.Random(303), 64,
                                       "incompressible"),
        "empty": [],
    }
    return programs


def image_record(image):
    return {
        "code_hex": image.code_bytes.hex(),
        "index_entries": [[e.block1_base, e.block2_offset,
                           e.block1_raw, e.block2_raw]
                          for e in image.index_entries],
        "stats": {f: getattr(image.stats, f) for f in STAT_FIELDS},
        "n_instructions": image.n_instructions,
        "high_dict": list(image.high_dict.entries),
        "low_dict": list(image.low_dict.entries),
        "blocks": [[b.byte_offset, b.byte_length, b.is_raw,
                    b.n_instructions] for b in image.blocks],
    }


def batch_shared_programs():
    """The fused-batch fixture inputs: ragged programs, one dictionary.

    The shapes are chosen to exercise the fused kernel's span handling
    in one batch: an empty program, a sub-block tail, exact block and
    group multiples, a mid-group tail, and an incompressible stretch
    that forces whole-block raw escapes.
    """
    from tests.conftest import random_words
    import random

    rng = random.Random(404)
    programs = [
        [],
        random_words(rng, 7, "workload"),
        random_words(rng, 16, "zero_low"),
        random_words(rng, 32, "incompressible"),
        random_words(rng, 47, "workload"),
        random_words(rng, 3, "repetitive"),
    ]
    donor = [word for program in programs for word in program]
    return programs, build_dictionaries(donor)


def _implementations(words, name, high_dict=None, low_dict=None):
    """Each encoder's compression of *words*, labelled."""
    kwargs = {"name": name, "high_dict": high_dict, "low_dict": low_dict}
    return [("compress_words", compress_words(words, **kwargs)),
            ("reference", compress_words_reference(words, **kwargs))]


@pytest.mark.parametrize("name", sorted(golden_programs()))
def test_golden_bitstream(name):
    path = GOLDEN_DIR / ("%s.json" % name)
    golden = json.loads(path.read_text())
    words = golden["words"]
    assert golden_programs()[name] == words, \
        "golden input drifted; regenerate fixtures"

    for label, image in _implementations(words, name):
        record = image_record(image)
        for key, expected in golden["image"].items():
            assert record[key] == expected, \
                "%s path diverged from golden %s: %s" % (label, name, key)
        assert decompress_program(image) == words
        assert veccodec.decompress_program_vec(image) == words


def test_golden_batch_shared_dictionary():
    """The fused batch path is pinned program-by-program.

    Each program's image must match its committed record whether it was
    compressed alone (either encoder) or as part of the single fused
    shared-dictionary kernel pass.
    """
    golden = json.loads((GOLDEN_DIR / "batch_shared.json").read_text())
    programs, (high_dict, low_dict) = batch_shared_programs()
    assert [list(p) for p in programs] == golden["programs"], \
        "golden input drifted; regenerate fixtures"

    per_program = []
    for i, words in enumerate(programs):
        per_program.append(
            _implementations(words, "batch%d" % i,
                             high_dict=high_dict, low_dict=low_dict))
    fused = compress_many(programs, high_dict=high_dict, low_dict=low_dict)
    for i, image in enumerate(fused):
        per_program[i].append(("compress_many-fused", image))

    for i, impls in enumerate(per_program):
        expected = golden["images"][i]
        for label, image in impls:
            assert image_record(image) == expected, \
                "%s diverged from golden batch program %d" % (label, i)


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, words in golden_programs().items():
        image = compress_words(words, name=name)
        ref = compress_words_reference(words, name=name)
        record = image_record(image)
        assert record == image_record(ref), "encoder != reference during regen"
        path = GOLDEN_DIR / ("%s.json" % name)
        path.write_text(json.dumps({"words": words, "image": record},
                                   indent=1) + "\n")
        print("wrote", path)

    programs, (high_dict, low_dict) = batch_shared_programs()
    records = []
    for i, words in enumerate(programs):
        image = compress_words(words, name="batch%d" % i,
                               high_dict=high_dict, low_dict=low_dict)
        ref = compress_words_reference(words, name="batch%d" % i,
                                       high_dict=high_dict,
                                       low_dict=low_dict)
        record = image_record(image)
        assert record == image_record(ref), "encoder != reference during regen"
        records.append(record)
    path = GOLDEN_DIR / "batch_shared.json"
    path.write_text(json.dumps(
        {"programs": [list(p) for p in programs], "images": records},
        indent=1) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    regenerate()
