"""Codec throughput: how fast the software implementation itself runs.

Unlike the exhibit benches (one round, table output), these use
pytest-benchmark's statistics properly: several rounds of pure
compression / decompression work over the same real program, reporting
MB/s-style numbers for the library's own users.

The ``fast path`` benchmarks exercise the scalar table-driven codec
(:mod:`repro.codepack.fastcodec`, reached by name as ``compress_words``
and ``decompress_program``: ``compress_program`` encodes through the
vector kernel); the ``reference`` benchmarks time the retained per-bit
oracle (:mod:`repro.codepack.reference`), and
``test_fast_path_speedup`` pins the contract that the fast path beats
it by >= 3x for both compression and decompression.
``test_vec_batch_speedup`` pins the next tier: the vectorized batch
kernels (:mod:`repro.codepack.veccodec`) must decompress a batch of
real images >= 5x faster than the scalar fast path.  Both write their
rows into ``BENCH_codec.json``.
"""

import os
import time

import pytest

from repro.codepack.compressor import compress_words
from repro.codepack.decompressor import decompress_program
from repro.codepack.reference import (
    compress_program_reference,
    decompress_program_reference,
)
from repro.schemes.ccrp import compress_ccrp, decompress_ccrp
from repro.schemes.dictword import compress_dictword, decompress_dictword
from repro.tools.benchinfo import write_report

REPORT_PATH = os.environ.get("BENCH_CODEC_JSON", "BENCH_codec.json")


@pytest.fixture(scope="module")
def program(wb):
    return wb.program("perl")


def _compress_scalar(program):
    return compress_words(program.text, text_base=program.text_base,
                          name=program.name)


def test_codepack_compress_throughput(benchmark, program):
    image = benchmark(_compress_scalar, program)
    assert image.compression_ratio < 0.7


def test_codepack_decompress_throughput(benchmark, program, wb):
    image = wb.image("perl")
    words = benchmark(decompress_program, image)
    assert words == program.text


def test_codepack_reference_compress_throughput(benchmark, program):
    image = benchmark(compress_program_reference, program)
    assert image.compression_ratio < 0.7


def test_codepack_reference_decompress_throughput(benchmark, program, wb):
    image = wb.image("perl")
    words = benchmark(decompress_program_reference, image)
    assert words == program.text


def _best_of(f, rounds):
    times = []
    for _ in range(rounds):
        begin = time.perf_counter()
        f()
        times.append(time.perf_counter() - begin)
    return min(times)


def test_fast_path_speedup(wb):
    """The headline contract: >= 3x over the reference codec, both
    directions, on a real benchmark program (vortex, the largest).

    Plain best-of-N wall timing rather than the ``benchmark`` fixture so
    the assertion also runs under ``--benchmark-disable`` smoke runs.
    """
    program = wb.program("vortex")
    image = _compress_scalar(program)
    reference_image = compress_program_reference(program)
    assert image.code_bytes == reference_image.code_bytes

    compress_fast = _best_of(lambda: _compress_scalar(program), 5)
    compress_ref = _best_of(lambda: compress_program_reference(program), 3)
    decompress_fast = _best_of(lambda: decompress_program(image), 5)
    decompress_ref = _best_of(
        lambda: decompress_program_reference(reference_image), 3)

    compress_speedup = compress_ref / compress_fast
    decompress_speedup = decompress_ref / decompress_fast
    print("\ncompress  %.1fms vs %.1fms reference: %.2fx"
          % (compress_fast * 1e3, compress_ref * 1e3, compress_speedup))
    print("decompress %.1fms vs %.1fms reference: %.2fx"
          % (decompress_fast * 1e3, decompress_ref * 1e3,
             decompress_speedup))
    write_report(REPORT_PATH, {"fast_path": {
        "benchmark": "vortex",
        "compress_seconds": compress_fast,
        "compress_reference_seconds": compress_ref,
        "compress_speedup": compress_speedup,
        "decompress_seconds": decompress_fast,
        "decompress_reference_seconds": decompress_ref,
        "decompress_speedup": decompress_speedup,
    }})
    assert compress_speedup >= 3.0
    assert decompress_speedup >= 3.0


def test_vec_batch_speedup(wb):
    """The batch-kernel contract: the vectorized codec decompresses a
    batch of real benchmark images >= 5x faster than the scalar fast
    path program by program, with byte-identical outputs (compress rows
    are reported too, uncontracted -- both arms build dictionaries the
    same way).

    Best-of-N wall timing, same rationale as ``test_fast_path_speedup``.
    The floor is overridable via ``BENCH_VEC_MIN_SPEEDUP`` for
    constrained CI machines.
    """
    from repro.codepack.batch import compress_many, decompress_many

    floor = float(os.environ.get("BENCH_VEC_MIN_SPEEDUP", "5.0"))
    names = ["perl", "vortex", "go", "cc1"]
    programs = [wb.program(name) for name in names]
    images = [wb.image(name) for name in names]

    vec_images = compress_many(programs)
    for image, vec_image in zip(images, vec_images):
        assert image.code_bytes == vec_image.code_bytes
    vec_words = decompress_many(images)
    assert vec_words == [list(p.text) for p in programs]

    decompress_vec = _best_of(lambda: decompress_many(images), 5)
    decompress_scalar = _best_of(
        lambda: [decompress_program(image) for image in images], 3)
    compress_vec = _best_of(lambda: compress_many(programs), 3)
    compress_scalar = _best_of(
        lambda: [_compress_scalar(program) for program in programs], 3)

    decompress_speedup = decompress_scalar / decompress_vec
    compress_speedup = compress_scalar / compress_vec
    total_words = sum(len(p.text) for p in programs)
    print("\nbatch decompress %.1fms vs %.1fms scalar: %.2fx (%d words)"
          % (decompress_vec * 1e3, decompress_scalar * 1e3,
             decompress_speedup, total_words))
    print("batch compress   %.1fms vs %.1fms scalar: %.2fx"
          % (compress_vec * 1e3, compress_scalar * 1e3, compress_speedup))
    write_report(REPORT_PATH, {"vec_batch": {
        "benchmarks": names,
        "total_words": total_words,
        "decompress_seconds": decompress_vec,
        "decompress_scalar_seconds": decompress_scalar,
        "decompress_speedup": decompress_speedup,
        "compress_seconds": compress_vec,
        "compress_scalar_seconds": compress_scalar,
        "compress_speedup": compress_speedup,
        "min_speedup": floor,
    }})
    assert decompress_speedup >= floor


def test_dictionary_build_throughput(benchmark, program):
    from repro.codepack.dictionary import build_dictionaries
    high, low = benchmark(build_dictionaries, program.text)
    assert len(high) > 0 and len(low) > 0


def test_ccrp_compress_throughput(benchmark, program):
    image = benchmark(compress_ccrp, program)
    assert image.compression_ratio < 1.0


def test_ccrp_decompress_throughput(benchmark, program):
    image = compress_ccrp(program)
    data = benchmark(decompress_ccrp, image)
    assert data == program.text_bytes()


def test_dictword_compress_throughput(benchmark, program):
    image = benchmark(compress_dictword, program)
    assert image.compression_ratio < 0.8


def test_dictword_decompress_throughput(benchmark, program):
    image = compress_dictword(program)
    words = benchmark(decompress_dictword, image)
    assert words == program.text


def test_simulator_throughput(benchmark, wb):
    """Instructions simulated per second on the 4-issue OoO model."""
    from repro.sim import ARCH_4_ISSUE, simulate
    program = wb.program("pegwit")
    static = wb.static("pegwit")

    result = benchmark.pedantic(
        lambda: simulate(program, ARCH_4_ISSUE, static=static),
        rounds=3, iterations=1)
    assert result.instructions > 0
