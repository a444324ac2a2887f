"""Golden: what the workload generators emit, beyond the six suite images.

``tests/workloads/golden/programs.json`` pins the suite programs' text,
data and entry.  ``tests/workloads/golden/generators.json`` adds, per
program:

* ``text`` -- SHA-256 of the text base and ``.text`` words;
* ``data`` -- SHA-256 of the sorted initialised data bytes;
* ``symbols`` -- SHA-256 of the sorted ``name address`` lines;
* ``entry`` -- the entry point;
* ``relocs`` -- SHA-256 of ``data_relocs``;

for the six suite programs at scales 0.02 and 0.1, and for generator
settings the suite never uses: call-heavy variants off a small base
(uniform cold calls, both register profiles, no and frequent leaf
calls, no globals, globals wide enough to empty the diamond range,
fixed and empty body lengths, a non-power-of-two global span, no and
all rare immediates) and both kernels with non-default seeds and
population sizes.  The generators must consume their ``random.Random``
stream draw for draw; a draw taken out of order, a rejection skipped or
a label misplaced changes a digest here even where no simulated cell
reaches the code.  ``TestExactStream`` holds the emitter's draw helper
to ``random.Random`` itself on random seeds.

Regenerate the fixture only with a ``WORKLOAD_VERSION`` bump, from the
repository root::

    PYTHONPATH=src:. python tests/workloads/test_generator_golden.py
"""

import dataclasses
import hashlib
import json
import pathlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    CallHeavyParams,
    _below,
    build_call_heavy,
    build_crypto_kernel,
    build_media_kernel,
)
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

GOLDEN = pathlib.Path(__file__).parent / "golden" / "generators.json"

SCALES = (0.02, 0.1)

BASE = CallHeavyParams(n_funcs=64, hot_funcs=16, cold_threshold=40,
                       iterations=100, cold_window=16, seed=29)

VARIANTS = {
    "base": {},
    "cold_window_0": {"cold_window": 0},
    "reg_flat": {"reg_profile": "flat"},
    "reg_tight": {"reg_profile": "tight"},
    "call_leaf_0": {"call_leaf_pct": 0},
    "call_leaf_16": {"call_leaf_pct": 16},
    "call_leaf_100": {"call_leaf_pct": 100},
    "global_0": {"global_pct": 0},
    "global_40": {"global_pct": 40},
    "body_fixed": {"body_min": 7, "body_max": 7},
    "body_empty": {"body_min": 0, "body_max": 0},
    "global_span_1000": {"global_span": 1000},
    "rare_imm_0": {"rare_imm_pct": 0},
    "rare_imm_100": {"rare_imm_pct": 100},
}


def sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(program):
    """``{exhibit: digest}`` of one built program."""
    data = sorted(program.data.items())
    symbols = "".join("%s %d\n" % item
                      for item in sorted(program.symbols.items()))
    return {
        "text": sha(struct.pack("<I%dI" % len(program.text),
                                program.text_base, *program.text)),
        "data": sha(struct.pack("<%dq" % (2 * len(data)),
                                *[v for item in data for v in item])),
        "symbols": sha(symbols.encode("ascii")),
        "entry": program.entry,
        "relocs": sha(struct.pack("<%dq" % len(program.data_relocs),
                                  *program.data_relocs)),
    }


def programs():
    """``{key: builder}`` for every pinned program."""
    out = {}
    for scale in SCALES:
        for bench in BENCHMARK_NAMES:
            out["%s@%g" % (bench, scale)] = (
                lambda bench=bench, scale=scale: build_benchmark(bench, scale))
    for key, changes in VARIANTS.items():
        params = dataclasses.replace(BASE, **changes)
        out["call_heavy:%s" % key] = (
            lambda params=params: build_call_heavy("variant", params))
    out["media:seed13"] = lambda: build_media_kernel(
        "media", iterations=3, seed=13, dead_funcs=37)
    out["crypto:seed17"] = lambda: build_crypto_kernel(
        "crypto", iterations=50, seed=17, cold_funcs=16, excursion_mask=31,
        dead_funcs=23)
    out["crypto:no_dead"] = lambda: build_crypto_kernel(
        "crypto", iterations=50, seed=19, cold_funcs=4, dead_funcs=0)
    return out


def compute():
    return {key: digests(build()) for key, build in programs().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_program(golden):
    assert sorted(golden) == sorted(programs())


@pytest.mark.parametrize("key", sorted(programs()))
def test_program_matches_golden(golden, key):
    got = digests(programs()[key]())
    bad = ["%s: %s" % (key, name) for name in sorted(golden[key])
           if golden[key][name] != got.get(name)]
    assert not bad, "\n".join(bad)


class TestExactStream:
    """The emitter's draw helper against ``random.Random`` itself."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 2 ** 40),
           draws=st.integers(1, 8))
    def test_below_is_randbelow(self, seed, n, draws):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert _below(ours.getrandbits, n) == theirs._randbelow(n)
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), size=st.integers(1, 300),
           start=st.integers(-50, 50), width=st.integers(1, 300))
    def test_choice_and_randrange(self, seed, size, start, width):
        seq = list(range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert seq[_below(ours.getrandbits, len(seq))] == theirs.choice(seq)
        assert start + _below(ours.getrandbits, width) \
            == theirs.randrange(start, start + width)
        assert ours.random() == theirs.random()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % GOLDEN)
