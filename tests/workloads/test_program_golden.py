"""Golden: the six workload programs, their images and their decode.

``tests/workloads/golden/programs.json`` pins, per benchmark at scales
0.02 and 0.1:

* ``text`` / ``data`` / ``entry`` -- SHA-256 of the ``.text`` words
  (with the text base), SHA-256 of the initialised data, and the entry
  point of the program ``build_benchmark`` makes;
* ``image`` -- SHA-256 of the ``.cpk`` bytes (``dump_image`` of
  ``compress_program``);
* ``static`` -- SHA-256 over every field of every predecoded
  ``StaticInstr``, in text order;
* ``replay_ex`` / ``replay_ops`` / ``next_term`` -- SHA-256 of
  ``ReplayTable.ex``, ``ReplayTable.ops`` and ``BlockTable.next_term``,
  the per-word classification the replay engines and trace recording
  read;

and the rows of Table 3 and Table 4 at scale 0.1.  The grid and stdout
goldens pin only what the simulated cells reach, so a changed word in
unreached code, or a changed classification of one, fails here alone.
A mismatch names the benchmark and the exhibit.

Regenerate the fixture only with a ``WORKLOAD_VERSION``,
``CODEC_VERSION`` or ``SIM_VERSION`` bump, from the repository root::

    PYTHONPATH=src:. python tests/workloads/test_program_golden.py
"""

import hashlib
import json
import pathlib
import struct

import numpy as np
import pytest

from repro.codepack.compressor import compress_program
from repro.eval.experiments import table3, table4
from repro.eval.runner import Workbench
from repro.sim.machine import prepare
from repro.sim.replay import get_block_table, get_replay_table
from repro.tools.container import dump_image
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

GOLDEN = pathlib.Path(__file__).parent / "golden" / "programs.json"

SCALES = (0.02, 0.1)
TABLE_SCALE = 0.1
STATIC_FIELDS = ("addr", "word", "xop", "rs", "rt", "rd", "shamt", "simm",
                 "uimm", "target", "kind", "srcs", "dsts", "fu", "latency",
                 "size", "fall_through", "taken_target")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def int64s(values):
    """Little-endian int64 bytes of a flat or nested integer sequence."""
    return np.asarray(values, dtype="<i8").tobytes()


def exhibits(bench, scale):
    """``{exhibit: digest}`` for one benchmark at one scale."""
    program = build_benchmark(bench, scale)
    static = prepare(program)
    data = sorted(program.data.items())
    rows = "".join(repr(tuple(getattr(st, f) for f in STATIC_FIELDS)) + "\n"
                   for st in static)
    return {
        "text": sha(struct.pack("<I%dI" % len(program.text),
                                program.text_base, *program.text)),
        "data": sha(int64s(data) if data else b""),
        "entry": program.entry,
        "image": sha(dump_image(compress_program(program))),
        "static": sha(rows.encode("ascii")),
        "replay_ex": sha(bytes(get_replay_table(static).ex)),
        "replay_ops": sha(int64s(get_replay_table(static).ops)),
        "next_term": sha(int64s(get_block_table(static).next_term)),
    }


def table_rows(scale):
    """``{exhibit: {bench: row}}`` of Tables 3 and 4, JSON-normalised."""
    wb = Workbench(scale=scale)
    out = {}
    for table in (table3(wb=wb), table4(wb=wb)):
        out[table.exhibit] = {row[0]: json.loads(json.dumps(row[1:]))
                              for row in table.rows}
    return out


def compute():
    return {
        "programs": {"%s@%g" % (bench, scale): exhibits(bench, scale)
                     for scale in SCALES for bench in BENCHMARK_NAMES},
        "tables": table_rows(TABLE_SCALE),
    }


def mismatches(golden, got):
    """One line per ``benchmark: exhibit`` that differs or is missing."""
    lines = []
    for group in ("programs", "tables"):
        want, have = golden[group], got[group]
        for key in sorted(set(want) | set(have)):
            a, b = want.get(key, {}), have.get(key, {})
            for name in sorted(set(a) | set(b)):
                if a.get(name) != b.get(name):
                    where = ("%s: %s" % (key, name) if group == "programs"
                             else "%s: %s" % (name, key))
                    lines.append("%s: golden %r, got %r"
                                 % (where, a.get(name), b.get(name)))
    return lines


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_shape(golden):
    assert len(golden["programs"]) == len(SCALES) * len(BENCHMARK_NAMES)
    for exhibit in ("Table 3", "Table 4"):
        assert sorted(golden["tables"][exhibit]) == sorted(BENCHMARK_NAMES)


def test_programs_and_tables_match_golden(golden):
    bad = mismatches(golden, compute())
    assert not bad, "\n".join(bad)


def test_mismatch_names_benchmark_and_exhibit(golden):
    got = json.loads(json.dumps(golden))
    got["programs"]["cc1@0.1"]["next_term"] = "0" * 64
    got["tables"]["Table 4"]["go"][0] += 1
    assert [line.split(": golden")[0] for line in mismatches(golden, got)] \
        == ["cc1@0.1: next_term", "go: Table 4"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % GOLDEN)
