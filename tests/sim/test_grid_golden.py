"""Per-cell golden: every sweep cell's result pinned to a committed digest.

``tests/sim/golden/grid_cells.json`` maps each cell, named
``bench/arch/mode``, to the SHA-256 of the canonical JSON of its
:class:`~repro.sim.results.SimResult`.  It covers

* ``grid`` -- all 309 cells of the paper sweep at scale 0.02, checked
  through the Workbench two ways: ``sweep`` prefetches the whole grid
  (column kernels, routed passes on the scalar stream kernel), and
  ``per-cell`` prices every cell alone through ``Workbench.run`` (the
  scalar stream kernel on every cell);
* ``capped`` -- cells whose instruction cap falls inside the trace
  (``bench/arch/mode@cap``): cc1 and pegwit, caps 1, 37, 997 and 4999,
  the 1/4/8-issue machines plus the 4-issue shared bus, native,
  CodePack and optimized CodePack.  Each is checked three ways: replay
  of the full-length trace, ``price_cells`` forced onto the kernels,
  and the execute-driven model, the oracle.

The differential suites compare one backend with another; this one
compares every backend with fixed numbers, so a change that moves both
sides at once still fails here, and the failure names the cell and the
backend that moved.

Regenerate the fixture only for a change that is meant to move results,
from the execute-driven model::

    PYTHONPATH=src:. python tests/sim/test_grid_golden.py
"""

import contextlib
import hashlib
import json
import pathlib

import pytest

from repro.codepack.compressor import compress_program
from repro.eval.experiments import (
    ALL_EXPERIMENTS,
    CP_BASELINE,
    CP_OPTIMIZED,
    sweep_cells,
)
from repro.eval.runner import Workbench
from repro.eval.sweep import canonical_json
from repro.sim.config import ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE
from repro.sim.machine import describe_mode, prepare, simulate
from repro.sim.replay import record_trace
from repro.workloads.suite import build_benchmark

GOLDEN = pathlib.Path(__file__).parent / "golden" / "grid_cells.json"

SCALE = 0.02
CAP_BENCHES = ("cc1", "pegwit")
CAPS = (1, 37, 997, 4999)
CAP_ARCHS = (ARCH_1_ISSUE, ARCH_4_ISSUE, ARCH_8_ISSUE,
             ARCH_4_ISSUE.with_shared_bus())
CAP_MODES = (None, CP_BASELINE, CP_OPTIMIZED)


def digest(result):
    payload = canonical_json(result.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def cell_name(bench, arch, codepack, cap=None):
    name = "%s/%s/%s" % (bench, arch.name, describe_mode(codepack))
    return name if cap is None else "%s@%d" % (name, cap)


def grid_digests(per_cell=False, **workbench):
    """Digest of every sweep cell, priced through one Workbench: in one
    prefetch, or with *per_cell* each cell alone through ``run``."""
    wb = Workbench(scale=SCALE, **workbench)
    cells = sweep_cells(list(ALL_EXPERIMENTS), wb=wb)
    if not per_cell:
        wb.prefetch(cells)
    return {cell_name(*cell): digest(wb.run(*cell)) for cell in cells}


def bench_artifacts(bench):
    """``(program, static, image, full-length trace)`` for *bench*."""
    program = build_benchmark(bench, SCALE)
    static = prepare(program)
    return (program, static, compress_program(program),
            record_trace(program, static=static))


def capped_cells():
    """``(bench, cap, arch, codepack)`` for every truncating-cap cell."""
    for bench in CAP_BENCHES:
        for cap in CAPS:
            for arch in CAP_ARCHS:
                for codepack in CAP_MODES:
                    yield bench, cap, arch, codepack


@contextlib.contextmanager
def naming(cells, backend):
    """Turn a crash into a failure that names the cells and backend."""
    try:
        yield
    except Exception as exc:
        raise AssertionError("%s [%s] raised %r" % (cells, backend, exc)) \
            from exc


def capped_digests(artifacts, backend):
    """Digest of every truncating-cap cell on one *backend*."""
    out = {}
    if backend == "price_cells":
        from repro.sim.vecreplay import price_cells

        batches = {}
        for bench, cap, arch, codepack in capped_cells():
            batches.setdefault((bench, cap), []).append((arch, codepack))
        for (bench, cap), cells in batches.items():
            program, static, image, trace = artifacts[bench]
            with naming("%s/*@%d" % (bench, cap), backend):
                priced = price_cells(program, cells, static=static,
                                     trace=trace, image=image,
                                     max_instructions=cap, min_lanes=1)
            for pos, (arch, codepack) in enumerate(cells):
                if pos in priced:
                    out[cell_name(bench, arch, codepack, cap)] = \
                        digest(priced[pos])
        return out
    for bench, cap, arch, codepack in capped_cells():
        program, static, image, trace = artifacts[bench]
        name = cell_name(bench, arch, codepack, cap)
        with naming(name, backend):
            out[name] = digest(simulate(
                program, arch, codepack=codepack,
                image=image if codepack else None, static=static,
                max_instructions=cap,
                replay=trace if backend == "replay" else None))
    return out


def mismatches(golden, got, backend):
    """One line per cell whose digest differs (or is missing)."""
    lines = []
    for name in sorted(set(golden) | set(got)):
        if golden.get(name) != got.get(name):
            lines.append("%s [%s]: golden %s, got %s" % (
                name, backend, golden.get(name, "-")[:12],
                got.get(name, "-")[:12]))
    return lines


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def artifacts():
    return {bench: bench_artifacts(bench) for bench in CAP_BENCHES}


def test_fixture_shape(golden):
    assert len(golden["grid"]) == 309
    assert len(golden["capped"]) == (len(CAP_BENCHES) * len(CAPS)
                                     * len(CAP_ARCHS) * len(CAP_MODES))


@pytest.mark.parametrize("arm", ("sweep", "per-cell"))
def test_grid_matches_golden(golden, arm):
    bad = mismatches(golden["grid"],
                     grid_digests(per_cell=arm == "per-cell"), arm)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("backend", ("replay", "price_cells", "execute"))
def test_capped_cells_match_golden(golden, artifacts, backend):
    bad = mismatches(golden["capped"], capped_digests(artifacts, backend),
                     backend)
    assert not bad, "\n".join(bad)


def regenerate():
    artifacts = {bench: bench_artifacts(bench) for bench in CAP_BENCHES}
    fixture = {
        "scale": SCALE,
        "grid": grid_digests(replay=False),
        "capped": capped_digests(artifacts, "execute"),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
