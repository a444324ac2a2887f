"""Golden: the rendered text of ``python -m repro.eval`` at scale 0.02.

``tests/eval/golden/all_scale0.02.txt`` and
``extensions_scale0.02.txt`` hold the stdout of ``python -m repro.eval
all --scale 0.02`` and ``python -m repro.eval extensions --scale 0.02``
with the ``[<exhibit> regenerated in <seconds>s]`` timing lines
removed.  The per-cell grid golden pins what the simulator returns;
this one pins what the exhibits make of it -- workload programs,
compression ratios, table layout and notes included -- so a change
that moves any printed digit fails here, and the failure names the
first exhibit that differs.

Regenerate the files only with a ``WORKLOAD_VERSION``,
``CODEC_VERSION`` or ``SIM_VERSION`` bump, from the repository root::

    PYTHONPATH=src:. python tests/eval/test_stdout_golden.py
"""

import contextlib
import io
import pathlib
import re

import pytest

from repro.eval.__main__ import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SCALE = "0.02"
#: Exhibit set -> golden file.
GOLDENS = {"all": GOLDEN_DIR / "all_scale0.02.txt",
           "extensions": GOLDEN_DIR / "extensions_scale0.02.txt"}

TIMING = re.compile(r"^\[(\w+) regenerated in [0-9.]+s\]$")


def exhibit_lines(out):
    """``(exhibit, line)`` for every line of *out* but the timing lines.

    Each exhibit's text ends with its timing line, which names it.
    """
    lines = []
    pending = []
    for line in out.splitlines():
        match = TIMING.match(line)
        if match:
            lines.extend((match.group(1), text) for text in pending)
            pending = []
        else:
            pending.append(line)
    lines.extend(("(after the last exhibit)", text) for text in pending)
    return lines


def render(exhibits):
    """``main``'s stdout for *exhibits* at the golden scale."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([exhibits, "--scale", SCALE]) == 0
    return out.getvalue()


@pytest.mark.parametrize("exhibits", sorted(GOLDENS))
def test_stdout_matches_golden(exhibits):
    got = exhibit_lines(render(exhibits))
    want = GOLDENS[exhibits].read_text().splitlines()
    for number, (exhibit, line) in enumerate(got):
        expected = want[number] if number < len(want) else None
        if line != expected:
            pytest.fail("%s: exhibit %s differs from %s at line %d:\n"
                        "  golden: %r\n  got:    %r"
                        % (exhibits, exhibit, GOLDENS[exhibits].name,
                           number + 1, expected, line))
    assert len(got) == len(want), (
        "%s: output ends after line %d; %s has %d lines"
        % (exhibits, len(got), GOLDENS[exhibits].name, len(want)))


def regenerate():
    for exhibits, path in GOLDENS.items():
        text = "".join(line + "\n"
                       for _, line in exhibit_lines(render(exhibits)))
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)


if __name__ == "__main__":
    regenerate()
