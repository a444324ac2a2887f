"""``python -m repro.tools.densify`` -- translate a program to SS16.

Produces the dense 16/32-bit mixed binary (see docs/FORMATS.md §5) and
prints the translation census; optionally verifies the emitted bits by
decoding them back.

Examples::

    python -m repro.tools.densify prog.ss32 -o prog.ss16
    python -m repro.tools.densify prog.ss32 -o prog.ss16 --verify
"""

import argparse
import sys

from repro.isa16.encoding16 import assemble_mixed, verify_mixed_encoding
from repro.isa16.translator import translate
from repro.tools.container import load_for_cli, load_program


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.densify",
        description="Translate a .ss32 program to the SS16 dense "
                    "encoding.")
    parser.add_argument("program", help=".ss32 image path")
    parser.add_argument("-o", "--output", required=True,
                        help="output path for the raw SS16 text bytes")
    parser.add_argument("--line-bytes", type=int, default=32,
                        help="I-cache line size used for straddle "
                             "padding (default 32)")
    parser.add_argument("--verify", action="store_true",
                        help="decode the emitted bytes and check them "
                             "against the translation")
    args = parser.parse_args(argv)

    program = load_for_cli(load_program, args.program)
    if program is None:
        return 1
    try:
        mixed = translate(program, line_bytes=args.line_bytes)
    except ValueError as error:
        print("cannot translate: %s" % error, file=sys.stderr)
        return 1
    data = assemble_mixed(mixed)
    with open(args.output, "wb") as handle:
        handle.write(data)

    stats = mixed.stats
    print("%s: %d -> %d bytes (size ratio %.1f%%) -> %s"
          % (program.name, program.text_size, mixed.text_size,
             100 * mixed.size_ratio, args.output))
    print("  %d source instructions: %d half, %d expanded (x2), "
          "%d word, %d alignment nops, %d branches demoted"
          % (stats.n_source, stats.n_half, stats.n_expanded,
             stats.n_word, stats.n_align_nops, stats.demoted_branches))
    print("  entry %#x -> %#x" % (program.entry, mixed.entry))

    if args.verify:
        checked = verify_mixed_encoding(mixed)
        print("  verified: %d instructions decode back exactly"
              % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
