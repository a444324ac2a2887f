"""``python -m repro.tools.disasm`` -- disassemble a .ss32 image.

Examples::

    python -m repro.tools.disasm prog.ss32
    python -m repro.tools.disasm prog.ss32 --start 0x400010 --count 8
"""

import argparse
import sys

from repro.isa.disassembler import disassemble_word
from repro.tools.container import load_for_cli, load_program


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.disasm",
        description="Disassemble a .ss32 program image.")
    parser.add_argument("image", help=".ss32 image path")
    parser.add_argument("--start", type=lambda v: int(v, 0), default=None,
                        help="first address to list (default: text base)")
    parser.add_argument("--count", type=int, default=None,
                        help="number of instructions (default: all)")
    parser.add_argument("--no-symbols", action="store_true",
                        help="suppress label annotations")
    args = parser.parse_args(argv)

    program = load_for_cli(load_program, args.image)
    if program is None:
        return 1
    labels = {}
    if not args.no_symbols:
        for name, addr in program.symbols.items():
            labels.setdefault(addr, []).append(name)

    start = args.start if args.start is not None else program.text_base
    begin = program.word_index(start)
    end = len(program.text) if args.count is None \
        else min(len(program.text), begin + args.count)
    addr = program.text_base + 4 * begin
    for word in program.text[begin:end]:
        for label in sorted(labels.get(addr, ())):
            print("%s:" % label)
        print("  %08x:  %08x  %s"
              % (addr, word, disassemble_word(word, addr)))
        addr += 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
