"""``python -m repro.tools.codepack`` -- compress / inspect / verify.

Subcommands::

    compress  prog.ss32 -o prog.cpk     CodePack-compress a program
    inspect   prog.cpk                  size breakdown + geometry
    verify    prog.ss32 prog.cpk        decompress and compare
"""

import argparse
import sys

from repro.codepack.compressor import compress_program
from repro.codepack.decompressor import decompress_program
from repro.tools.container import (
    load_for_cli,
    load_image,
    load_program,
    save_image,
)


def _cmd_compress(args):
    program = load_for_cli(load_program, args.program)
    if program is None:
        return 1
    image = compress_program(program)
    save_image(args.output, image)
    print("%s: %d -> %d bytes (ratio %.1f%%) -> %s"
          % (program.name, image.original_bytes, image.compressed_bytes,
             100 * image.compression_ratio, args.output))
    return 0


def _cmd_inspect(args):
    image = load_for_cli(load_image, args.image)
    if image is None:
        return 1
    print("CodePack image %r" % image.name)
    print("  native text: %d instructions (%d bytes) at %#x"
          % (image.n_instructions, image.original_bytes, image.text_base))
    print("  compressed:  %d bytes, ratio %.1f%%"
          % (image.compressed_bytes, 100 * image.compression_ratio))
    print("  geometry:    %d blocks of %d instructions, %d index entries"
          % (image.n_blocks, image.block_instructions, image.n_groups))
    print("  dictionaries: %d high / %d low halfword entries"
          % (len(image.high_dict), len(image.low_dict)))
    raw_blocks = sum(1 for block in image.blocks if block.is_raw)
    sizes = [block.byte_length for block in image.blocks]
    if sizes:
        print("  blocks:      min %dB / avg %.1fB / max %dB, %d stored raw"
              % (min(sizes), sum(sizes) / len(sizes), max(sizes), raw_blocks))
    print("  composition (paper Table 4 categories):")
    for key, value in image.stats.fractions().items():
        print("    %-22s %6.2f%%" % (key.replace("_bits", ""),
                                     100 * value))
    return 0


def _cmd_verify(args):
    program = load_for_cli(load_program, args.program)
    if program is None:
        return 1
    image = load_for_cli(load_image, args.image)
    if image is None:
        return 1
    decoded = decompress_program(image)
    if decoded != program.text:
        first = next((i for i, (a, b) in
                      enumerate(zip(decoded, program.text)) if a != b),
                     None)
        if first is None:
            # One is a prefix of the other: only the lengths differ.
            print("MISMATCH: image decodes %d instructions, program has %d"
                  % (len(decoded), len(program.text)), file=sys.stderr)
        else:
            print("MISMATCH at instruction %d (%#x): %08x != %08x"
                  % (first, program.text_base + 4 * first,
                     decoded[first], program.text[first]), file=sys.stderr)
        return 1
    print("OK: %d instructions decompress identically"
          % image.n_instructions)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.codepack",
        description="CodePack compression utility (cf. IBM's CodePack "
                    "PowerPC Code Compression Utility).")
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a .ss32 program")
    compress.add_argument("program")
    compress.add_argument("-o", "--output", required=True)
    compress.set_defaults(func=_cmd_compress)

    inspect = sub.add_parser("inspect", help="describe a .cpk image")
    inspect.add_argument("image")
    inspect.set_defaults(func=_cmd_inspect)

    verify = sub.add_parser("verify",
                            help="check an image against its program")
    verify.add_argument("program")
    verify.add_argument("image")
    verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
