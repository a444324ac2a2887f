"""On-disk containers for programs and CodePack images.

Two little-endian binary formats with magic headers:

``.ss32`` program image::

    "SS32IMG\\0"  u32 version
    u32 text_base   u32 entry   u32 n_words
    n_words x u32   (instruction words)
    u32 n_data      n_data x (u32 addr, u8 byte)
    u32 sym_len     sym_len bytes of JSON {label: address}
    u32 name_len    name bytes (utf-8)

``.cpk`` CodePack image::

    "CPKIMG\\0\\0"  u32 version
    u32 text_base   u32 n_instructions   u32 original_bytes
    u16 n_high      n_high x u16         (high dictionary)
    u16 n_low       n_low  x u16         (low dictionary)
    u32 n_entries   n_entries x u32      (packed index entries)
    u32 n_blocks    per block: u32 byte_offset, u16 byte_length,
                    u8 flags (bit0 = raw), u8 n_instructions,
                    n_instructions x u16 end_bits
    u32 code_len    code bytes
    7 x u64         composition stats (Table 4 category bit counts)
    u8 block_instructions   u8 group_blocks
    u32 name_len    name bytes (utf-8)

These exist so the CLI tools compose (assemble | compress | run) and so
a compressed image can be shipped to another machine; they are versioned
and refuse to load mismatched magic/version.
"""

import json
import struct
import sys

from repro.codepack.codewords import HIGH_SCHEME, LOW_SCHEME
from repro.codepack.compressor import BlockInfo, CodePackImage
from repro.codepack.dictionary import Dictionary
from repro.codepack.index_table import pack_index_entry, unpack_index_entry
from repro.codepack.stats import CompositionStats
from repro.isa.program import Program

PROGRAM_MAGIC = b"SS32IMG\0"
IMAGE_MAGIC = b"CPKIMG\0\0"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Raised for malformed or mismatched container files."""


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.data):
            raise ContainerError("truncated container")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def text(self):
        """A u32-length-prefixed UTF-8 string."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerError("malformed UTF-8 text") from None


def _check_header(reader, magic):
    if reader.take(len(magic)) != magic:
        raise ContainerError("bad magic (not a %r container)"
                             % magic.rstrip(b"\0").decode())
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise ContainerError("unsupported container version %d" % version)


# -- programs ---------------------------------------------------------------

def dump_program(program):
    """Serialize a :class:`Program` to container bytes."""
    out = [PROGRAM_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    out.append(struct.pack("<III", program.text_base, program.entry,
                           len(program.text)))
    out.append(struct.pack("<%dI" % len(program.text), *program.text))
    data_items = sorted(program.data.items())
    out.append(struct.pack("<I", len(data_items)))
    for addr, byte in data_items:
        out.append(struct.pack("<IB", addr, byte))
    symbols = json.dumps(program.symbols).encode("utf-8")
    out.append(struct.pack("<I", len(symbols)))
    out.append(symbols)
    name = program.name.encode("utf-8")
    out.append(struct.pack("<I", len(name)))
    out.append(name)
    return b"".join(out)


def save_program(path, program):
    """Serialize a :class:`Program` to *path*."""
    with open(path, "wb") as handle:
        handle.write(dump_program(program))


def parse_program(data):
    """Load a :class:`Program` from :func:`dump_program` bytes."""
    reader = _Reader(data)
    _check_header(reader, PROGRAM_MAGIC)
    text_base, entry, n_words = (reader.u32(), reader.u32(), reader.u32())
    words = list(struct.unpack("<%dI" % n_words, reader.take(4 * n_words)))
    data_bytes = {}
    for _ in range(reader.u32()):
        addr = reader.u32()
        data_bytes[addr] = reader.u8()
    try:
        symbols = json.loads(reader.text())
    except json.JSONDecodeError:
        symbols = None
    if not isinstance(symbols, dict) or not all(
            isinstance(addr, int) for addr in symbols.values()):
        raise ContainerError("malformed symbol table")
    name = reader.text()
    return Program(text=words, text_base=text_base, data=data_bytes,
                   symbols=symbols, entry=entry, name=name)


def load_program(path):
    """Load a :class:`Program` written by :func:`save_program`."""
    with open(path, "rb") as handle:
        return parse_program(handle.read())


# -- CodePack images -----------------------------------------------------------

_STATS_FIELDS = ("index_table_bits", "dictionary_bits",
                 "compressed_tag_bits", "dictionary_index_bits",
                 "raw_tag_bits", "raw_bits", "pad_bits")


def dump_image(image):
    """Serialize a :class:`CodePackImage` to container bytes.

    The serialization is canonical: a given image always produces the
    same bytes, which is what lets the serving layer identify images by
    a digest of this encoding.
    """
    out = [IMAGE_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    out.append(struct.pack("<III", image.text_base, image.n_instructions,
                           image.original_bytes))
    for dictionary in (image.high_dict, image.low_dict):
        out.append(struct.pack("<H", len(dictionary)))
        out.append(struct.pack("<%dH" % len(dictionary),
                               *dictionary.entries))
    out.append(struct.pack("<I", len(image.index_entries)))
    for entry in image.index_entries:
        out.append(struct.pack("<I", pack_index_entry(entry)))
    out.append(struct.pack("<I", len(image.blocks)))
    for block in image.blocks:
        out.append(struct.pack("<IHBB", block.byte_offset,
                               block.byte_length, int(block.is_raw),
                               block.n_instructions))
        out.append(struct.pack("<%dH" % block.n_instructions,
                               *block.inst_end_bits))
    out.append(struct.pack("<I", len(image.code_bytes)))
    out.append(image.code_bytes)
    out.append(struct.pack("<7Q", *(getattr(image.stats, f)
                                    for f in _STATS_FIELDS)))
    out.append(struct.pack("<BB", image.block_instructions,
                           image.group_blocks))
    name = image.name.encode("utf-8")
    out.append(struct.pack("<I", len(name)))
    out.append(name)
    return b"".join(out)


def save_image(path, image):
    """Serialize a :class:`CodePackImage` to *path*."""
    with open(path, "wb") as handle:
        handle.write(dump_image(image))


def parse_image(data):
    """Load a :class:`CodePackImage` from :func:`dump_image` bytes."""
    reader = _Reader(data)
    _check_header(reader, IMAGE_MAGIC)
    text_base, n_instructions, original = (reader.u32(), reader.u32(),
                                           reader.u32())
    dictionaries = []
    for scheme in (HIGH_SCHEME, LOW_SCHEME):
        count = reader.u16()
        entries = list(struct.unpack("<%dH" % count, reader.take(2 * count)))
        try:
            dictionaries.append(Dictionary(scheme, entries))
        except ValueError as error:  # e.g. a flipped bit duplicates an entry
            raise ContainerError("malformed dictionary: %s" % error) \
                from None
    index_entries = [unpack_index_entry(reader.u32())
                     for _ in range(reader.u32())]
    blocks = []
    for index in range(reader.u32()):
        byte_offset = reader.u32()
        byte_length = reader.u16()
        is_raw = bool(reader.u8())
        count = reader.u8()
        ends = struct.unpack("<%dH" % count, reader.take(2 * count))
        blocks.append(BlockInfo(index, byte_offset, byte_length, is_raw,
                                count, tuple(ends)))
    code_bytes = reader.take(reader.u32())
    stats = CompositionStats(**dict(zip(
        _STATS_FIELDS, struct.unpack("<7Q", reader.take(56)))))
    block_instructions = reader.u8()
    group_blocks = reader.u8()
    name = reader.text()
    return CodePackImage(
        name=name, text_base=text_base, n_instructions=n_instructions,
        high_dict=dictionaries[0], low_dict=dictionaries[1],
        index_entries=index_entries, code_bytes=code_bytes, blocks=blocks,
        stats=stats, original_bytes=original,
        block_instructions=block_instructions, group_blocks=group_blocks)


def load_image(path):
    """Load a :class:`CodePackImage` written by :func:`save_image`."""
    with open(path, "rb") as handle:
        return parse_image(handle.read())


def load_for_cli(loader, path):
    """``loader(path)`` for a command-line tool; ``None`` if it failed.

    A damaged container (:class:`ContainerError`) or an unreadable
    path (:class:`OSError`) prints one line, ``<path>: <reason>``, on
    stderr instead of a traceback; the tool then returns 1.
    """
    try:
        return loader(path)
    except (ContainerError, OSError) as error:
        reason = getattr(error, "strerror", None) or error
        print("%s: %s" % (path, reason), file=sys.stderr)
        return None
