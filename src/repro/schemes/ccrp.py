"""CCRP: the Compressed Code RISC Processor scheme (paper Section 2.2).

Wolfe & Chanin (MICRO-25, 1992) and Kozuch & Wolfe (ICCD 1994)
Huffman-code each instruction-cache line byte-wise at compile time; at
run time missed lines are decompressed into the I-cache, and a **Line
Address Table (LAT)** maps native line addresses to compressed
locations.  The paper positions CodePack against CCRP on three axes we
model faithfully:

* symbol granularity -- CCRP codes 4 one-byte symbols per instruction
  where CodePack codes 2 halfwords, so CCRP decodes more symbols per
  instruction;
* serial decode -- "The decoding process in CCRP is history-based which
  serializes the decoding process.  Decoding 4 symbols per instruction
  is likely to impact decompression time significantly";
* per-line framing -- compression blocks are single cache lines, so
  there is no cross-line prefetch like CodePack's output buffer, but
  the translation table needs an entry per line (CCRP's size weakness:
  overall ratio ~73% on MIPS vs CodePack's ~60%).
"""

from dataclasses import dataclass, field

from repro.codepack.stats import CompositionStats
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.schemes.huffman import CanonicalHuffman, histogram_of_bytes
from repro.sim.fetch import LineFill

#: Bytes per compressed unit (one I-cache line).
LINE_BYTES = 32
#: Lines covered by one compacted LAT entry (Kozuch & Wolfe's CLAT
#: packs a base address plus per-line lengths).
LAT_GROUP_LINES = 8
#: Bits per LAT entry: a 32-bit byte base plus eight 8-bit compressed
#: line lengths (length 64+ marks a raw line) = 96 bits for 8 lines.
LAT_ENTRY_BITS = 96
#: Bytes fetched from main memory per LAT lookup.
LAT_ENTRY_BYTES = LAT_ENTRY_BITS // 8


@dataclass(frozen=True)
class CcrpLine:
    """Geometry of one compressed line in the code region.

    ``byte_end_bits[j]`` is the bit offset at which source byte *j*'s
    codeword ends, measured from the line's start -- the timing model's
    equivalent of CodePack's per-instruction boundaries.
    """

    index: int
    byte_offset: int
    byte_length: int
    is_raw: bool
    n_bytes: int
    byte_end_bits: tuple


@dataclass
class CcrpImage:
    """A CCRP-compressed program image."""

    name: str
    text_base: int
    n_instructions: int
    code: CanonicalHuffman
    lines: list
    code_bytes: bytes
    stats: CompositionStats
    original_bytes: int
    line_bytes: int = LINE_BYTES

    @property
    def compressed_bytes(self):
        return self.stats.total_bytes

    @property
    def compression_ratio(self):
        if not self.original_bytes:
            return 1.0  # empty program: no meaningful ratio
        return self.compressed_bytes / float(self.original_bytes)

    def line_of_address(self, addr):
        index = (addr - self.text_base) // self.line_bytes
        if not 0 <= index < len(self.lines):
            raise IndexError("address %#x outside compressed text" % addr)
        return index

    def line_base_address(self, index):
        return self.text_base + index * self.line_bytes


def compress_ccrp(program, line_bytes=LINE_BYTES):
    """Huffman-compress *program*'s ``.text`` line-wise, CCRP style.

    The per-line loop packs codewords from a 256-entry table with
    whole-line integer shifts (table-driven, like dictword's encoder);
    output is bit-identical to the original
    :class:`~repro.codepack.bitstream.BitWriter` transcription.
    """
    data = program.text_bytes()
    # A zero-instruction program has no byte histogram; give the code a
    # one-symbol alphabet so the image is well-formed (no lines follow).
    code = CanonicalHuffman(histogram_of_bytes(data) if data else {0: 1})
    # Indexable codeword table: every byte value occurring in *data* is
    # in the alphabet by construction.
    byte_codes = [code.table.get(value) for value in range(256)]
    lines = []
    chunks = []
    stats = CompositionStats()
    offset = 0
    for start in range(0, len(data), line_bytes):
        source = data[start:start + line_bytes]
        acc = 0
        nbits = 0
        ends = []
        append = ends.append
        for byte in source:
            codeword, length = byte_codes[byte]
            acc = (acc << length) | codeword
            nbits += length
            append(nbits)
        pad = (8 - nbits % 8) % 8
        if nbits + pad > len(source) * 8:
            # Raw escape: an incompressible line is stored verbatim.
            payload = bytes(source)
            lines.append(CcrpLine(len(lines), offset, len(payload), True,
                                  len(source),
                                  tuple(8 * (j + 1)
                                        for j in range(len(source)))))
            stats.raw_bits += len(source) * 8
        else:
            payload = (acc << pad).to_bytes((nbits + pad) // 8, "big")
            lines.append(CcrpLine(len(lines), offset, len(payload), False,
                                  len(source), tuple(ends)))
            # Huffman output has no tag/index split; count codeword bits
            # as dictionary indices and the pad explicitly.
            stats.dictionary_index_bits += nbits
            stats.pad_bits += pad
        chunks.append(payload)
        offset += len(payload)
    n_entries = -(-len(lines) // LAT_GROUP_LINES)
    stats.index_table_bits = n_entries * LAT_ENTRY_BITS
    stats.dictionary_bits = code.storage_bits
    return CcrpImage(
        name=program.name,
        text_base=program.text_base,
        n_instructions=len(program),
        code=code,
        lines=lines,
        code_bytes=b"".join(chunks),
        stats=stats,
        original_bytes=len(data),
        line_bytes=line_bytes,
    )


def decompress_ccrp_line(image, index):
    """Decode one line back to bytes (the refill path, functionally)."""
    line = image.lines[index]
    if line.is_raw:
        return image.code_bytes[line.byte_offset:
                                line.byte_offset + line.byte_length]
    return bytes(image.code.decode(
        image.code_bytes, line.n_bytes, bit_offset=line.byte_offset * 8))


def decompress_ccrp(image):
    """Decode the whole image back to the original ``.text`` bytes."""
    return b"".join(decompress_ccrp_line(image, i)
                    for i in range(len(image.lines)))


@dataclass
class CcrpStats:
    """CCRP engine event counts (FetchUnit-compatible miss path)."""

    misses: int = 0
    lat_fetches: int = 0
    lines_fetched: int = 0
    compressed_bytes_fetched: int = 0
    index_cache: object = None  # LAT-cache stats when configured


class CcrpEngine:
    """Timing model of the CCRP refill path.

    On an L1 miss: fetch the LAT entry from main memory (unless the
    one-entry last-LAT buffer hits), burst-read the compressed line,
    and Huffman-decode serially at ``bytes_per_cycle``.  There is no
    critical-word-first and no cross-line prefetch.
    """

    def __init__(self, image, memory, line_bytes=LINE_BYTES,
                 bytes_per_cycle=1, lat_buffer=True, lat_cache=None):
        self.image = image
        self.memory = memory
        self.line_bytes = line_bytes
        self.bytes_per_cycle = bytes_per_cycle
        self.lat_buffer = lat_buffer
        self.stats = CcrpStats()
        self._last_lat = -1
        self._lat_cache = None
        if lat_cache is not None:
            # Same structure as CodePack's index cache, caching LAT
            # entries instead (the analogous optimization for CCRP).
            from repro.sim.codepack_engine import IndexCache

            self._lat_cache = IndexCache(lat_cache)
            self.stats.index_cache = self._lat_cache.stats

    def _lat_ready(self, index, now):
        entry = index // LAT_GROUP_LINES
        if self._lat_cache is not None:
            if self._lat_cache.access(entry):
                return now
            self.stats.lat_fetches += 1
            return self.memory.access_done(LAT_ENTRY_BYTES, now)
        if self.lat_buffer and entry == self._last_lat:
            return now
        self._last_lat = entry
        self.stats.lat_fetches += 1
        return self.memory.access_done(LAT_ENTRY_BYTES, now)

    def miss(self, addr, now):
        image = self.image
        self.stats.misses += 1
        index = image.line_of_address(addr)
        line = image.lines[index]
        start = self._lat_ready(index, now)

        align = line.byte_offset % self.memory.bus_bytes
        beats = self.memory.burst_arrivals(line.byte_length, start, align)
        beat_bits = self.memory.bus_bits
        rate = self.bytes_per_cycle
        byte_times = []
        for j, end_bit in enumerate(line.byte_end_bits):
            beat_index = (align * 8 + end_bit - 1) // beat_bits
            arrive = beats[beat_index]
            if j >= rate:
                finish = max(arrive, byte_times[j - rate]) + 1
            else:
                finish = arrive + 1
            byte_times.append(finish)
        self.stats.lines_fetched += 1
        self.stats.compressed_bytes_fetched += line.byte_length

        words = self.line_bytes // INSTRUCTION_BYTES
        word_times = []
        for w in range(words):
            last_byte = min(w * INSTRUCTION_BYTES + 3, len(byte_times) - 1)
            word_times.append(byte_times[last_byte])
        critical = word_times[(addr % self.line_bytes) // INSTRUCTION_BYTES]
        return LineFill(addr // self.line_bytes, word_times, critical,
                        max(word_times))
