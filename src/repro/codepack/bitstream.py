"""MSB-first bit-level I/O.

CodePack codewords are variable-length (2--19 bits including the raw
escape) and are packed back to back within a compression block; blocks
are then padded out to a byte boundary so that the index table can use
byte offsets.  :class:`BitWriter` and :class:`BitReader` implement
exactly that framing.

Both classes are tuned for long streams: the writer flushes its
accumulator to rendered bytes whenever enough whole bytes are pending
(so appending n bits costs O(n) total, not the O(n^2) a single growing
integer would), and the reader extracts each field from a byte-slice in
one ``int.from_bytes`` call.  The CodePack hot loops no longer go
through this module at all (see :mod:`repro.codepack.compressor` and
:mod:`repro.codepack.fastcodec`), but the Huffman/CCRP/dictionary
schemes still frame their streams here.
"""

#: Flush the writer's accumulator once it holds this many bits.
_FLUSH_BITS = 4096


class BitWriter:
    """Accumulates an MSB-first bit string and renders it as bytes."""

    def __init__(self):
        self._rendered = []  # byte-aligned chunks already rendered
        self._acc = 0  # pending bits, MSB first
        self._acc_bits = 0  # number of valid bits in _acc
        self._length = 0  # total bits written

    def write(self, value, width):
        """Append the *width* low bits of *value*, MSB first."""
        if width < 0:
            raise ValueError("negative width")
        if not 0 <= value < (1 << width):
            raise ValueError("value %d does not fit in %d bits"
                             % (value, width))
        self._acc = (self._acc << width) | value
        self._acc_bits += width
        self._length += width
        if self._acc_bits >= _FLUSH_BITS:
            self._flush()

    def _flush(self):
        """Render the accumulator's whole leading bytes.

        The stream prefix before the accumulator is always byte
        aligned, so the accumulator's top ``8 * (bits // 8)`` bits can
        be emitted as bytes, keeping only the sub-byte remainder.
        """
        nbytes, rem = divmod(self._acc_bits, 8)
        if nbytes:
            self._rendered.append((self._acc >> rem).to_bytes(nbytes, "big"))
            self._acc &= (1 << rem) - 1
            self._acc_bits = rem

    @property
    def bit_length(self):
        """Number of bits written so far."""
        return self._length

    def pad_to_byte(self):
        """Zero-pad to the next byte boundary; returns the pad bit count."""
        pad = (8 - self._length % 8) % 8
        if pad:
            self.write(0, pad)
        return pad

    def to_bytes(self):
        """Render the stream (must be byte aligned) as ``bytes``."""
        if self._length % 8:
            raise ValueError("bitstream not byte aligned (%d bits)"
                             % self._length)
        self._flush()
        data = b"".join(self._rendered)
        # Keep the writer usable for further appends after rendering.
        self._rendered = [data]
        return data


class BitReader:
    """Reads an MSB-first bit string produced by :class:`BitWriter`."""

    def __init__(self, data, bit_offset=0):
        self._data = bytes(data)
        self._pos = bit_offset  # absolute bit position

    @property
    def position(self):
        """Current absolute bit position."""
        return self._pos

    @property
    def bits_remaining(self):
        """Bits left before the end of the underlying buffer."""
        return len(self._data) * 8 - self._pos

    def read(self, width):
        """Consume and return the next *width* bits as an unsigned int."""
        if width < 0:
            raise ValueError("negative width")
        if width == 0:
            return 0
        pos = self._pos
        end = pos + width
        if end > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        first_byte = pos >> 3
        last_byte = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first_byte:last_byte], "big")
        self._pos = end
        return (chunk >> (last_byte * 8 - end)) & ((1 << width) - 1)

    def peek(self, width):
        """Read *width* bits without consuming them."""
        saved = self._pos
        try:
            return self.read(width)
        finally:
            self._pos = saved

    def skip_to_byte(self):
        """Advance to the next byte boundary."""
        self._pos = (self._pos + 7) // 8 * 8
