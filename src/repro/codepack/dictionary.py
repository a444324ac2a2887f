"""Frequency-driven dictionary construction.

Paper Section 3.1: "Because the high and low half-words have very
different distribution frequencies and values, two separate dictionaries
are used ... The most common half-word values receive the shortest
codewords.  The dictionaries are fixed at program load-time which allows
them to be adapted for specific programs."

:func:`build_dictionaries` counts halfword symbols over the ``.text``
section and assigns the most frequent values to the shortest codeword
classes.  A value is only admitted when encoding it through the
dictionary actually shrinks the program, counting the 16 bits its
dictionary slot costs in the compressed image -- this keeps the
single-occurrence tail raw, which is what produces the paper's
surprising 19--25% raw fraction (Table 4).
"""

import array
import heapq
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as _np

from repro.codepack.codewords import RAW_CODEWORD_BITS, slot_widths

#: Bits each dictionary slot occupies in the compressed image.
DICTIONARY_ENTRY_BITS = 16
#: Fixed per-dictionary header (entry count), mirroring a load-time blob.
DICTIONARY_HEADER_BITS = 32


@dataclass
class Dictionary:
    """One halfword dictionary: entry order defines codeword assignment.

    ``entries[i]`` is the halfword stored in slot *i*; slot numbers map
    to codeword classes through the :class:`CodewordScheme`.
    """

    scheme: object
    entries: list = field(default_factory=list)

    def __post_init__(self):
        self._slot_of = {value: i for i, value in enumerate(self.entries)}
        if len(self._slot_of) != len(self.entries):
            raise ValueError("duplicate dictionary entries")
        if len(self.entries) > self.scheme.dictionary_capacity:
            raise ValueError("dictionary exceeds scheme capacity")
        if self.scheme.zero_special and 0 in self._slot_of:
            raise ValueError("low dictionary must not contain 0")

    def __len__(self):
        return len(self.entries)

    def __contains__(self, value):
        return value in self._slot_of

    def slot(self, value):
        """Slot number of *value*, or ``None`` when not in the dictionary."""
        return self._slot_of.get(value)

    def value(self, slot):
        """Halfword stored in *slot*."""
        return self.entries[slot]

    @property
    def storage_bits(self):
        """Bits this dictionary occupies in the compressed image."""
        return DICTIONARY_HEADER_BITS + DICTIONARY_ENTRY_BITS * len(self)


def _admit(scheme, ranked):
    """Greedily fill dictionary slots with profitable values.

    *ranked* is ``(value, count)`` sorted most-frequent-first.  Slot *i*
    costs ``scheme.encoded_bits(i)`` per occurrence plus a one-off
    :data:`DICTIONARY_ENTRY_BITS`; the alternative is
    :data:`RAW_CODEWORD_BITS` per occurrence.
    """
    entries = []
    capacity = scheme.dictionary_capacity
    widths = slot_widths(scheme)
    for value, count in ranked:
        slot = len(entries)
        if slot >= capacity:
            break
        saving = count * (RAW_CODEWORD_BITS - widths[slot])
        if saving <= DICTIONARY_ENTRY_BITS:
            # Candidates are frequency-sorted and class widths only grow,
            # so no later candidate can be profitable either.
            break
        entries.append(value)
    return entries


def _pack_words(words):
    """*words* as a packed 32-bit :class:`array.array`, or ``None``.

    ``None`` means the words cannot be reinterpreted in C (a value out
    of range, a non-integer, or a platform with unusual C-int sizes)
    and callers must take the masking generator path.
    """
    try:
        packed = array.array("I", words)
    except (OverflowError, TypeError):
        return None
    return packed if packed.itemsize == 4 else None


def _split_halves(packed):
    """The (high, low) halfword streams of *packed* as NumPy arrays."""
    halves = _np.frombuffer(packed.tobytes(), dtype=_np.uint16)
    if sys.byteorder == "little":
        return halves[1::2], halves[0::2]
    return halves[0::2], halves[1::2]


def _bincount_histogram(halves):
    """A :class:`Counter` over 16-bit symbols via one bincount pass.

    Equivalent to ``Counter(halves)`` but vectorized: one histogram
    over the fixed 2^16 symbol space, then only the observed symbols
    materialise as Python ints.  Candidate ranking keys on
    ``(-count, value)`` -- a total order, since values are unique -- so
    the different iteration order versus ``Counter`` cannot change
    which entries are admitted: the built dictionaries are
    byte-identical.
    """
    counts = _np.bincount(halves, minlength=0x10000)
    values = _np.nonzero(counts)[0]
    return Counter(dict(zip(values.tolist(), counts[values].tolist())))


def halfword_histograms(words):
    """Count high and low halfword symbols over instruction *words*.

    The fast path reinterprets the words as packed 16-bit halves and
    histograms each stream with ``np.bincount`` over the full 2^16
    symbol space -- one C pass per dictionary, no per-symbol hashing.
    Out-of-range words (or platforms with unusual C-int sizes) take the
    generator path, which masks each word to its two halfwords (the
    encoders reject such words before building dictionaries).
    Both paths produce identical histograms.
    """
    packed = _pack_words(words)
    if packed is not None:
        high, low = _split_halves(packed)
        return _bincount_histogram(high), _bincount_histogram(low)
    high = Counter((word >> 16) & 0xFFFF for word in words)
    low = Counter(word & 0xFFFF for word in words)
    return high, low


def _ranked_candidates(scheme, histogram):
    """Top-capacity ``(value, count)`` pairs by ``(-count, value)``.

    Deterministic: ties broken by value.  Only the top ``capacity``
    candidates can ever be admitted, so an O(n log capacity) partial
    sort replaces the full sort of the symbol tail.
    """
    items = histogram.items()
    if scheme.zero_special:
        items = ((value, count) for value, count in items if value != 0)
    return heapq.nsmallest(scheme.dictionary_capacity, items,
                           key=lambda pair: (-pair[1], pair[0]))


def _ranked_vectorized(scheme, halves):
    """Vectorized candidate ranking: bincount then stable argsort.

    ``np.nonzero`` yields observed values in ascending order, so a
    *stable* argsort on the negated counts produces exactly the
    ``(-count, value)`` lexicographic order :func:`_ranked_candidates`
    computes -- the two paths rank (and therefore admit) byte-identical
    dictionaries.  The symbol space never materialises as Python
    objects: only the top ``capacity`` survivors do.
    """
    counts = _np.bincount(halves, minlength=0x10000)
    values = _np.nonzero(counts)[0]
    counts = counts[values]
    if scheme.zero_special and values.size and values[0] == 0:
        values, counts = values[1:], counts[1:]
    order = _np.argsort(-counts, kind="stable")
    order = order[:scheme.dictionary_capacity]
    return list(zip(values[order].tolist(), counts[order].tolist()))


def build_dictionary(scheme, histogram):
    """Build one dictionary for *scheme* from a symbol *histogram*."""
    return Dictionary(scheme=scheme,
                      entries=_admit(scheme,
                                     _ranked_candidates(scheme, histogram)))


def build_dictionaries(words, high_scheme=None, low_scheme=None):
    """Build the (high, low) dictionary pair for a ``.text`` section.

    The whole pipeline -- halfword split, histogram, frequency ranking
    -- runs as array kernels.  Words the packed view cannot hold take
    the histogram/:func:`build_dictionary` path, with identical output.
    """
    from repro.codepack.codewords import HIGH_SCHEME, LOW_SCHEME

    high_scheme = high_scheme or HIGH_SCHEME
    low_scheme = low_scheme or LOW_SCHEME
    packed = _pack_words(words)
    if packed is not None:
        high, low = _split_halves(packed)
        return (
            Dictionary(scheme=high_scheme,
                       entries=_admit(high_scheme,
                                      _ranked_vectorized(high_scheme,
                                                         high))),
            Dictionary(scheme=low_scheme,
                       entries=_admit(low_scheme,
                                      _ranked_vectorized(low_scheme,
                                                         low))),
        )
    high_hist, low_hist = halfword_histograms(words)
    return (build_dictionary(high_scheme, high_hist),
            build_dictionary(low_scheme, low_hist))
