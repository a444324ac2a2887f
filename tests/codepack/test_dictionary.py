"""Tests for dictionary construction."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codepack.codewords import HIGH_SCHEME, LOW_SCHEME
from repro.codepack.dictionary import (
    DICTIONARY_ENTRY_BITS,
    DICTIONARY_HEADER_BITS,
    Dictionary,
    build_dictionaries,
    build_dictionary,
    halfword_histograms,
)


class TestHistogram:
    def test_counts_both_halves(self):
        high, low = halfword_histograms([0x11112222, 0x11113333])
        assert high[0x1111] == 2
        assert low[0x2222] == 1
        assert low[0x3333] == 1


class TestDictionaryObject:
    def test_slot_lookup(self):
        d = Dictionary(HIGH_SCHEME, [10, 20, 30])
        assert d.slot(20) == 1
        assert d.slot(99) is None
        assert d.value(2) == 30
        assert 10 in d and 99 not in d
        assert len(d) == 3

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(HIGH_SCHEME, [1, 1])

    def test_zero_banned_from_low_dictionary(self):
        with pytest.raises(ValueError):
            Dictionary(LOW_SCHEME, [0])
        Dictionary(HIGH_SCHEME, [0])  # fine for the high stream

    def test_over_capacity_rejected(self):
        entries = list(range(HIGH_SCHEME.dictionary_capacity + 1))
        with pytest.raises(ValueError):
            Dictionary(HIGH_SCHEME, entries)

    def test_storage_bits(self):
        d = Dictionary(HIGH_SCHEME, [1, 2])
        assert d.storage_bits \
            == DICTIONARY_HEADER_BITS + 2 * DICTIONARY_ENTRY_BITS


class TestBuild:
    def test_most_frequent_gets_smallest_slot(self):
        hist = Counter({5: 100, 6: 50, 7: 10})
        d = build_dictionary(HIGH_SCHEME, hist)
        assert d.entries[:3] == [5, 6, 7]

    def test_ties_broken_by_value(self):
        hist = Counter({9: 10, 3: 10, 7: 10})
        d = build_dictionary(HIGH_SCHEME, hist)
        assert d.entries[:3] == [3, 7, 9]

    def test_zero_never_admitted_to_low(self):
        hist = Counter({0: 10_000, 1: 5})
        d = build_dictionary(LOW_SCHEME, hist)
        assert 0 not in d

    def test_singletons_left_raw(self):
        # One occurrence saves at most 19-6=13 bits but costs a 16-bit
        # dictionary slot: not profitable.
        hist = Counter({v: 1 for v in range(100)})
        d = build_dictionary(HIGH_SCHEME, hist)
        assert len(d) == 0

    def test_frequent_values_admitted(self):
        hist = Counter({v: 50 for v in range(10)})
        d = build_dictionary(HIGH_SCHEME, hist)
        assert len(d) == 10

    def test_admission_is_profitable_only(self):
        # Entry 80+ of the low scheme costs 11 bits encoded; with count
        # c the saving is c*(19-11)=8c which must exceed 16 bits.
        hist = Counter({v: 1000 for v in range(1, 81)})
        hist[999] = 2  # 8*2 = 16 == 16: not strictly profitable
        d = build_dictionary(LOW_SCHEME, hist)
        assert 999 not in d

    def test_build_pair(self):
        words = [0x34120000, 0x34120004] * 10
        high, low = build_dictionaries(words)
        assert high.slot(0x3412) is not None
        assert low.slot(0x0004) is not None
        assert low.slot(0x0000) is None  # zero is the tag-only escape


@given(st.dictionaries(st.integers(1, 0xFFFF), st.integers(1, 1000),
                       max_size=600))
def test_build_never_exceeds_capacity_or_misorders(hist):
    d = build_dictionary(LOW_SCHEME, Counter(hist))
    assert len(d) <= LOW_SCHEME.dictionary_capacity
    # Entry order must be non-increasing in count (shortest codewords go
    # to the most frequent values).
    counts = [hist[v] for v in d.entries]
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
    assert 0 not in d


class TestBincountParity:
    """The bincount histograms must equal a plain masking count."""

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=400))
    def test_histograms_match_reference(self, words):
        high, low = halfword_histograms(words)
        assert high == Counter((w >> 16) & 0xFFFF for w in words)
        assert low == Counter(w & 0xFFFF for w in words)


class TestRankingParity:
    """PR 8: build_dictionaries ranks candidates with a stable argsort
    over the bincount histogram.  The ordering -- and therefore the
    admitted entries -- must be byte-identical to the heapq reference
    path, including under heavy ties and zero-exclusion."""

    def skewed_words(self, rng, n):
        """A worst-case mix: uniform noise, heavy ties, zero halves."""
        words = [rng.randrange(2**32) for _ in range(n)]
        # Ties: many distinct values sharing one count, so ordering
        # hinges entirely on the value tie-break.
        for value in rng.sample(range(1, 0x8000), 64):
            words += [value << 16 | value] * 3
        words += [0x00000000] * rng.randrange(8)          # zero halves
        words += [0x0000FFFF, 0xFFFF0000] * rng.randrange(4)
        return words

    def test_vectorized_ranking_matches_reference(self):
        import random

        from repro.codepack.dictionary import (
            _pack_words,
            _ranked_candidates,
            _ranked_vectorized,
            _split_halves,
        )

        rng = random.Random(97)
        for trial in range(25):
            words = self.skewed_words(rng, rng.randrange(1, 2000))
            high, low = _split_halves(_pack_words(words))
            high_hist, low_hist = halfword_histograms(words)
            assert _ranked_vectorized(HIGH_SCHEME, high) == \
                _ranked_candidates(HIGH_SCHEME, high_hist)
            assert _ranked_vectorized(LOW_SCHEME, low) == \
                _ranked_candidates(LOW_SCHEME, low_hist)

    def test_build_dictionaries_identical_to_histogram_path(self):
        import random

        rng = random.Random(55)
        for trial in range(10):
            words = self.skewed_words(rng, rng.randrange(0, 1500))
            vec_high, vec_low = build_dictionaries(words)
            high_hist, low_hist = halfword_histograms(words)
            ref_high = build_dictionary(HIGH_SCHEME, high_hist)
            ref_low = build_dictionary(LOW_SCHEME, low_hist)
            assert vec_high.entries == ref_high.entries
            assert vec_low.entries == ref_low.entries
