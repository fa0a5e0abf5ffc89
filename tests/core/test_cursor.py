"""Streaming cursor tests."""

import random

import pytest

from repro.alphabet import Alphabet
from repro.core import SpineIndex, maximal_matches
from repro.core.cursor import SearchCursor, StreamMatcher
from repro.exceptions import SearchError
from tests.conftest import brute_occurrences


class TestSearchCursor:
    def test_paper_false_positive_dies(self):
        cursor = SearchCursor(SpineIndex("aaccacaaca"))
        for ch in "acca":
            assert cursor.feed(ch)
        assert not cursor.feed("a")
        assert not cursor.alive
        assert cursor.matched_length == 4
        # Dead cursors stay dead.
        assert not cursor.feed("a")

    def test_first_occurrence_tracks_prefix(self):
        text = "abracadabra"
        cursor = SearchCursor(SpineIndex(text))
        for i, ch in enumerate("abra", start=1):
            assert cursor.feed(ch)
            assert cursor.first_occurrence == text.find("abra"[:i])

    def test_occurrences_of_live_prefix(self):
        text = "abracadabra"
        cursor = SearchCursor(SpineIndex(text))
        for ch in "abra":
            cursor.feed(ch)
        assert cursor.occurrences() == brute_occurrences(text, "abra")

    def test_reset(self):
        cursor = SearchCursor(SpineIndex("abc"))
        cursor.feed("z") if "z" in cursor.index.alphabet else \
            cursor.feed("c")
        cursor.feed("a")  # likely dead or longer
        cursor.reset()
        assert cursor.alive
        assert cursor.matched_length == 0
        assert cursor.feed("a")

    def test_feed_validates_single_char(self):
        cursor = SearchCursor(SpineIndex("abc"))
        with pytest.raises(SearchError):
            cursor.feed("ab")

    def test_empty_cursor_occurrences(self):
        assert SearchCursor(SpineIndex("abc")).occurrences() == []


class TestStreamMatcher:
    def _batch_events(self, index, query, min_length):
        matches, _ = maximal_matches(index, query,
                                     min_length=min_length,
                                     with_positions=False)
        return [(m.query_start, m.length) for m in matches]

    def _stream_events(self, index, query, min_length):
        matcher = StreamMatcher(index, min_length=min_length)
        events = [matcher.feed(ch) for ch in query]
        events.append(matcher.finish())
        return [(e.query_start, e.length) for e in events
                if e is not None]

    def test_matches_batch_on_paper_pair(self):
        s1 = "acaccgacgatacgagattacgagacgagaatacaacag"
        s2 = "catagagagacgattacgagaaaacgggaaagacgatcc"
        index = SpineIndex(s1)
        assert self._stream_events(index, s2, 6) == \
            self._batch_events(index, s2, 6)

    def test_matches_batch_randomized(self):
        rng = random.Random(73)
        for _ in range(60):
            syms = "ab" if rng.random() < 0.6 else "abc"
            text = "".join(rng.choice(syms)
                           for _ in range(rng.randint(2, 60)))
            query = "".join(rng.choice(syms)
                            for _ in range(rng.randint(1, 50)))
            index = SpineIndex(text, alphabet=Alphabet(syms))
            for min_length in (1, 2, 4):
                assert self._stream_events(index, query, min_length) \
                    == self._batch_events(index, query, min_length), (
                        text, query, min_length)

    def test_event_geometry(self):
        index = SpineIndex("abcabc")
        matcher = StreamMatcher(index, min_length=2)
        events = []
        for ch in "abcx" if "x" in index.alphabet.symbols else "abca":
            event = matcher.feed(ch)
            if event:
                events.append(event)
        final = matcher.finish()
        if final:
            events.append(final)
        for event in events:
            word_start = event.query_start
            assert event.data_start >= 0
            assert event.length >= 2
            assert word_start >= 0

    def test_finish_twice_rejected(self):
        matcher = StreamMatcher(SpineIndex("ab"))
        matcher.finish()
        with pytest.raises(SearchError):
            matcher.finish()
        with pytest.raises(SearchError):
            matcher.feed("a")

    def test_min_length_validated(self):
        with pytest.raises(SearchError):
            StreamMatcher(SpineIndex("ab"), min_length=0)

    def test_checks_counted(self):
        index = SpineIndex("abcabc")
        matcher = StreamMatcher(index)
        for ch in "abc":
            matcher.feed(ch)
        assert matcher.checks >= 3


def _layer(name, text, alphabet):
    if name == "memory":
        return SpineIndex(text, alphabet=alphabet)
    if name == "packed":
        from repro.core.packed import PackedSpineIndex

        return PackedSpineIndex.from_index(
            SpineIndex(text, alphabet=alphabet))
    from repro.disk.spine_disk import DiskSpineIndex

    disk = DiskSpineIndex(alphabet=alphabet, buffer_pages=4,
                          page_size=256)
    disk.extend(text)
    return disk


@pytest.mark.parametrize("layer", ["memory", "packed", "disk"])
def test_cursors_agree_with_memory_layer_on_every_layer(layer):
    """Both cursors run on every traversal layer and report exactly
    what they report over the in-memory reference index."""
    rng = random.Random(29)
    alphabet = Alphabet("abc")
    for _ in range(12):
        text = "".join(rng.choice("abc")
                       for _ in range(rng.randint(20, 120)))
        query = "".join(rng.choice("abc") for _ in range(40))
        reference = SpineIndex(text, alphabet=alphabet)
        index = _layer(layer, text, alphabet)
        try:
            cursors = [SearchCursor(reference), SearchCursor(index)]
            for ch in query[:8]:
                assert cursors[0].feed(ch) == cursors[1].feed(ch)
                live = query[:cursors[0].matched_length]
                assert cursors[0].occurrences() == \
                    cursors[1].occurrences() == \
                    (brute_occurrences(text, live) if live else [])
            matchers = [StreamMatcher(reference, min_length=2),
                        StreamMatcher(index, min_length=2)]
            streams = [[m.feed(ch) for ch in query] + [m.finish()]
                       for m in matchers]
            assert streams[0] == streams[1]
            assert matchers[0].checks == matchers[1].checks
        finally:
            if layer == "disk":
                index.close()
