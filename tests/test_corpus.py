"""Corpus parsing, flattening, truncation and selection."""

from __future__ import annotations

import io
import os
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wordtradeoff.corpus import (
    DEFAULT_BOOK_IDS,
    Book,
    CorpusFormatError,
    Translation,
    Verse,
    VerseRef,
    flatten,
    parse_corpus,
    select_books,
    truncate_books,
)

PBC_SAMPLE = b"""# language_name: German
# closest ISO 639-3: deu
40001001\tthe book of the generation
40001002\tabraham begat isaac
41001001\tthe beginning of the gospel
66001001\tthe revelation of jesus
"""

TSV_SAMPLE = b"""# language_code: eng
40\t1\t1\tthe book of the generation
40\t1\t2\tabraham begat isaac
41\t1\t1\tthe beginning of the gospel
"""


def make_book(texts, book_id=40, tid="t", lang="und"):
    verses = tuple(
        Verse(VerseRef(book_id, 1, i), t) for i, t in enumerate(texts, start=1)
    )
    return Book(book_id=book_id, verses=verses, translation_id=tid, language=lang)


class TestParse:
    def test_pbc_line_maps_to_ref(self):
        tr = parse_corpus(PBC_SAMPLE, "pbc")
        verse = tr.books[40].verses[0]
        assert verse.ref == VerseRef(40, 1, 1)
        assert verse.text == "the book of the generation"

    def test_tsv_line_maps_to_same_ref(self):
        tr = parse_corpus(TSV_SAMPLE, "tsv")
        assert tr.books[40].verses[0].ref == VerseRef(40, 1, 1)
        assert tr.books[40].verses[0].text == "the book of the generation"

    def test_comment_recorded_in_provenance(self):
        tr = parse_corpus(PBC_SAMPLE, "pbc")
        assert tr.provenance["language_name"] == "German"
        assert tr.language == "deu"

    def test_language_from_tsv_comment(self):
        assert parse_corpus(TSV_SAMPLE, "tsv").language == "eng"

    def test_books_grouped_and_sorted(self):
        shuffled = b"40001002\tsecond verse here\n40001001\tfirst verse here\n"
        tr = parse_corpus(shuffled, "pbc")
        refs = [v.ref.verse for v in tr.books[40].verses]
        assert refs == [1, 2]

    def test_duplicate_ref_is_error_with_line_number(self):
        bad = b"40001001\tonce upon\n40001001\ttwice upon\n"
        with pytest.raises(CorpusFormatError, match="line 2.*duplicate"):
            parse_corpus(bad, "pbc")

    def test_malformed_line_reports_line_number(self):
        bad = b"40001001\tfine text\nnot-a-line\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            parse_corpus(bad, "pbc")

    def test_empty_input_is_error(self):
        with pytest.raises(CorpusFormatError, match="no verses"):
            parse_corpus(b"# only: comments\n", "pbc")

    def test_invalid_utf8_is_error(self):
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            parse_corpus(b"40001001\t\xff\xfe broken\n", "pbc")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus format"):
            parse_corpus(PBC_SAMPLE, "xml")

    def test_empty_verse_text_skipped_and_counted(self):
        data = b"40001001\tsome text\n40001002\t\n"
        tr = parse_corpus(data, "pbc")
        assert len(tr.books[40].verses) == 1
        assert tr.provenance["skipped_empty_verses"] == "1"

    def test_whitespace_normalized_inside_verse(self):
        data = b"40001001\t  doubled  spaces\tand tabs \n"
        tr = parse_corpus(data, "pbc")
        assert tr.books[40].verses[0].text == "doubled spaces and tabs"

    def test_lowercase_flag(self):
        tr = parse_corpus(b"40001001\tThe Book\n", "pbc", lowercase=True)
        assert tr.books[40].verses[0].text == "the book"

    def test_file_path_source_uses_stem_as_id(self, tmp_path):
        path = tmp_path / "eng_kjv.txt"
        path.write_bytes(PBC_SAMPLE)
        tr = parse_corpus(path, "pbc")
        assert tr.translation_id == "eng_kjv"

    def test_binary_stream_source(self):
        tr = parse_corpus(io.BytesIO(b"# translation_id: x\n" + TSV_SAMPLE), "tsv")
        assert tr.translation_id == "x"


class TestFlatten:
    def test_single_verse(self):
        text = flatten(make_book(["a b"]))
        assert text == "a b"
        assert len(text) == 3

    def test_two_verses_joined_by_space(self):
        assert flatten(make_book(["x", "x"])) == "x x"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_recovers_tokens(self, seed):
        from conftest import random_book

        book = random_book(seed)
        tokens = [t for v in book.verses for t in v.text.split(" ")]
        text = flatten(book)
        assert text.split(" ") == tokens
        assert len(text) == book.char_length


class TestTruncate:
    def _book_of_length(self, n, book_id, tid="t"):
        # tokens of length 4, separators make 5 per token; pad with short last token
        texts = []
        remaining = n
        verse_tokens = []
        token_idx = 0
        while remaining > 0:
            length = min(4, remaining)
            verse_tokens.append(("abcd"[: length - 1] + str(token_idx % 10))[:length])
            token_idx += 1
            remaining -= length + 1
        texts = [" ".join(verse_tokens)]
        book = make_book(texts, book_id=book_id, tid=tid)
        assert abs(book.char_length - n) <= 1
        return book

    def test_min_rule(self):
        books = [
            self._book_of_length(100, 40),
            self._book_of_length(250, 41),
            self._book_of_length(180, 42),
        ]
        out = truncate_books(books, "token")
        lengths = [b.char_length for b in out]
        target = books[0].char_length
        assert lengths[0] == target
        assert all(l <= target for l in lengths)

    def test_shortest_book_returned_unchanged(self):
        short = make_book(["tiny text"], book_id=66)
        long1 = make_book(["much longer verse body here", "and another one"], book_id=40)
        out = truncate_books([long1, short], "token")
        assert out[1] is short

    def test_six_books_only_longer_five_cut(self):
        books = [self._book_of_length(60 + 10 * i, 40 + i) for i in range(5)]
        books.append(self._book_of_length(50, 66))
        out = truncate_books(books, "token")
        assert out[5] is books[5]
        target = books[5].char_length
        assert all(b.char_length <= target for b in out)

    def test_token_granularity_never_splits_tokens(self):
        long_book = make_book(["alpha beta gamma delta", "epsilon zeta"], book_id=40)
        short = make_book(["0123456789"], book_id=66)
        out = truncate_books([long_book, short], "token")
        original_tokens = flatten(long_book).split(" ")
        kept_tokens = flatten(out[0]).split(" ")
        assert kept_tokens == original_tokens[: len(kept_tokens)]
        target = short.char_length
        longest = max(len(t) for t in original_tokens)
        assert target - (longest + 1) <= out[0].char_length <= target

    def test_character_granularity_cuts_exactly(self):
        long_book = make_book(["alpha beta gamma delta"], book_id=40)
        short = make_book(["0123456789012"], book_id=66)  # 13 chars
        out = truncate_books([long_book, short], "char")
        assert out[0].char_length == short.char_length
        assert flatten(out[0]) == flatten(long_book)[: short.char_length]

    def test_never_lengthens(self):
        from conftest import random_book

        books = [random_book(s, book_id=40 + s) for s in range(5)]
        out = truncate_books(books, "token")
        for before, after in zip(books, out):
            assert after.char_length <= before.char_length

    def test_needs_two_books(self):
        with pytest.raises(ValueError):
            truncate_books([make_book(["just one"])])

    def test_bad_granularity(self):
        books = [make_book(["a b"]), make_book(["c d"], book_id=41)]
        for granularity in ("line", "character"):
            with pytest.raises(ValueError):
                truncate_books(books, granularity)


class TestSelect:
    def _translation(self, ids):
        books = {i: make_book([f"text of {i}"], book_id=i) for i in ids}
        return Translation("t", "und", books)

    def test_all_present(self):
        tr = self._translation(DEFAULT_BOOK_IDS)
        found, missing = select_books(tr, DEFAULT_BOOK_IDS)
        assert [b.book_id for b in found] == sorted(DEFAULT_BOOK_IDS)
        assert missing == set()

    def test_missing_reported_not_fatal(self):
        tr = self._translation([40, 41, 42, 43, 66])  # no Acts
        found, missing = select_books(tr, DEFAULT_BOOK_IDS)
        assert missing == {44}
        assert len(found) == 5

    def test_empty_request_is_error(self):
        with pytest.raises(ValueError, match="no books requested"):
            select_books(self._translation([40]), set())


class TestInvariants:
    def test_verse_rejects_bad_text(self):
        ref = VerseRef(40, 1, 1)
        for bad in ("", " leading", "trailing ", "two  spaces"):
            with pytest.raises(ValueError):
                Verse(ref, bad)

    def test_verse_ref_ordering(self):
        assert VerseRef(40, 1, 2) < VerseRef(40, 2, 1) < VerseRef(41, 1, 1)

    def test_verse_ref_validation(self):
        with pytest.raises(ValueError):
            VerseRef(40, 0, 1)

    def test_book_requires_verses(self):
        with pytest.raises(ValueError):
            Book(book_id=40, verses=())
