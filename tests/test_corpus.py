"""Corpus parsing, book selection, flattening and truncation."""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wordtradeoff import corpus as corpus_module
from wordtradeoff.corpus import (
    DEFAULT_BOOK_IDS,
    TRUNCATIONS,
    Book,
    CorpusFormatError,
    Verse,
    VerseRef,
    flatten,
    parse_corpus,
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

#: The characters besides \n and \r at which str.splitlines breaks a line.
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


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

    def test_comment_sets_language(self):
        tr = parse_corpus(PBC_SAMPLE, "pbc")
        assert {b.language for b in tr.books.values()} == {"deu"}

    def test_language_from_tsv_comment(self):
        tr = parse_corpus(TSV_SAMPLE, "tsv")
        assert {b.language for b in tr.books.values()} == {"eng"}

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

    @pytest.mark.parametrize("data", [
        b"40001001\t\n40001001\ttext here\n40001002\tmore text\n",
        b"40001001\ttext here\n40001001\t \n40001002\tmore text\n",
    ], ids=["empty-first", "text-first"])
    def test_empty_verse_counts_for_the_duplicate_check(self, data):
        message = r"^line 2: duplicate verse reference 40:1:1 \(first seen at line 1\)$"
        with pytest.raises(CorpusFormatError, match=message):
            parse_corpus(data, "pbc", books=[40])

    def test_only_empty_verses_is_no_verses(self):
        with pytest.raises(CorpusFormatError, match="^no verses found in input$"):
            parse_corpus(b"40001001\t\n41001001\t \n", "pbc")

    def test_empty_input_is_error(self):
        with pytest.raises(CorpusFormatError, match="no verses"):
            parse_corpus(b"# only: comments\n", "pbc")

    def test_invalid_utf8_is_error(self):
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            parse_corpus(b"40001001\t\xff\xfe broken\n", "pbc")

    @pytest.mark.parametrize("fmt,data", [
        ("pbc", PBC_SAMPLE),
        ("pbc", b"40001001\tthe book\n"),
        ("tsv", TSV_SAMPLE),
        ("tsv", b"40\t1\t1\tthe book\n"),
    ], ids=["pbc-comment", "pbc-data", "tsv-comment", "tsv-data"])
    def test_leading_byte_order_mark_is_named(self, fmt, data):
        # Before a comment or a data line alike; the input without it parses.
        assert parse_corpus(data, fmt).books[40].verses
        message = "^line 1: input starts with a UTF-8 byte-order mark; save it without one$"
        with pytest.raises(CorpusFormatError, match=message):
            parse_corpus(b"\xef\xbb\xbf" + data, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus format"):
            parse_corpus(PBC_SAMPLE, "xml")

    @pytest.mark.parametrize("fmt", ["PBC", "Tsv"])
    def test_format_name_is_exact(self, fmt):
        with pytest.raises(ValueError, match="unknown corpus format"):
            parse_corpus(PBC_SAMPLE, fmt)

    def test_empty_verse_text_skipped_and_counted(self, caplog):
        data = b"40001001\tsome text\n40001002\t\n41001001\t \n"
        tr = parse_corpus(data, "pbc", books=[40])
        assert len(tr.books[40].verses) == 1
        # Counted in every book; the caller logs the count (analyze once per input).
        assert tr.skipped_empty == 2
        assert [r for r in caplog.records if r.levelname == "WARNING"] == []

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

    @pytest.mark.parametrize("fmt,ref", [("pbc", "40001001"), ("tsv", "40\t1\t1")])
    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_other_separators_inside_a_verse_are_spaces(self, fmt, ref, char):
        tr = parse_corpus(f"{ref}\tfoo{char}bar\n".encode(), fmt)
        assert [v.text for v in tr.books[40].verses] == ["foo bar"]

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_error_line_number_counts_only_line_breaks(self, char):
        bad = f"40001001\tfoo{char}bar\nnot-a-line\n".encode()
        with pytest.raises(CorpusFormatError, match="^line 2: .*'not-a-line'"):
            parse_corpus(bad, "pbc")

    def test_crlf_and_cr_end_lines(self):
        data = b"40001001\ta\r\n40001002\tb\r40001003\tc\n"
        assert [v.text for v in parse_corpus(data, "pbc").books[40].verses] == ["a", "b", "c"]
        with pytest.raises(CorpusFormatError, match="^line 3: .*'not-a-line'"):
            parse_corpus(b"40001001\ta\r\n40001002\tb\rnot-a-line\n", "pbc")

    @pytest.mark.parametrize(
        "line",
        [
            "4_0\t1\t1\ttext",
            "+40\t1\t1\ttext",
            " \u0664\u0660\t1\t1\ttext",
            "40\t1\t-1\ttext",
            "40\t\t1\ttext",
            "40\t \t1\ttext",
            "\t40\t1\t1\ttext",
        ],
        ids=ascii,
    )
    def test_tsv_id_that_is_not_ascii_digits_is_a_shape_error(self, line):
        data = f"40\t1\t1\tfine\n{line}\n".encode()
        with pytest.raises(CorpusFormatError, match="^line 2: expected 'book<TAB>chapter"):
            parse_corpus(data, "tsv")

    @pytest.mark.parametrize(
        "ident",
        # fullwidth digits; whitespace inside the id; 7 and 9 digits; a tab before it
        ["\uff14\uff10\uff10\uff10\uff11\uff10\uff10\uff11", "40 01001", "4000 1001", "4000100",
         "400010011", "\t40001001"],
        ids=ascii,
    )
    def test_pbc_id_that_is_not_8_ascii_digits_is_a_shape_error(self, ident):
        data = f"40001001\tfine\n{ident}\ttext\n".encode()
        with pytest.raises(CorpusFormatError, match="^line 2: expected '<8-digit id><TAB>text'"):
            parse_corpus(data, "pbc")

    @pytest.mark.parametrize(
        "fmt,ref",
        [("tsv", " 40 \t 1\t2 "), ("pbc", " 40001002 "),
         ("tsv", "\u300040\xa0\t1\t2"), ("pbc", "\xa040001002\u3000")],
    )
    def test_whitespace_around_an_id_field_is_allowed(self, fmt, ref):
        tr = parse_corpus(f"{ref}\tsome text\n".encode(), fmt)
        assert tr.books[40].verses[0].ref == VerseRef(40, 1, 2)

    @pytest.mark.parametrize(
        "fmt,ref",
        [("tsv", "40\t0\t1"), ("tsv", "0\t1\t1"), ("pbc", "40001000"), ("pbc", "00001001")],
    )
    def test_zero_id_field_is_an_invalid_reference(self, fmt, ref):
        with pytest.raises(CorpusFormatError, match="^line 1: invalid verse reference"):
            parse_corpus(f"{ref}\ttext\n".encode(), fmt)

    @pytest.mark.parametrize("line", ["40\t1\ttext", "40\t1", "40 1 1 text"])
    def test_tsv_line_with_too_few_fields_is_a_shape_error(self, line):
        with pytest.raises(CorpusFormatError, match="^line 1: expected 'book<TAB>chapter"):
            parse_corpus(f"{line}\n".encode(), "tsv")


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


def reference_truncate_book(book, target, granularity):
    """Test-only copy of the earlier cut: find the token boundary, then trim
    each verse's piece, skipping empty pieces."""
    flat = flatten(book)
    if granularity == "token":
        cut = reference_last_token_boundary(flat, target)
        if cut == 0:
            cut = target
    else:
        cut = target
    kept = flat[:cut].rstrip(" ")
    new_verses = []
    offset = 0
    for verse in book.verses:
        if offset >= len(kept):
            break
        end = offset + len(verse.text)
        piece = kept[offset : min(end, len(kept))].rstrip(" ")
        if piece:
            new_verses.append(verse if piece == verse.text else Verse(verse.ref, piece))
        offset = end + 1
    return replace(book, verses=tuple(new_verses))


def reference_last_token_boundary(flat, target):
    if target >= len(flat):
        return len(flat)
    if flat[target] == " ":
        return target
    idx = flat.rfind(" ", 0, target)
    return idx if idx > 0 else 0


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

    def test_fewer_than_two_books_unchanged(self):
        # A lone book is its own shortest.
        book = make_book(["just one", "and its second verse"])
        for granularity in TRUNCATIONS:
            out = truncate_books([book], granularity)
            assert len(out) == 1 and out[0] is book
            assert truncate_books([], granularity) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(st.text("ab\u00e9", min_size=1, max_size=9), min_size=1, max_size=4),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=4,
        ),
        st.sampled_from(["token", "char"]),
    )
    # A token cut inside a first token longer than the target; a char cut
    # on the separator between two verses.
    @example([[["abcdefgh"], ["ab"]], [["a", "b"]]], "token")
    @example([[["ab"], ["a", "b"]], [["abc"]]], "char")
    def test_cut_equals_the_two_step_reference(self, books, granularity):
        books = [
            make_book([" ".join(tokens) for tokens in verses], book_id=40 + i)
            for i, verses in enumerate(books)
        ]
        target = min(b.char_length for b in books)
        expected = [
            b if b.char_length <= target else reference_truncate_book(b, target, granularity)
            for b in books
        ]
        assert truncate_books(books, granularity) == expected

    def test_bad_granularity(self):
        books = [make_book(["a b"]), make_book(["c d"], book_id=41)]
        for granularity in ("line", "character"):
            with pytest.raises(ValueError):
                truncate_books(books, granularity)


def pbc_books(ids):
    """A pbc corpus with one verse in each of the books ``ids``."""
    return "".join(f"{i:02d}001001\ttext of {i}\n" for i in ids).encode()


class TestSelect:
    def test_all_present(self):
        data = pbc_books([1, *DEFAULT_BOOK_IDS, 67])
        tr = parse_corpus(data, "pbc", books=DEFAULT_BOOK_IDS)
        assert list(tr.books) == sorted(DEFAULT_BOOK_IDS)
        assert tr.sha256 == parse_corpus(data, "pbc").sha256

    def test_missing_reported_not_fatal(self):
        data = pbc_books([40, 41, 42, 43, 66])  # no Acts
        tr = parse_corpus(data, "pbc", books=DEFAULT_BOOK_IDS)
        assert set(DEFAULT_BOOK_IDS) - set(tr.books) == {44}
        assert len(tr.books) == 5

    def test_empty_request_is_error(self):
        with pytest.raises(ValueError, match="no books requested"):
            parse_corpus(pbc_books([40]), "pbc", books=set())


def reference_parse_select(data, fmt, ids, lowercase):
    """Parse every book, then keep the requested ones: the two steps that
    ``parse_corpus(..., books=ids)`` does in one pass.

    Returns the kept books as (id, Book) pairs, the missing ids, the
    translation id, the digest and the count of verses skipped for empty
    text; raises what the parse raises.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"input is not valid UTF-8: {exc}") from None
    shape, n_ids, width = {
        "pbc": ("<8-digit id><TAB>text", 1, 8),
        "tsv": ("book<TAB>chapter<TAB>verse<TAB>text", 3, 0),
    }[fmt]
    comments, by_book, seen, skipped_empty = {}, defaultdict(list), {}, 0
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = stripped.lstrip("#").strip().partition(":")
            if sep and key.strip():
                comments.setdefault(key.strip().lower(), value.strip())
            continue
        fields = raw.split("\t", n_ids)
        if width:
            ident = fields[0].strip()
            fields[:1] = (ident[:2], ident[2:5], ident[5:]) if len(ident) == width else ()
        book, chapter, verse, body = fields if len(fields) == 4 else ("",) * 4
        book, chapter, verse = book.strip(), chapter.strip(), verse.strip()
        digits = book + chapter + verse
        if not (book and chapter and verse and digits.isascii() and digits.isdigit()) or (
            width and len(digits) != width
        ):
            raise CorpusFormatError(f"expected '{shape}', got {raw[:50]!r}", line_no)
        try:
            ref = VerseRef(int(book), int(chapter), int(verse))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), line_no) from None
        # Every data line takes the duplicate check, an empty one too.
        first = seen.setdefault(ref, line_no)
        if first != line_no:
            raise CorpusFormatError(
                f"duplicate verse reference {ref} (first seen at line {first})", line_no
            )
        body = " ".join((body.lower() if lowercase else body).split())
        if not body:
            skipped_empty += 1
            continue
        by_book[ref.book_id].append(Verse(ref, body))
    if not by_book:
        raise CorpusFormatError("no verses found in input")
    tid = comments.get("translation_id") or "unknown"
    lang = next((comments[k] for k in corpus_module._LANGUAGE_KEYS if comments.get(k)), "und")
    every = {
        book_id: Book(book_id, tuple(sorted(verses, key=lambda v: v.ref)), tid, lang)
        for book_id, verses in sorted(by_book.items())
    }
    wanted = set(every) if ids is None else set(ids)
    kept = [(book_id, every[book_id]) for book_id in sorted(wanted & set(every))]
    return kept, sorted(wanted - set(every)), tid, hashlib.sha256(data).hexdigest(), skipped_empty


#: The books the drawn corpora hold; 42 is requested at times but never present.
BOOK_POOL = (1, 40, 41, 66)

#: Rare faults, each placed on one drawn line (and so in that line's book).
FAULTS = ("shape", "zero", "duplicate", "utf8", "empty")


@st.composite
def faulty_corpora(draw):
    """A pbc or tsv corpus of several books with comments and rare faults."""
    fmt = draw(st.sampled_from(["pbc", "tsv"]))
    ref = st.tuples(st.sampled_from(BOOK_POOL), st.integers(1, 3), st.integers(1, 3))
    refs = draw(st.lists(ref, min_size=1, max_size=10, unique=True))
    texts = draw(st.lists(st.text("aB\u00e9 ", min_size=1, max_size=5).filter(str.strip),
                          min_size=len(refs), max_size=len(refs)))

    def line(ref, text, *, ids=None):
        b, c, v = ref
        if ids is None:
            ids = f"{b:02d}{c:03d}{v:03d}" if fmt == "pbc" else f"{b}\t{c}\t{v}"
        return (ids + "\t" + text + "\n").encode()

    lines = [line(r, t) for r, t in zip(refs, texts)]
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, len(refs) - 1)),
                           max_size=2))
    for fault, i in faults:
        (b, c, v), text = refs[i], texts[i]
        if fault == "shape":  # a 7-digit pbc id; a tsv line short of a field
            bad = f"{b:02d}{c:03d}{v:02d}" if fmt == "pbc" else f"{b}\t{c}"
            lines[i] = line(refs[i], text, ids=bad)
        elif fault == "zero":
            lines[i] = line((b, 0, v), text)
        elif fault == "duplicate":
            lines.append(line(refs[i], "again"))
        elif fault == "utf8":
            lines[i] = line(refs[i], text).rstrip(b"\n") + b"\xe2\x82\n"
        else:
            lines[i] = line(refs[i], draw(st.sampled_from(["", " ", "\u2028"])))
    comments = draw(st.lists(st.sampled_from([b"# translation_id: tr\n",
                                              b"# language_code: xyz\n", b"# note\n"])))
    order = draw(st.permutations(range(len(lines))))
    return b"".join(comments) + b"".join(lines[i] for i in order), fmt


class TestOnePassSelection:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        faulty_corpora(),
        st.none() | st.sets(st.sampled_from((*BOOK_POOL, 42)), min_size=1),
        st.booleans(),
    )
    # A duplicate reference and a zero id, each in a book nobody requested.
    @example((b"40001001\ta\n01001001\tb\n01001001\tc\n", "pbc"), {40}, False)
    @example((b"40\t1\t1\ta\n1\t0\t1\tb\n", "tsv"), {40}, False)
    # An empty verse and a text line of one reference, in both orders.
    @example((b"40001001\t\n40001001\ttext\n40001002\tmore\n", "pbc"), {40}, False)
    @example((b"40\t1\t1\ttext\n40\t1\t1\t \n40\t1\t2\tmore\n", "tsv"), {40}, False)
    def test_equals_parse_then_select(self, corpus, ids, lowercase):
        data, fmt = corpus
        try:
            expected = reference_parse_select(data, fmt, ids, lowercase)
        except CorpusFormatError as exc:
            with pytest.raises(CorpusFormatError) as raised:
                parse_corpus(data, fmt, lowercase=lowercase, books=ids)
            assert str(raised.value) == str(exc)
            return
        tr = parse_corpus(data, fmt, lowercase=lowercase, books=ids)
        wanted = set(tr.books) if ids is None else ids
        got = list(tr.books.items()), sorted(wanted - set(tr.books)), tr.translation_id
        assert (*got, tr.sha256, tr.skipped_empty) == expected


#: The characters besides ASCII digits and tabs that a drawn line holds:
#: an Arabic-Indic four, signs, a comment mark, a letter and whitespace that
#: is not a tab.
LINE_CHARS = ("\u0664", "+", "-", "_", "#", "a", " ", "\xa0", "\x85", "\x0b", "\x1c",
              "\u2028", "\u3000")


@st.composite
def grammar_lines(draw):
    """One line of 1 to 5 tab-separated fields, each a core of digits (8 at
    times, as in a pbc id; an Arabic-Indic four among them at times) or of
    LINE_CHARS, between two affixes."""
    affix = (st.just("") | st.text(st.sampled_from([c for c in LINE_CHARS if c.isspace()]),
                                   max_size=2) | st.text(st.sampled_from(LINE_CHARS), max_size=2))
    core = (st.text("0123456789", min_size=1, max_size=9)
            | st.text("0123456789", min_size=8, max_size=8)
            | st.text("0123456789\u0664", min_size=1, max_size=8) | affix)
    n = draw(st.integers(1, 5))
    fields = draw(st.lists(st.tuples(affix, core, affix).map("".join), min_size=n, max_size=n))
    return "\t".join(fields)


class TestLineGrammar:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(grammar_lines(), st.sampled_from(["pbc", "tsv"]))
    def test_line_outcome_equals_hand_split_reference(self, line, fmt):
        # The same verse, skip or error message as the reference's own field split.
        data = f"{line}\n".encode()
        try:
            expected = reference_parse_select(data, fmt, None, False)
        except CorpusFormatError as exc:
            with pytest.raises(CorpusFormatError) as raised:
                parse_corpus(data, fmt)
            assert str(raised.value) == str(exc)
            return
        tr = parse_corpus(data, fmt)
        assert (list(tr.books.items()), [], tr.translation_id, tr.sha256,
                tr.skipped_empty) == expected


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
