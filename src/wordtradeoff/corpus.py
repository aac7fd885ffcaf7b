"""Verse-aligned corpus handling.

Parses parallel corpora whose lines are individually addressable by
(book, chapter, verse), checking every line but building only the
requested books, and renders each book as one string (:func:`flatten`)
for entropy estimation. Inputs are expected to be pre-tokenized (word
tokens, punctuation included, separated by single spaces) and
pre-lowercased; an optional Unicode default lowercasing pass is
available for convenience, but language-specific casing is out of scope.

Two input formats are supported:

* ``pbc``: UTF-8 lines of the form ``IIIIIIII<TAB>text`` where the
  8-digit id encodes book (2 digits), chapter (3 digits) and verse
  (3 digits). Lines starting with ``#`` are comments. A
  ``# translation_id: ...`` comment sets the translation id and a
  ``# language_code: ...`` (or ``# closest ISO 639-3: ...`` and similar)
  comment the language; every other comment is ignored.
* ``tsv``: UTF-8 lines of the form ``book_id<TAB>chapter<TAB>verse<TAB>text``
  with the same comment convention.

In both, an id field is one or more ASCII digits ``0-9``, and the pbc id is
exactly 8 of them with nothing between. Any Unicode whitespace except a
tab may stand around an id field. Book, chapter and verse are at least 1.
``analyze`` reports an input error as ``<path>: <message>``.

Lines end at ``\n``, ``\r\n`` or ``\r`` only, and a leading UTF-8 byte-order
mark is refused. Any other Unicode line or paragraph separator inside a
verse is whitespace, like a tab.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

#: Canonical book numbering (66-book Protestant canon, as used by the
#: 8-digit verse ids of the pbc format).
BOOK_NAMES: dict[int, str] = {
    1: "Genesis", 2: "Exodus", 3: "Leviticus", 4: "Numbers", 5: "Deuteronomy",
    6: "Joshua", 7: "Judges", 8: "Ruth", 9: "1 Samuel", 10: "2 Samuel",
    11: "1 Kings", 12: "2 Kings", 13: "1 Chronicles", 14: "2 Chronicles",
    15: "Ezra", 16: "Nehemiah", 17: "Esther", 18: "Job", 19: "Psalms",
    20: "Proverbs", 21: "Ecclesiastes", 22: "Song of Solomon", 23: "Isaiah",
    24: "Jeremiah", 25: "Lamentations", 26: "Ezekiel", 27: "Daniel",
    28: "Hosea", 29: "Joel", 30: "Amos", 31: "Obadiah", 32: "Jonah",
    33: "Micah", 34: "Nahum", 35: "Habakkuk", 36: "Zephaniah", 37: "Haggai",
    38: "Zechariah", 39: "Malachi", 40: "Matthew", 41: "Mark", 42: "Luke",
    43: "John", 44: "Acts", 45: "Romans", 46: "1 Corinthians",
    47: "2 Corinthians", 48: "Galatians", 49: "Ephesians", 50: "Philippians",
    51: "Colossians", 52: "1 Thessalonians", 53: "2 Thessalonians",
    54: "1 Timothy", 55: "2 Timothy", 56: "Titus", 57: "Philemon",
    58: "Hebrews", 59: "James", 60: "1 Peter", 61: "2 Peter", 62: "1 John",
    63: "2 John", 64: "3 John", 65: "Jude", 66: "Revelation",
}

#: Default analysis set: the four Gospels, Acts and Revelation.
DEFAULT_BOOK_IDS: tuple[int, ...] = (40, 41, 42, 43, 44, 66)

#: Corpus line formats (see the module docstring).
FORMATS = ("pbc", "tsv")

#: Each format's data line: its shape as error messages name it, and a regex
#: whose groups are the book, chapter and verse ids and the text. An id is
#: ASCII digits (``[0-9]``: ``\d`` takes other scripts' digits) with any
#: whitespace but a tab around it (``_W``: ``\s`` would take a tab before it).
_W = r"[^\S\t]*"
_GRAMMARS = {
    "pbc": ("<8-digit id><TAB>text",
            re.compile(rf"{_W}([0-9]{{2}})([0-9]{{3}})([0-9]{{3}}){_W}\t(.*)")),
    # Written out three times: a {3} on one group would keep only the last id.
    "tsv": ("book<TAB>chapter<TAB>verse<TAB>text",
            re.compile(rf"{_W}([0-9]+){_W}\t" * 3 + "(.*)")),
}

#: Where :func:`truncate_books` may cut a book.
TRUNCATIONS = ("token", "char")

#: Comment keys (normalized) that may carry the ISO 639-3 language code.
_LANGUAGE_KEYS = (
    "closest iso 639-3",
    "iso 639-3",
    "iso_639_3",
    "language_code",
    "language",
)


class CorpusFormatError(ValueError):
    """Raised for malformed or inconsistent corpus input."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


@dataclass(frozen=True, order=True, slots=True)
class VerseRef:
    """Canonical verse address; ordering is (book, chapter, verse)."""

    book_id: int
    chapter: int
    verse: int

    def __post_init__(self) -> None:
        if self.book_id < 1 or self.chapter < 1 or self.verse < 1:
            raise ValueError(f"invalid verse reference {self!r}")

    def __str__(self) -> str:
        return f"{self.book_id}:{self.chapter}:{self.verse}"


@dataclass(frozen=True, slots=True)
class Verse:
    """One verse of pre-tokenized text (tokens separated by single spaces)."""

    ref: VerseRef
    text: str

    def __post_init__(self) -> None:
        t = self.text
        if not t:
            raise ValueError(f"empty verse text at {self.ref}")
        if t != t.strip(" ") or "  " in t:
            raise ValueError(f"verse text not space-normalized at {self.ref}")


@dataclass(frozen=True)
class Book:
    """An ordered sequence of verses, the unit of analysis."""

    book_id: int
    verses: tuple[Verse, ...]
    translation_id: str = "unknown"
    language: str = "und"

    def __post_init__(self) -> None:
        if not self.verses:
            raise ValueError(f"book {self.book_id} has no verses")

    @property
    def char_length(self) -> int:
        """Character count of the flattened book (verses joined by spaces)."""
        return sum(len(v.text) for v in self.verses) + len(self.verses) - 1


@dataclass(frozen=True)
class Translation:
    """All books of one translation, the sha256 hex digest of its input bytes,
    and the number of data lines skipped for their empty text."""

    translation_id: str
    books: Mapping[int, Book]
    sha256: str
    skipped_empty: int


def flatten(book: Book) -> str:
    """Render a book as one character sequence, verses joined by a space.

    The separator is a plain space so the alphabet contains no artificial
    symbols, and ``flatten(book).split(" ")`` is the book's token list.
    """
    return " ".join([v.text for v in book.verses])


def parse_corpus(
    source: bytes | str | Path,
    fmt: str,
    *,
    lowercase: bool = False,
    books: Iterable[int] | None = None,
) -> Translation:
    """Parse a verse-aligned corpus file into a Translation.

    ``source`` is the input's bytes or its path (``str`` or ``Path``); the
    content must be valid UTF-8. ``fmt`` is exactly ``"pbc"`` or ``"tsv"``
    (:data:`FORMATS`). Every data line is checked, an empty one for a
    duplicate reference too, but only the books ``books`` names (default:
    all; none is a ``ValueError``) are built, so a requested id the input
    lacks is absent from the result. Verses are sorted by reference within
    each book. Data lines whose text is empty (untranslated verses) are
    skipped, in every book, and counted in ``Translation.skipped_empty``;
    nothing is logged, so a caller that parses one input several times
    can report the count once. A
    ``# translation_id: ...`` comment sets the translation id; the
    default is the file name's stem, which must then be valid UTF-8
    (else :class:`CorpusFormatError`), and a ``# language_code: ...`` (or
    similar) comment sets the language; other comments are ignored.
    """
    if books is not None and not (books := frozenset(books)):
        raise ValueError("no books requested")
    path = None if isinstance(source, bytes) else Path(source)
    data = source if path is None else path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"input is not valid UTF-8: {exc}") from None
    if text.startswith("\ufeff"):
        raise CorpusFormatError("input starts with a UTF-8 byte-order mark; save it without one", 1)

    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r} (expected one of {FORMATS})")

    comments: dict[str, str] = {}
    by_book: defaultdict[int, list[tuple[tuple[int, int, int], str]]] = defaultdict(list)
    seen: dict[tuple[int, int, int], int] = {}  # (book, chapter, verse) -> line number
    skipped_empty = 0

    # str.splitlines would also break at \x0b, \x0c, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which the body's whitespace split turns into spaces.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    shape, grammar = _GRAMMARS[fmt]
    for line_no, raw in enumerate(lines, start=1):
        # A data line starts, after whitespace, with a digit: never blank or a comment.
        match = grammar.fullmatch(raw)
        if match is None:
            stripped = raw.strip()
            if stripped.startswith("#"):
                kv = _parse_comment(stripped)
                if kv is not None:
                    comments.setdefault(kv[0], kv[1])
            elif stripped:
                raise CorpusFormatError(f"expected '{shape}', got {raw[:50]!r}", line_no)
            continue
        book, chapter, verse, body = match.groups()
        key = int(book), int(chapter), int(verse)
        if 0 in key:  # the only id below 1 that digits spell: VerseRef names it
            try:
                VerseRef(*key)
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line_no) from None
        kept = books is None or key[0] in books
        if kept:  # unkept text is tested raw: lowercasing neither adds nor drops whitespace
            body = " ".join((body.lower() if lowercase else body).split())
        first = seen.setdefault(key, line_no)
        if first != line_no:
            raise CorpusFormatError(
                f"duplicate verse reference {VerseRef(*key)} (first seen at line {first})",
                line_no,
            )
        if not body or body.isspace():
            skipped_empty += 1
        elif kept:
            by_book[key[0]].append((key, body))

    # Each data line has its own key: equal counts mean every verse was empty.
    if len(seen) == skipped_empty:
        raise CorpusFormatError("no verses found in input")
    tid = comments.get("translation_id") or (path and path.stem) or "unknown"
    # Only a file name that is not valid UTF-8 gives an id lone surrogates.
    if any("\ud800" <= c <= "\udfff" for c in tid):
        raise CorpusFormatError(
            "file name is not valid UTF-8; give the input a '# translation_id: ...' comment"
        )
    lang = _language_from_comments(comments) or "und"

    # Keys are unique, so sorting the pairs sorts by reference alone.
    built = {
        book_id: Book(
            book_id=book_id,
            verses=tuple(Verse(VerseRef(*key), body) for key, body in sorted(verses)),
            translation_id=tid,
            language=lang,
        )
        for book_id, verses in sorted(by_book.items())
    }
    return Translation(tid, built, hashlib.sha256(data).hexdigest(), skipped_empty)


def truncate_books(
    books: Iterable[Book], granularity: str = "token"
) -> list[Book]:
    """Cut all books down to the flattened length of the shortest one.

    The shortest book is returned unchanged, and so are fewer than two
    books, since a lone book is its own shortest. With
    ``granularity="token"`` the cut is placed at the last token boundary not
    exceeding the target length, so no token is split unless a book's first
    token alone exceeds it; with ``granularity="char"`` the cut is exact (a
    trailing separator space is dropped). Books are truncated in their given
    verse order, so any randomization should be applied afterwards.
    """
    if granularity not in TRUNCATIONS:
        raise ValueError(f"unknown truncation granularity {granularity!r}")
    books = list(books)
    lengths = [b.char_length for b in books]
    target = min(lengths, default=0)
    return [
        b if n <= target else _truncate_book(b, target, granularity)
        for b, n in zip(books, lengths)
    ]


def _truncate_book(book: Book, target: int, granularity: str) -> Book:
    flat = flatten(book)
    cut = flat.rfind(" ", 0, target + 1) if granularity == "token" else -1
    # No space at or before the target (the first token alone exceeds it), or
    # a char cut: cut at the target. A trailing separator space is dropped.
    kept = flat[: target if cut < 0 else cut].rstrip(" ")

    new_verses: list[Verse] = []
    offset = 0
    for verse in book.verses:
        piece = kept[offset : offset + len(verse.text)]
        if not piece:
            break
        new_verses.append(verse if piece == verse.text else Verse(verse.ref, piece))
        offset += len(verse.text) + 1
    return replace(book, verses=tuple(new_verses))


def _parse_comment(line: str) -> tuple[str, str] | None:
    body = line.lstrip("#").strip()
    key, sep, value = body.partition(":")
    if not sep or not key.strip():
        return None
    return key.strip().lower(), value.strip()


def _language_from_comments(comments: Mapping[str, str]) -> str | None:
    for key in _LANGUAGE_KEYS:
        value = comments.get(key)
        if value:
            return value
    return None
