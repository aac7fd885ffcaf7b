"""Verse-aligned corpus handling.

Parses parallel corpora whose lines are individually addressable by
(book, chapter, verse), groups verses into books, and renders each book
as one string (:func:`flatten`) for entropy estimation. Inputs are
expected to be pre-tokenized (word tokens, punctuation included,
separated by single spaces) and pre-lowercased; an optional Unicode
default lowercasing pass is available for convenience, but
language-specific casing is out of scope.

Two input formats are supported:

* ``pbc``: UTF-8 lines of the form ``IIIIIIII<TAB>text`` where the
  8-digit id encodes book (2 digits), chapter (3 digits) and verse
  (3 digits). Lines starting with ``#`` are comments; ``# key: value``
  comments are recorded as provenance metadata.
* ``tsv``: UTF-8 lines of the form ``book_id<TAB>chapter<TAB>verse<TAB>text``
  with the same comment convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Union

logger = logging.getLogger(__name__)

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

#: Where :func:`truncate_books` may cut a book.
TRUNCATIONS = ("token", "char")

#: Provenance keys (normalized) that may carry the ISO 639-3 language code.
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
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
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
    """All books of one translation plus provenance metadata."""

    translation_id: str
    language: str
    books: Mapping[int, Book]
    provenance: Mapping[str, str] = field(default_factory=dict)


def flatten(book: Book) -> str:
    """Render a book as one character sequence, verses joined by a space.

    The separator is a plain space so the alphabet contains no artificial
    symbols, and ``flatten(book).split(" ")`` is the book's token list.
    """
    return " ".join([v.text for v in book.verses])


def parse_corpus(
    source: Union[bytes, str, Path, BinaryIO],
    fmt: str,
    *,
    lowercase: bool = False,
) -> Translation:
    """Parse a verse-aligned corpus file into a Translation.

    ``source`` may be raw bytes, a filesystem path, or a binary file
    object; the content must be valid UTF-8. ``fmt`` selects the line
    format, one of :data:`FORMATS`. Verses are sorted by reference
    within each book. Data lines whose text is empty (untranslated
    verses) are skipped and counted in the provenance entry
    ``skipped_empty_verses``. A ``# translation_id: ...`` comment sets
    the translation id; the default is the file name's stem.
    """
    data, default_id = _read_source(source)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"input is not valid UTF-8: {exc}") from None

    fmt = fmt.lower()
    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r} (expected one of {FORMATS})")
    parse_line = _parse_pbc_line if fmt == "pbc" else _parse_tsv_line

    provenance: dict[str, str] = {}
    by_book: dict[int, list[Verse]] = {}
    seen: dict[VerseRef, int] = {}
    skipped_empty = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            kv = _parse_comment(stripped)
            if kv is not None:
                provenance.setdefault(kv[0], kv[1])
            continue
        ref, body = parse_line(raw, line_no)
        if lowercase:
            body = body.lower()
        body = " ".join(body.split())
        if not body:
            skipped_empty += 1
            continue
        if ref in seen:
            raise CorpusFormatError(
                f"duplicate verse reference {ref} (first seen at line {seen[ref]})",
                line_no,
            )
        seen[ref] = line_no
        by_book.setdefault(ref.book_id, []).append(Verse(ref, body))

    if not seen:
        raise CorpusFormatError("no verses found in input")
    if skipped_empty:
        provenance["skipped_empty_verses"] = str(skipped_empty)
        logger.warning("skipped %d verses with empty text", skipped_empty)

    tid = provenance.get("translation_id") or default_id or "unknown"
    lang = _language_from_provenance(provenance) or "und"

    books = {
        book_id: Book(
            book_id=book_id,
            verses=tuple(sorted(verses, key=lambda v: v.ref)),
            translation_id=tid,
            language=lang,
        )
        for book_id, verses in sorted(by_book.items())
    }
    return Translation(translation_id=tid, language=lang, books=books, provenance=provenance)


def select_books(
    translation: Translation, ids: Iterable[int]
) -> tuple[list[Book], set[int]]:
    """Pick the requested books, reporting (not failing on) missing ids."""
    wanted = set(ids)
    if not wanted:
        raise ValueError("no books requested")
    found = [translation.books[i] for i in sorted(wanted) if i in translation.books]
    missing = wanted - set(translation.books)
    if missing:
        logger.warning(
            "translation %s is missing books %s",
            translation.translation_id,
            sorted(missing),
        )
    return found, missing


def truncate_books(
    books: Iterable[Book], granularity: str = "token"
) -> list[Book]:
    """Cut all books down to the flattened length of the shortest one.

    The shortest book is returned unchanged. With ``granularity="token"``
    the cut is placed at the last token boundary not exceeding the target
    length, so no token is ever split; with ``granularity="char"`` the
    cut is exact (a trailing separator space is dropped). Books are
    truncated in their given verse order, so any randomization should be
    applied afterwards.
    """
    if granularity not in TRUNCATIONS:
        raise ValueError(f"unknown truncation granularity {granularity!r}")
    books = list(books)
    if len(books) < 2:
        raise ValueError("truncation needs at least two books")
    lengths = [b.char_length for b in books]
    target = min(lengths)
    return [
        b if n <= target else _truncate_book(b, target, granularity)
        for b, n in zip(books, lengths)
    ]


def _truncate_book(book: Book, target: int, granularity: str) -> Book:
    flat = flatten(book)
    if granularity == "token":
        cut = _last_token_boundary(flat, target)
        if cut == 0:
            # Degenerate corpus: the first token alone exceeds the target.
            cut = target
    else:
        cut = target
    kept = flat[:cut].rstrip(" ")

    new_verses: list[Verse] = []
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


def _last_token_boundary(flat: str, target: int) -> int:
    """Largest prefix length <= target that ends exactly at a token end."""
    if target >= len(flat):
        return len(flat)
    if flat[target] == " ":
        return target
    idx = flat.rfind(" ", 0, target)
    return idx if idx > 0 else 0


def _read_source(
    source: Union[bytes, str, Path, BinaryIO]
) -> tuple[bytes, str | None]:
    if isinstance(source, bytes):
        return source, None
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.read_bytes(), path.stem
    return source.read(), None


def _parse_comment(line: str) -> tuple[str, str] | None:
    body = line.lstrip("#").strip()
    key, sep, value = body.partition(":")
    if not sep or not key.strip():
        return None
    return key.strip().lower(), value.strip()


def _language_from_provenance(provenance: Mapping[str, str]) -> str | None:
    for key in _LANGUAGE_KEYS:
        value = provenance.get(key)
        if value:
            return value
    return None


def _parse_pbc_line(line: str, line_no: int) -> tuple[VerseRef, str]:
    ident, sep, body = line.partition("\t")
    ident = ident.strip()
    if not sep or len(ident) != 8 or not ident.isdigit():
        raise CorpusFormatError(
            f"expected '<8-digit id><TAB>text', got {line[:50]!r}", line_no
        )
    try:
        ref = VerseRef(int(ident[:2]), int(ident[2:5]), int(ident[5:8]))
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line_no) from None
    return ref, body


def _parse_tsv_line(line: str, line_no: int) -> tuple[VerseRef, str]:
    parts = line.split("\t", 3)
    if len(parts) != 4:
        raise CorpusFormatError(
            f"expected 'book<TAB>chapter<TAB>verse<TAB>text', got {line[:50]!r}",
            line_no,
        )
    try:
        ref = VerseRef(int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line_no) from None
    return ref, parts[3]
