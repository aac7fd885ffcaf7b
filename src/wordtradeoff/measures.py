"""Three-variant measurement of word-order and word-structure information.

For each book and replicate, one verse permutation is drawn and applied
to all three variants so comparisons are paired: the original variant is
the verse-shuffled text itself, the order variant additionally permutes
tokens, and the structure variant masks word internals (then carries the
same verse permutation). The verse-shuffled book is flattened and split
into tokens once; both transforms take that token list. The two
penalties are

    d_order     = h(order variant)     - h(original variant)
    d_structure = h(structure variant) - h(original variant)

in bits per character: the description-length cost of having destroyed
that dimension of regularity. Replicates vary only the derived seeds.
Estimation noise can push a penalty slightly below zero on short books;
values are returned as computed, never clamped, and nothing here logs.

Results take one form, the :class:`ResultsTable` of columns (tuples of
str and standard-library ``array`` columns of int64 and float64):
``write_results_csv`` writes one, ``read_results_csv`` reads it back, and
``aggregate`` averages it, one grouping step applied per translation and
then per language, into two :class:`GroupMeans` tables of groups by books.
``stats`` selects its books from them once, and every statistic indexes
a selection. Measuring and writing need no numpy: ``aggregate``, the
reader's checks and ``GroupMeans.select`` import it inside the function,
when they first run.

``read_results_csv`` reads a path whole (about 2 MB at PBC scale). A file
in the plain form that ``write_results_csv`` writes is split into columns
by one compiled pass (``results_scan`` in ``_kernels.c``). A text stream,
any other file, and any file where the library cannot be built take the
``csv`` module, ``_CHUNK_ROWS`` records at a time.
"""

from __future__ import annotations

import csv
import ctypes
import io
import math
import sys
from array import array
from dataclasses import dataclass, fields
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Sequence

from .corpus import Book, flatten
from .entropy import KernelBuildError, entropy_rate, load_library, match_lengths
from .transforms import (
    PURPOSE_TAGS,
    build_mask_table,
    derive_seed,
    destroy_word_order,
    mask_word_structure,
    shuffle_verses,
)

if TYPE_CHECKING:
    import numpy as np

ORDER_SCOPES = ("verse", "book")

#: Fixed column order of the results table.
RESULT_COLUMNS = (
    "translation_id",
    "language",
    "book_id",
    "replicate",
    "N",
    "h_original",
    "h_order",
    "h_structure",
    "d_order",
    "d_structure",
)


def format_float(x: float) -> str:
    """Serialize with 6 significant digits (round-half-even)."""
    return format(x, ".6g")


#: Rounding to 6 significant digits moves a value by at most half a unit
#: in its 6th digit, which is at most 5e-6 of the value written; the
#: factor covers the rounding of the subtraction that checks a penalty.
_ROUNDING_6G = 5e-6 * (1 + 1e-9)


@dataclass(frozen=True)
class MeasureConfig:
    master_seed: int = 0
    replicates: int = 3
    order_scope: str = "verse"
    verse_shuffle: bool = True

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.order_scope not in ORDER_SCOPES:
            raise ValueError(f"unknown order-destruction scope {self.order_scope!r}")


@dataclass(frozen=True)
class BookMeasurement:
    """One replicate's entropy estimates and penalties for one book."""

    translation_id: str
    language: str
    book_id: int
    replicate: int
    n_chars: int
    h_original: float
    h_order: float
    h_structure: float
    d_order: float
    d_structure: float


@dataclass(frozen=True, eq=False)
class ResultsTable:
    """A results table as columns, one per ``RESULT_COLUMNS`` entry, rows in
    file order. The ids are tuples of str, ``book_id``, ``replicate`` and
    ``n_chars`` are ``array("q")`` (int64), and the entropies and penalties
    ``array("d")`` (float64); ``numpy.asarray`` views a column without a copy."""

    translation_id: tuple[str, ...]
    language: tuple[str, ...]
    book_id: array
    replicate: array
    n_chars: array
    h_original: array
    h_order: array
    h_structure: array
    d_order: array
    d_structure: array

    def __len__(self) -> int:
        return len(self.translation_id)

    @classmethod
    def from_measurements(cls, rows: Iterable[BookMeasurement]) -> ResultsTable:
        rows = list(rows)
        return _table([[getattr(m, f.name) for m in rows] for f in fields(cls)])


def _table(columns: Sequence[Sequence]) -> ResultsTable:
    """The table of ten raw columns: two of text, three of ints, five of floats."""
    return ResultsTable(
        *map(tuple, columns[:2]),
        *(array("q", c) for c in columns[2:5]),
        *(array("d", c) for c in columns[5:]),
    )


@dataclass(frozen=True, eq=False)
class GroupMeans:
    """Mean penalties per group (translation or language) and book.

    Cell ``[g, b]`` of the float64 arrays ``d_order`` and ``d_structure``
    holds group ``groups[g]`` on book ``book_ids[b]``; it is NaN where the
    group has no row for that book. ``groups`` are sorted; ``aggregate``
    gives ``book_ids`` ascending, ``select`` in the order asked for.
    """

    groups: tuple[str, ...]
    book_ids: tuple[int, ...]
    d_order: np.ndarray
    d_structure: np.ndarray

    def select(self, book_ids: Sequence[int]) -> GroupMeans:
        """The table of the columns of ``book_ids``, in the order given. An
        id the table lacks becomes a column that no group has (all NaN)."""
        import numpy as np
        position = {book_id: j for j, book_id in enumerate(self.book_ids)}
        columns = [position.get(book_id, len(position)) for book_id in book_ids]
        absent = np.full((len(self.groups), 1), np.nan)
        d_order = np.hstack((self.d_order, absent))[:, columns]
        d_structure = np.hstack((self.d_structure, absent))[:, columns]
        return GroupMeans(self.groups, tuple(book_ids), d_order, d_structure)


def measure_replicate(book: Book, replicate: int, config: MeasureConfig) -> BookMeasurement:
    """Estimate all three variants of one book for one replicate."""
    key = (config.master_seed, book.translation_id, book.book_id, replicate)
    seeds = {purpose: derive_seed(*key, purpose) for purpose in PURPOSE_TAGS}

    base = shuffle_verses(book, seeds["verse_shuffle"]) if config.verse_shuffle else book
    text = flatten(base)
    h_original = entropy_rate(match_lengths(text))

    # Both variants are built from the one token list of the original.
    tokens = text.split(" ")
    if config.order_scope == "book":
        counts = [len(tokens)]
    else:
        counts = [v.text.count(" ") + 1 for v in base.verses]
    order_text = destroy_word_order(tokens, counts, seeds["order_shuffle"])
    h_order = entropy_rate(match_lengths(order_text))

    table = build_mask_table(dict.fromkeys(tokens), seeds["mask_draw"])
    masked_text = mask_word_structure(tokens, table)
    h_structure = entropy_rate(match_lengths(masked_text))

    return BookMeasurement(
        translation_id=book.translation_id,
        language=book.language,
        book_id=book.book_id,
        replicate=replicate,
        n_chars=len(text),
        h_original=h_original,
        h_order=h_order,
        h_structure=h_structure,
        d_order=h_order - h_original,
        d_structure=h_structure - h_original,
    )


def measure_book(book: Book, config: MeasureConfig | None = None) -> list[BookMeasurement]:
    """Measure every replicate of one book."""
    config = config or MeasureConfig()
    return [measure_replicate(book, r, config) for r in range(config.replicates)]


def aggregate(results: ResultsTable) -> tuple[GroupMeans, GroupMeans]:
    """Average penalties per translation and book, then per language and book.

    Returns ``(per_translation, per_language)``, from one grouping step
    (``_group``) applied per translation and then per language: replicates
    are averaged per translation, and those translation means are then
    averaged (unweighted) per language. Each mean is
    ``math.fsum(units) / len(units)``, as ``statistics.fmean`` computes it.
    """
    import numpy as np
    if not len(results):
        raise ValueError("no measurements to aggregate")
    book_id = np.asarray(results.book_id)
    per_translation, first, means = _group(
        results.translation_id, book_id, results.d_order, results.d_structure)
    # A translation's language is the one on its first row of the book.
    languages = [results.language[i] for i in first.tolist()]
    return per_translation, _group(languages, book_id[first], *means)[0]


def _group(names: Sequence[str], books: np.ndarray, d_order: Sequence[float],
           d_structure: Sequence[float]) -> tuple[GroupMeans, np.ndarray, list[list[float]]]:
    """Average both penalties over each run of rows of one (name, book): the
    table of those means by name and book, each run's first row, and the
    runs' means of ``d_order`` and of ``d_structure``."""
    import numpy as np
    groups, codes = _codes(names)
    order, bounds = _runs(codes, books)
    first = order[bounds[:-1]]
    means = [_means(np.asarray(d)[order].tolist(), bounds) for d in (d_order, d_structure)]
    book_ids, columns = np.unique(books[first], return_inverse=True)
    cells = np.full((2, len(groups), len(book_ids)), np.nan)
    cells[:, codes[first], columns] = means
    return GroupMeans(groups, tuple(book_ids.tolist()), *cells), first, means


def _codes(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    import numpy as np
    distinct = tuple(sorted(set(values)))
    index = {value: code for code, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort by ``keys`` (the first is primary), and the bounds of
    its runs of equal keys: run ``r`` is ``order[bounds[r]:bounds[r + 1]]``."""
    import numpy as np
    order = np.lexsort(keys[::-1])
    ordered = np.stack(keys)[:, order]
    starts = np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1
    return order, np.concatenate(([0], starts, [len(order)]))


def _means(values: list[float], bounds: np.ndarray) -> list[float]:
    """The mean of each run ``values[bounds[r]:bounds[r + 1]]``."""
    edges = bounds.tolist()
    return [math.fsum(values[a:b]) / (b - a) for a, b in zip(edges, edges[1:])]


def write_results_csv(table: ResultsTable, fh: IO[str]) -> None:
    """Write ``table`` sorted by (translation, book, replicate), so the
    bytes do not depend on the order the rows were measured in; the
    inverse of ``read_results_csv``."""
    keys = list(zip(table.translation_id, table.book_id, table.replicate))
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable, as the reader expects
    columns = [getattr(table, f.name) for f in fields(ResultsTable)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    writer.writerows(zip(
        *([column[i] for i in order] for column in columns[:5]),
        *(map(format_float, [column[i] for i in order]) for column in columns[5:]),
    ))


#: Rows the csv path converts at a time: large enough that per-chunk work
#: is negligible, small enough that its text rows never all sit in memory.
_CHUNK_ROWS = 1024

#: The header line of the plain form, the form ``write_results_csv`` writes.
_HEADER = (",".join(RESULT_COLUMNS) + "\n").encode()


def read_results_csv(source: str | Path | IO[str]) -> ResultsTable:
    """Read a results table back, as columns.

    Raises ValueError naming the row on a schema mismatch, a record the
    ``csv`` module cannot read (such as a field over its size limit), a
    field that does not parse (``book_id``, ``replicate`` and ``N`` take
    ASCII digits only, so no replicate is below 0), a non-finite value, a
    book id below 1, N < 1, a penalty that is not
    ``h_variant - h_original`` up to the 6-significant-digit rounding of
    the three values, a repeated (translation, book, replicate) key, or a
    translation whose language differs from the one on its first row.
    Rows are numbered by CSV record, blank records included. The row
    named is the first bad one in file order, and the fault named is the
    first one it has, in the order listed.

    A path is read whole (about 2 MB at PBC scale). A file in the plain
    form that ``write_results_csv`` writes (see ``_scan``) is split into
    columns by one compiled pass; any other file, a text stream, or any
    source where the library cannot be built takes the csv path: chunks
    of ``_CHUNK_ROWS`` records, each split into columns and converted by
    the builtins ``int`` and ``float``, after one check of each whole
    integer column. The value and key checks then run on the whole
    columns, on either path.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        table = _scan(data)
        if table is not None:
            _check_rows(table, range(2, len(table) + 2))
            return table
        # Through the layers open() stacks, so a decode error reads alike.
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    reader = csv.reader(source)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"results CSV row 1: {exc}") from None
    if header is None or tuple(header) != RESULT_COLUMNS:
        raise ValueError(
            f"results CSV schema mismatch: expected columns {','.join(RESULT_COLUMNS)}"
        )
    columns = [[], [], *(array("q") for _ in range(3)), *(array("d") for _ in range(5))]
    row_nos = array("q")  # each row's CSV record number, beside the columns
    start = 2  # the number of the next record; the header is record 1
    unreadable = None  # the error of the first row that does not read or convert
    while unreadable is None:
        rows: list[list[str]] = []  # keeps the records read before a csv.Error
        try:
            rows.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as exc:
            unreadable = f"results CSV row {start + len(rows)}: {exc}"
        if not rows:
            break
        nos = range(start, start + len(rows))
        start += len(rows)
        if not all(rows):  # drop the blank records
            kept = list(map(bool, rows))
            rows, nos = list(compress(rows, kept)), list(compress(nos, kept))
        try:
            converted = _convert(rows)
        except (ValueError, OverflowError):
            for bad, rec in enumerate(rows):
                try:
                    _convert([rec])
                except (ValueError, OverflowError) as exc:
                    unreadable = f"results CSV row {nos[bad]}: {exc}"
                    break
            nos, converted = nos[:bad], _convert(rows[:bad])
        row_nos.extend(nos)
        for column, values in zip(columns, converted):
            column.extend(values)
    table = _table(columns)
    _check_rows(table, row_nos)
    if unreadable is not None:
        raise ValueError(unreadable)
    return table


def _scan(data: bytes) -> ResultsTable | None:
    """The table of a results file's bytes by ``results_scan`` of
    ``_kernels.c``, or None where they are not in the plain form named
    there, with no field over ``csv.field_size_limit()``, or the library
    cannot be built. Equal ids share one string object."""
    if not data.startswith(_HEADER):
        return None
    try:
        scan = load_library().results_scan
    except KernelBuildError:
        return None
    n = data.count(b"\n", len(_HEADER))
    columns = [*(array("q", [0]) * n for _ in range(3)), *(array("d", [0.0]) * n for _ in range(5))]
    addresses = (ctypes.c_void_p * len(columns))(*(c.buffer_info()[0] for c in columns))
    runs = array("q", [0]) * (3 * n + 1)
    limit = csv.field_size_limit()
    if scan(data, len(_HEADER), len(data), limit, addresses, runs.buffer_info()[0]) < 0:
        return None
    # Per run of equal ids: its first row and the span of "id,language";
    # then the row count, which ends the last run.
    marks = runs[: 3 * runs[::3].index(n) + 1].tolist()
    pairs = [data[a:b].decode().split(",") for a, b in zip(marks[1::3], marks[2::3])]
    counts = [b - a for a, b in zip(marks[::3], marks[3::3])]
    return ResultsTable(*(
        tuple(chain.from_iterable(repeat(sys.intern(p[k]), c) for p, c in zip(pairs, counts)))
        for k in (0, 1)
    ), *columns)


def _convert(rows: list[list[str]]) -> list:
    """The ten columns of ``rows``; equal ids share one string object."""
    if set(map(len, rows)) - {len(RESULT_COLUMNS)}:
        raise ValueError("wrong field count")
    text = list(zip(*rows)) or [()] * len(RESULT_COLUMNS)
    return [
        *(list(map(sys.intern, column)) for column in text[:2]),
        *(_ints(name, column) for name, column in zip(RESULT_COLUMNS[2:5], text[2:5])),
        *(array("d", map(float, column)) for column in text[5:]),
    ]


def _ints(name: str, column: Sequence[str]) -> array:
    """``column`` as int64. Each field must be ASCII digits, as every integer
    the package reads; ``int`` alone would take signs, ``_`` and other digits."""
    digits = "".join(column)
    if column and not (all(column) and digits.isascii() and digits.isdigit()):
        bad = next(field for field in column if not (field.isascii() and field.isdigit()))
        raise ValueError(f"{name} must be ASCII digits, got {bad!r}")
    return array("q", map(int, column))


def _check_rows(table: ResultsTable, row_nos: Sequence[int]) -> None:
    """Raise ValueError naming the first bad row and the first check it
    fails, in the order ``read_results_csv`` lists them. ``row_nos`` holds
    each row's CSV record number."""
    import numpy as np
    if not len(table):
        return
    values = h0, h_order, h_structure, d_order, d_structure = tuple(map(np.asarray, (
        table.h_original, table.h_order, table.h_structure, table.d_order, table.d_structure
    )))
    finite = np.logical_and.reduce([np.isfinite(x) for x in values])
    off = {}  # rows whose penalty is not the difference of the h values
    with np.errstate(invalid="ignore", over="ignore"):
        for name, d, h in (("d_order", d_order, h_order),
                           ("d_structure", d_structure, h_structure)):
            off[name] = np.abs(d - (h - h0)) > _ROUNDING_6G * (np.abs(d) + np.abs(h) + np.abs(h0))
    # Each row's first row in file order with the same key, and with the
    # same translation.
    translations = _codes(table.translation_id)[1]
    order, bounds = _runs(translations, table.book_id, table.replicate)
    first_of_key = np.empty_like(order)
    first_of_key[order] = np.repeat(order[bounds[:-1]], np.diff(bounds))
    first_of_translation = np.unique(translations, return_index=True)[1][translations]
    languages = _codes(table.language)[1]

    bad = ~finite | (np.asarray(table.book_id) < 1) | (np.asarray(table.n_chars) < 1)
    bad |= off["d_order"] | off["d_structure"]
    bad |= first_of_key != np.arange(len(table))
    bad |= languages != languages[first_of_translation]
    if not bad.any():
        return
    i = int(np.argmax(bad))
    penalty = next((name for name in off if off[name][i]), None)
    if not finite[i]:
        fault = "non-finite value"
    elif table.book_id[i] < 1:
        fault = f"book_id must be >= 1, got {table.book_id[i]}"
    elif table.n_chars[i] < 1:
        fault = f"N must be >= 1, got {int(table.n_chars[i])}"
    elif penalty:
        h_name = f"h_{penalty[2:]}"
        d, h, h0 = (float(getattr(table, name)[i]) for name in (penalty, h_name, "h_original"))
        fault = f"{penalty} = {d:.6g} but {h_name} - h_original = {h - h0:.6g}"
    elif first_of_key[i] != i:
        fault = (
            f"duplicate of row {row_nos[int(first_of_key[i])]} (translation "
            f"{table.translation_id[i]}, book {table.book_id[i]}, replicate {table.replicate[i]})"
        )
    else:
        first = int(first_of_translation[i])
        fault = (f"translation {table.translation_id[i]} has language {table.language[i]}, "
                 f"but row {row_nos[first]} gave it {table.language[first]}")
    raise ValueError(f"results CSV row {row_nos[i]}: {fault}")
