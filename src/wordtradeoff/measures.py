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
values are reported as computed, with a warning.
"""

from __future__ import annotations

import csv
import logging
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .corpus import Book, flatten
from .entropy import entropy_rate, match_lengths
from .transforms import (
    PURPOSE_TAGS,
    SeedSpec,
    build_mask_table,
    derive_seed,
    destroy_word_order,
    mask_word_structure,
    shuffle_verses,
)

logger = logging.getLogger(__name__)

GROUP_KEYS = ("translation", "language")
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
    seeds: Mapping[str, int] = field(default_factory=dict)

    @property
    def has_negative_penalty(self) -> bool:
        return self.d_order < 0 or self.d_structure < 0

    def csv_row(self) -> list[str]:
        return [
            self.translation_id,
            self.language,
            str(self.book_id),
            str(self.replicate),
            str(self.n_chars),
            format_float(self.h_original),
            format_float(self.h_order),
            format_float(self.h_structure),
            format_float(self.d_order),
            format_float(self.d_structure),
        ]


@dataclass(frozen=True)
class AggregateMeasurement:
    """Per-group (translation or language) averages for one book."""

    group: str
    book_id: int
    mean_d_order: float
    mean_d_structure: float
    count: int


def measure_replicate(book: Book, replicate: int, config: MeasureConfig) -> BookMeasurement:
    """Estimate all three variants of one book for one replicate."""
    seeds = {
        purpose: derive_seed(
            SeedSpec(
                master_seed=config.master_seed,
                translation_id=book.translation_id,
                book_id=book.book_id,
                replicate_index=replicate,
                purpose=purpose,
            )
        )
        for purpose in PURPOSE_TAGS
    }

    base = shuffle_verses(book, seeds["verse_shuffle"]) if config.verse_shuffle else book
    text = flatten(base)
    h_original = entropy_rate(match_lengths(text)).h_bpc

    # Both variants are built from the one token list of the original.
    tokens = text.split(" ")
    if config.order_scope == "book":
        counts = [len(tokens)]
    else:
        counts = [v.text.count(" ") + 1 for v in base.verses]
    order_text = destroy_word_order(tokens, counts, seeds["order_shuffle"])
    h_order = entropy_rate(match_lengths(order_text)).h_bpc

    # The word types hold every character of the text except the space
    # between tokens, which is never a mask character.
    types = dict.fromkeys(tokens)
    table = build_mask_table(types, "".join(types), seeds["mask_draw"])
    masked_text = mask_word_structure(tokens, table)
    h_structure = entropy_rate(match_lengths(masked_text)).h_bpc

    result = BookMeasurement(
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
        seeds=seeds,
    )
    if result.has_negative_penalty:
        logger.warning(
            "negative penalty for %s book %d replicate %d "
            "(d_order=%.4g, d_structure=%.4g): estimation noise at N=%d",
            book.translation_id,
            book.book_id,
            replicate,
            result.d_order,
            result.d_structure,
            result.n_chars,
        )
    return result


def measure_book(book: Book, config: MeasureConfig | None = None) -> list[BookMeasurement]:
    """Measure every replicate of one book."""
    config = config or MeasureConfig()
    return [measure_replicate(book, r, config) for r in range(config.replicates)]


def aggregate(
    measurements: Sequence[BookMeasurement], group_by: str = "language"
) -> list[AggregateMeasurement]:
    """Average penalties per group and book.

    Replicate variability is folded in first: replicates are averaged
    per translation, and for language grouping those translation means
    are then averaged (unweighted) per language. ``count`` is the number
    of the group's units (replicates, respectively translations).
    """
    if not measurements:
        raise ValueError("no measurements to aggregate")
    if group_by not in GROUP_KEYS:
        raise ValueError(f"unknown grouping {group_by!r}")

    per_translation: dict[tuple[str, int], tuple[str, list[float], list[float]]] = {}
    for m in measurements:
        _, d_order, d_structure = per_translation.setdefault(
            (m.translation_id, m.book_id), (m.language, [], [])
        )
        d_order.append(m.d_order)
        d_structure.append(m.d_structure)

    # Each group's units: a translation's replicate values, or a
    # language's per-translation means.
    by_language = group_by == "language"
    groups: dict[tuple[str, int], tuple[list[float], list[float]]] = {}
    for (tid, book_id), (language, d_order, d_structure) in sorted(per_translation.items()):
        if by_language:
            d_order, d_structure = [statistics.fmean(d_order)], [statistics.fmean(d_structure)]
        units = groups.setdefault((language if by_language else tid, book_id), ([], []))
        units[0].extend(d_order)
        units[1].extend(d_structure)

    return [
        AggregateMeasurement(
            group=group,
            book_id=book_id,
            mean_d_order=statistics.fmean(d_order),
            mean_d_structure=statistics.fmean(d_structure),
            count=len(d_order),
        )
        for (group, book_id), (d_order, d_structure) in sorted(groups.items())
    ]


def sort_measurements(measurements: Iterable[BookMeasurement]) -> list[BookMeasurement]:
    """Deterministic merge order, independent of execution schedule."""
    return sorted(
        measurements, key=lambda m: (m.translation_id, m.book_id, m.replicate)
    )


def write_results_csv(measurements: Sequence[BookMeasurement], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for m in sort_measurements(measurements):
        writer.writerow(m.csv_row())


def read_results_csv(source: str | Path | IO[str]) -> list[BookMeasurement]:
    """Read a results table back.

    Raises ValueError naming the row on a schema mismatch, a field that
    does not parse, a non-finite value, N < 1, a penalty that is not
    ``h_variant - h_original`` up to the 6-significant-digit rounding of
    the three values, or a repeated (translation, book, replicate) key.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_results_csv(fh)
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None or tuple(header) != RESULT_COLUMNS:
        raise ValueError(
            f"results CSV schema mismatch: expected columns {','.join(RESULT_COLUMNS)}"
        )
    rows = []
    seen: dict[tuple[str, int, int], int] = {}
    for line_no, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(RESULT_COLUMNS):
            raise ValueError(f"results CSV row {line_no}: wrong field count")
        try:
            row = BookMeasurement(
                translation_id=rec[0],
                language=rec[1],
                book_id=int(rec[2]),
                replicate=int(rec[3]),
                n_chars=int(rec[4]),
                h_original=float(rec[5]),
                h_order=float(rec[6]),
                h_structure=float(rec[7]),
                d_order=float(rec[8]),
                d_structure=float(rec[9]),
            )
        except ValueError as exc:
            raise ValueError(f"results CSV row {line_no}: {exc}") from None
        values = (row.h_original, row.h_order, row.h_structure, row.d_order, row.d_structure)
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"results CSV row {line_no}: non-finite value")
        if row.n_chars < 1:
            raise ValueError(f"results CSV row {line_no}: N must be >= 1, got {row.n_chars}")
        h0 = row.h_original
        for name, d, h in (("d_order", row.d_order, row.h_order),
                           ("d_structure", row.d_structure, row.h_structure)):
            if abs(d - (h - h0)) > _ROUNDING_6G * (abs(d) + abs(h) + abs(h0)):
                raise ValueError(
                    f"results CSV row {line_no}: {name} = {d:.6g} but h_{name[2:]} - "
                    f"h_original = {h - h0:.6g}"
                )
        key = (row.translation_id, row.book_id, row.replicate)
        if key in seen:
            raise ValueError(
                f"results CSV row {line_no}: duplicate of row {seen[key]} "
                f"(translation {key[0]}, book {key[1]}, replicate {key[2]})"
            )
        seen[key] = line_no
        rows.append(row)
    return rows
