"""Statistical layer: rank correlations, exact permutation tests,
reciprocal fits, cross-book correlation matrices and rank tables.

The trade-off question is asked twice. Across groups (languages or
translations), a negative Spearman correlation between the order and
structure penalties, together with a reciprocal least-squares fit
``d_structure = beta0 + beta1 / d_order``, quantifies how strongly one
kind of information substitutes for the other. Across books within one
translation, rank tables (rank 1 = largest penalty) and their histograms
show whether the book-level pattern recurs between translations.

:func:`exact_perm_test` compares two small vectors (such as the rank
vectors of a translation's books) by an exact permutation test whose
p-value is an exact rational over n!. It is a library function: the
``stats`` command does not call it.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import IO, Mapping, Sequence

import numpy as np

from .measures import AggregateMeasurement, format_float

ALTERNATIVES = ("greater", "less", "two_sided")


class InsufficientDataError(ValueError):
    """Not enough complete groups/translations for the requested output."""


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of equal values shares the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (tie-aware via average ranks)."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("inputs must be equal-length vectors")
    if len(xv) < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(xv)
    ry = _average_ranks(yv)
    rx -= rx.mean()
    ry -= ry.mean()
    vx = float(rx @ rx)
    vy = float(ry @ ry)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero-variance input: correlation undefined")
    return float((rx @ ry) / np.sqrt(vx * vy))


@dataclass(frozen=True)
class PermutationTestResult:
    r_s: float
    p_value: Fraction
    extreme_count: int
    n_permutations: int
    alternative: str


def exact_perm_test(
    x: Sequence[float], y: Sequence[float], alternative: str = "greater"
) -> PermutationTestResult:
    """Exact permutation test of Spearman correlation for small n.

    Enumerates all n! permutations of the second ranking; the p-value is
    the exact fraction of permutations whose correlation is as extreme
    as the observed one under the chosen alternative. Requires tie-free
    inputs and n <= 10 (10! is the practical enumeration bound; larger n
    calls for a sampled test, which this package does not provide).
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}")
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("inputs must be equal-length vectors")
    n = len(xv)
    if n < 2:
        raise ValueError("need at least two observations")
    if n > 10:
        raise ValueError(
            f"n={n} too large for exact enumeration (max 10); "
            "use a sampled permutation test (not provided here)"
        )
    if len(set(xv.tolist())) != n or len(set(yv.tolist())) != n:
        raise ValueError("exact permutation test requires tie-free inputs")

    rx = tuple(int(r) for r in _average_ranks(xv))
    ry = tuple(int(r) for r in _average_ranks(yv))
    denom = n * (n * n - 1)

    def r_s_of(sum_d2: int) -> Fraction:
        return 1 - Fraction(6 * sum_d2, denom)

    observed_d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    observed = r_s_of(observed_d2)

    # The statistic depends on the permutation only through sum(d^2).
    d2_counts: Counter[int] = Counter(
        sum((a - b) ** 2 for a, b in zip(rx, perm))
        for perm in permutations(range(1, n + 1))
    )
    if alternative == "greater":
        count = sum(c for d2, c in d2_counts.items() if d2 <= observed_d2)
    elif alternative == "less":
        count = sum(c for d2, c in d2_counts.items() if d2 >= observed_d2)
    else:
        threshold = abs(observed)
        count = sum(c for d2, c in d2_counts.items() if abs(r_s_of(d2)) >= threshold)
    total = sum(d2_counts.values())
    return PermutationTestResult(
        r_s=float(observed),
        p_value=Fraction(count, total),
        extreme_count=count,
        n_permutations=total,
        alternative=alternative,
    )


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit of y = beta0 + beta1 / x."""

    beta0: float
    beta1: float
    r_squared: float
    residuals: tuple[float, ...]
    n_points: int


def fit_reciprocal(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Fit the reciprocal trade-off model by exact linear least squares.

    The model is linear in u = 1/x, so the normal equations are solved in
    closed form. Points with x = 0 are rejected with a diagnostic rather
    than silently dropped.
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise ValueError("not enough points for the fit")
    xs = np.asarray([p[0] for p in pts], dtype=np.float64)
    ys = np.asarray([p[1] for p in pts], dtype=np.float64)
    zero_idx = np.nonzero(xs == 0.0)[0]
    if zero_idx.size:
        raise ValueError(
            f"d_order is exactly 0 at point index(es) {zero_idx.tolist()}: "
            "the reciprocal regressor is undefined there"
        )
    u = 1.0 / xs
    u_mean = float(u.mean())
    y_mean = float(ys.mean())
    du = u - u_mean
    suu = float(du @ du)
    if suu == 0.0:
        raise ValueError("all d_order values identical: slope undefined")
    beta1 = float((du @ (ys - y_mean)) / suu)
    beta0 = y_mean - beta1 * u_mean
    residuals = ys - (beta0 + beta1 * u)
    sse = float(residuals @ residuals)
    centered = ys - ys.mean()
    sst = float(centered @ centered)
    if sst > 0.0:
        r_squared = 1.0 - sse / sst
    else:
        r_squared = 1.0 if sse < 1e-28 else float("nan")
    return RegressionFit(
        beta0=beta0,
        beta1=beta1,
        r_squared=r_squared,
        residuals=tuple(float(r) for r in residuals),
        n_points=n,
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Spearman matrix over (dimension, book) column labels."""

    labels: tuple[str, ...]
    values: np.ndarray  # shape (len(labels), len(labels))


def correlation_matrix(
    rows: Sequence[AggregateMeasurement], book_ids: Sequence[int] | None = None
) -> CorrelationMatrix:
    """Cross-book rank correlation of both penalties over groups.

    Columns are d_order and d_structure of each book; rows of the input
    are per-group aggregates. Only groups with every requested book are
    used, and at least two such groups are required.
    """
    books = sorted(book_ids) if book_ids else sorted({r.book_id for r in rows})
    by_group: dict[str, dict[int, AggregateMeasurement]] = {}
    for r in rows:
        by_group.setdefault(r.group, {})[r.book_id] = r
    complete = sorted(g for g, d in by_group.items() if all(b in d for b in books))
    if len(complete) < 2:
        raise InsufficientDataError(
            f"need >= 2 groups with all books {books}; have {len(complete)}"
        )
    columns = []
    labels = []
    for dim in ("d_order", "d_structure"):
        for b in books:
            labels.append(f"{dim}:{b}")
            attr = "mean_d_order" if dim == "d_order" else "mean_d_structure"
            columns.append([getattr(by_group[g][b], attr) for g in complete])
    m = len(labels)
    values = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            r = spearman(columns[i], columns[j])
            values[i, j] = values[j, i] = r
    return CorrelationMatrix(labels=tuple(labels), values=values)


@dataclass(frozen=True)
class RankTable:
    """Book ranks (1 = largest penalty) for one translation."""

    translation_id: str
    order_ranks: Mapping[int, int]
    structure_ranks: Mapping[int, int]
    has_ties: bool


def _rank_desc(values: dict[int, float]) -> tuple[dict[int, int], bool]:
    items = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks = {book: pos for pos, (book, _) in enumerate(items, start=1)}
    has_ties = len(set(values.values())) < len(values)
    return ranks, has_ties


def rank_books(
    rows: Sequence[AggregateMeasurement], book_ids: Sequence[int] | None = None
) -> tuple[list[RankTable], dict[str, tuple[int, ...]]]:
    """Rank books within each translation by both penalties.

    ``rows`` must be translation-level aggregates. Ties are broken by
    ascending canonical book id, and ``has_ties`` marks a table where
    that happened. Translations missing any requested book are excluded
    and reported in the second return value rather than silently dropped.
    """
    books = sorted(book_ids) if book_ids else sorted({r.book_id for r in rows})
    by_translation: dict[str, dict[int, AggregateMeasurement]] = {}
    for r in rows:
        by_translation.setdefault(r.group, {})[r.book_id] = r
    tables = []
    excluded: dict[str, tuple[int, ...]] = {}
    for tid in sorted(by_translation):
        present = by_translation[tid]
        missing = tuple(b for b in books if b not in present)
        if missing:
            excluded[tid] = missing
            continue
        order_ranks, t1 = _rank_desc({b: present[b].mean_d_order for b in books})
        structure_ranks, t2 = _rank_desc(
            {b: present[b].mean_d_structure for b in books}
        )
        tables.append(
            RankTable(
                translation_id=tid,
                order_ranks=order_ranks,
                structure_ranks=structure_ranks,
                has_ties=t1 or t2,
            )
        )
    return tables, excluded


@dataclass(frozen=True)
class RankHistograms:
    """Marginal and bivariate rank frequencies across translations.

    Counts are exact; ``n_tables`` is the denominator. The bivariate
    table for a book is indexed [order_rank - 1][structure_rank - 1],
    and its row and column sums reproduce the marginals.
    """

    book_ids: tuple[int, ...]
    n_tables: int
    order_counts: Mapping[int, tuple[int, ...]]
    structure_counts: Mapping[int, tuple[int, ...]]
    joint_counts: Mapping[int, tuple[tuple[int, ...], ...]]

    def percent(self, count: int) -> float:
        return 100.0 * count / self.n_tables


def rank_histograms(tables: Sequence[RankTable]) -> RankHistograms:
    """Tabulate rank frequencies over a set of rank tables."""
    if not tables:
        raise ValueError("no rank tables given")
    books = tuple(sorted(tables[0].order_ranks))
    k = len(books)
    order_counts = {b: [0] * k for b in books}
    structure_counts = {b: [0] * k for b in books}
    joint = {b: [[0] * k for _ in range(k)] for b in books}
    for t in tables:
        if tuple(sorted(t.order_ranks)) != books:
            raise ValueError("rank tables cover different book sets")
        for b in books:
            ro = t.order_ranks[b]
            rs = t.structure_ranks[b]
            order_counts[b][ro - 1] += 1
            structure_counts[b][rs - 1] += 1
            joint[b][ro - 1][rs - 1] += 1
    return RankHistograms(
        book_ids=books,
        n_tables=len(tables),
        order_counts={b: tuple(v) for b, v in order_counts.items()},
        structure_counts={b: tuple(v) for b, v in structure_counts.items()},
        joint_counts={b: tuple(tuple(r) for r in m) for b, m in joint.items()},
    )


@dataclass(frozen=True)
class BookFit:
    """One book's trade-off summary over groups (for fits.csv)."""

    book_id: int
    fit: RegressionFit
    r_s: float


def write_fits_csv(fits: Sequence[BookFit], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["book_id", "beta0", "beta1", "r_squared", "n", "r_s"])
    for f in fits:
        writer.writerow(
            [
                str(f.book_id),
                format_float(f.fit.beta0),
                format_float(f.fit.beta1),
                format_float(f.fit.r_squared),
                str(f.fit.n_points),
                format_float(f.r_s),
            ]
        )


def write_corr_matrix_csv(matrix: CorrelationMatrix, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([""] + list(matrix.labels))
    for label, row in zip(matrix.labels, matrix.values):
        writer.writerow([label] + [format_float(float(v)) for v in row])


def write_ranks_csv(
    tables: Sequence[RankTable],
    fh: IO[str],
    excluded: Mapping[str, tuple[int, ...]] | None = None,
) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["translation_id", "book_id", "order_rank", "structure_rank", "ties"])
    for t in tables:
        for b in sorted(t.order_ranks):
            writer.writerow(
                [
                    t.translation_id,
                    str(b),
                    str(t.order_ranks[b]),
                    str(t.structure_ranks[b]),
                    "1" if t.has_ties else "0",
                ]
            )
    for tid in sorted(excluded or {}):
        writer.writerow([tid, "", "", "", f"excluded: missing {list(excluded[tid])}"])


def write_rank_hist_csv(hist: RankHistograms, fh: IO[str]) -> None:
    """Emit marginal and joint rank frequencies, exact and as percents."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["book_id", "kind", "order_rank", "structure_rank", "count", "total", "fraction", "percent"]
    )

    def emit(book: int, kind: str, ro: str, rs: str, count: int) -> None:
        frac = Fraction(count, hist.n_tables)
        writer.writerow(
            [
                str(book),
                kind,
                ro,
                rs,
                str(count),
                str(hist.n_tables),
                f"{frac.numerator}/{frac.denominator}",
                format_float(hist.percent(count)),
            ]
        )

    for b in hist.book_ids:
        for rank, count in enumerate(hist.order_counts[b], start=1):
            emit(b, "order", str(rank), "", count)
        for rank, count in enumerate(hist.structure_counts[b], start=1):
            emit(b, "structure", "", str(rank), count)
        for ro, row in enumerate(hist.joint_counts[b], start=1):
            for rs, count in enumerate(row, start=1):
                emit(b, "joint", str(ro), str(rs), count)
