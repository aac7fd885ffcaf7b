"""Statistical layer: rank correlations, exact permutation tests,
reciprocal fits, cross-book correlation matrices and rank tables.

The trade-off question is asked twice. Across groups (languages or
translations), a negative Spearman correlation between the order and
structure penalties, together with a reciprocal least-squares fit
``d_structure = beta0 + beta1 / d_order``, quantifies how strongly one
kind of information substitutes for the other. Across books within one
translation, rank tables (rank 1 = largest penalty) and their histograms
show whether the book-level pattern recurs between translations. Both
index a table of mean penalties by group and book that
``measures.aggregate`` returns (:class:`~wordtradeoff.measures.GroupMeans`;
rank tables the per-translation one), over all of its books
(``GroupMeans.select`` keeps fewer); NaN marks an absent cell.

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
from itertools import compress, permutations
from typing import IO, TYPE_CHECKING, Mapping, Sequence

from .measures import GroupMeans, format_float

if TYPE_CHECKING:
    import numpy as np

ALTERNATIVES = ("greater", "less", "two_sided")


class InsufficientDataError(ValueError):
    """Not enough complete groups/translations for the requested output."""


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of equal values shares the mean of its ranks."""
    import numpy as np
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _paired(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float64 vectors of one length, at least 2."""
    import numpy as np
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("inputs must be equal-length vectors")
    if len(xv) < 2:
        raise ValueError("need at least two observations")
    return xv, yv


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (tie-aware via average ranks)."""
    import numpy as np
    xv, yv = _paired(x, y)
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
    xv, yv = _paired(x, y)
    n = len(xv)
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
    n_points: int


def fit_reciprocal(x: Sequence[float], y: Sequence[float]) -> RegressionFit:
    """Fit the reciprocal trade-off model y = beta0 + beta1 / x by exact
    linear least squares.

    The model is linear in u = 1/x, so the normal equations are solved in
    closed form. Points with x = 0 are rejected with a diagnostic rather
    than silently dropped.
    """
    import numpy as np
    xs, ys = _paired(x, y)
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
        n_points=len(xs),
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Spearman matrix over (dimension, book) column labels."""

    labels: tuple[str, ...]
    values: np.ndarray  # shape (len(labels), len(labels))


def correlation_matrix(means: GroupMeans) -> CorrelationMatrix:
    """Cross-book rank correlation of both penalties over groups.

    Columns are d_order and d_structure of each book of ``means``, rows
    its groups. Only groups with every book are used, and at least two
    such groups are required.
    """
    import numpy as np
    complete = ~np.isnan(means.d_order).any(axis=1)
    if (n_complete := int(complete.sum())) < 2:
        raise InsufficientDataError(
            f"need >= 2 groups with all books {list(means.book_ids)}; have {n_complete}"
        )
    columns = np.hstack((means.d_order[complete], means.d_structure[complete])).T
    labels = [f"{dim}:{b}" for dim in ("d_order", "d_structure") for b in means.book_ids]
    m = len(labels)
    values = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            r = spearman(columns[i], columns[j])
            values[i, j] = values[j, i] = r
    return CorrelationMatrix(labels=tuple(labels), values=values)


@dataclass(frozen=True, eq=False)
class RankTables:
    """Book ranks (1 = largest penalty) within each translation.

    Row ``t`` of the int arrays ``order_ranks`` and ``structure_ranks``
    ranks the books of translation ``translation_ids[t]``, column ``b``
    being book ``book_ids[b]``. ``ties[t]`` marks a row where equal
    penalties were ranked by ascending book id. Translations missing a
    book have no row; ``excluded`` maps each to the books it lacks.
    """

    translation_ids: tuple[str, ...]
    book_ids: tuple[int, ...]
    order_ranks: np.ndarray
    structure_ranks: np.ndarray
    ties: np.ndarray
    excluded: Mapping[str, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.translation_ids)


def _rank_desc(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ranks, largest value first and equal values by column,
    and whether the row has equal values."""
    import numpy as np
    order = np.argsort(-values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    return np.argsort(order, axis=1) + 1, (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def rank_books(means: GroupMeans) -> RankTables:
    """Rank the books of ``means`` within each translation by both penalties.

    ``means`` must be the per-translation table ``aggregate`` returns
    first. Ties are broken by column order (ascending book id, as
    ``aggregate`` gives the columns) and marked in ``ties``. Translations
    missing any book are excluded and reported rather than silently dropped.
    """
    import numpy as np
    books = means.book_ids
    present = ~np.isnan(means.d_order)
    complete = present.all(axis=1)
    order_ranks, order_ties = _rank_desc(means.d_order[complete])
    structure_ranks, structure_ties = _rank_desc(means.d_structure[complete])
    return RankTables(
        translation_ids=tuple(compress(means.groups, complete.tolist())),
        book_ids=books,
        order_ranks=order_ranks,
        structure_ranks=structure_ranks,
        ties=order_ties | structure_ties,
        excluded={
            tid: tuple(b for b, has in zip(books, row) if not has)
            for tid, row, ok in zip(means.groups, present.tolist(), complete.tolist())
            if not ok
        },
    )


@dataclass(frozen=True, eq=False)
class RankHistograms:
    """Rank frequencies across translations: ``joint[b, ro - 1, rs - 1]``
    counts those that rank book ``book_ids[b]`` ``ro`` by order and ``rs``
    by structure penalty. Its sums over either rank axis are the marginals;
    ``n_tables`` is the denominator."""

    book_ids: tuple[int, ...]
    n_tables: int
    joint: np.ndarray


def rank_histograms(tables: RankTables) -> RankHistograms:
    """Tabulate rank frequencies over the translations of ``tables``."""
    import numpy as np
    if not tables:
        raise ValueError("no rank tables given")
    k = len(tables.book_ids)
    joint = np.zeros((k, k, k), dtype=np.int64)
    books = np.broadcast_to(np.arange(k), tables.order_ranks.shape)
    np.add.at(joint, (books, tables.order_ranks - 1, tables.structure_ranks - 1), 1)
    return RankHistograms(book_ids=tables.book_ids, n_tables=len(tables), joint=joint)


def write_fits_csv(fits: Sequence[tuple[int, RegressionFit, float]], fh: IO[str]) -> None:
    """Write one row per ``(book_id, fit, r_s)``: a book's trade-off over its groups."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["book_id", "beta0", "beta1", "r_squared", "n", "r_s"])
    for book_id, fit, r_s in fits:
        writer.writerow(
            [
                str(book_id),
                format_float(fit.beta0),
                format_float(fit.beta1),
                format_float(fit.r_squared),
                str(fit.n_points),
                format_float(r_s),
            ]
        )


def write_corr_matrix_csv(matrix: CorrelationMatrix, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([""] + list(matrix.labels))
    for label, row in zip(matrix.labels, matrix.values):
        writer.writerow([label] + [format_float(float(v)) for v in row])


def write_ranks_csv(tables: RankTables, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["translation_id", "book_id", "order_rank", "structure_rank", "ties"])
    ranks = zip(tables.order_ranks.tolist(), tables.structure_ranks.tolist(), tables.ties.tolist())
    for tid, (order_ranks, structure_ranks, ties) in zip(tables.translation_ids, ranks):
        for b, ro, rs in zip(tables.book_ids, order_ranks, structure_ranks):
            writer.writerow([tid, str(b), str(ro), str(rs), "1" if ties else "0"])
    for tid in sorted(tables.excluded):
        writer.writerow([tid, "", "", "", f"excluded: missing {list(tables.excluded[tid])}"])


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
                format_float(100.0 * count / hist.n_tables),
            ]
        )

    for b, joint in zip(hist.book_ids, hist.joint):
        for rank, count in enumerate(joint.sum(axis=1).tolist(), start=1):
            emit(b, "order", str(rank), "", count)
        for rank, count in enumerate(joint.sum(axis=0).tolist(), start=1):
            emit(b, "structure", "", str(rank), count)
        for ro, row in enumerate(joint.tolist(), start=1):
            for rs, count in enumerate(row, start=1):
                emit(b, "joint", str(ro), str(rs), count)
