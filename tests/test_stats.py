"""Rank correlation, permutation tests, reciprocal fits, rank tables."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from wordtradeoff.measures import GroupMeans
from wordtradeoff.stats import (
    _average_ranks,
    CorrelationMatrix,
    InsufficientDataError,
    correlation_matrix,
    exact_perm_test,
    fit_reciprocal,
    rank_books,
    rank_histograms,
    spearman,
    write_corr_matrix_csv,
    write_fits_csv,
    write_rank_hist_csv,
    write_ranks_csv,
)

# Rankings of n=6 with sum(d^2) = 10 (r_s = 5/7) and 8 (r_s = 27/35).
X6 = (1, 2, 3, 4, 5, 6)
Y_D2_10 = (3, 2, 1, 4, 6, 5)
Y_D2_8 = (3, 1, 2, 5, 4, 6)


def agg(group, book_id, d_order, d_structure):
    """One cell of a group-by-book table."""
    return group, book_id, d_order, d_structure


def pivot(cells):
    """The :class:`GroupMeans` of ``agg`` cells; NaN where a group lacks a book."""
    groups = sorted({cell[0] for cell in cells})
    book_ids = sorted({cell[1] for cell in cells})
    values = np.full((2, len(groups), len(book_ids)), np.nan)
    for group, book_id, d_order, d_structure in cells:
        values[:, groups.index(group), book_ids.index(book_id)] = d_order, d_structure
    return GroupMeans(tuple(groups), tuple(book_ids), *values)


def rank_dicts(tables, t=0):
    """Row ``t`` of ``tables`` as order and structure ranks keyed by book id."""
    return (
        dict(zip(tables.book_ids, tables.order_ranks[t].tolist())),
        dict(zip(tables.book_ids, tables.structure_ranks[t].tolist())),
    )


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_sum_d2_10_case(self):
        assert sum((a - b) ** 2 for a, b in zip(X6, Y_D2_10)) == 10
        assert spearman(X6, Y_D2_10) == pytest.approx(0.714286, abs=1e-6)

    def test_matches_closed_formula_without_ties(self):
        x = [3, 1, 4, 1.5, 5, 9, 2.6]
        y = [2, 7, 1, 8, 2.8, 0.5, 9]
        n = len(x)
        rx = scipy.stats.rankdata(x)
        ry = scipy.stats.rankdata(y)
        d2 = float(np.sum((rx - ry) ** 2))
        assert spearman(x, y) == pytest.approx(1 - 6 * d2 / (n * (n * n - 1)))

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=25,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_scipy_including_ties(self, xs, rnd):
        ys = xs[:]
        rnd.shuffle(ys)
        if len(set(xs)) < 2:
            return
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        x = [0.3, 1.9, 0.01, 7.4, 2.2]
        y = [5.0, 1.2, 9.9, 0.4, 3.3]
        base = spearman(x, y)
        assert spearman([math.exp(v) for v in x], y) == pytest.approx(base)
        assert spearman(x, [v**3 for v in y]) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero-variance"):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])


class TestAverageRanks:
    """Ranks are exact half-integers, so they must equal scipy's bit for bit."""

    @staticmethod
    def assert_matches_scipy(values):
        v = np.asarray(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(v), scipy.stats.rankdata(v, method="average"))

    @pytest.mark.parametrize(
        "values",
        [
            [7.0],
            [3.0] * 9,
            [1.0, 1.0, 1.0, 2.0, 5.0, 4.0],  # a run at the low end
            [9.0, 0.0, 4.0, 9.0, 9.0],  # a run at the high end
            [2.0, 0.0, 2.0, 1.0, 0.0, 2.0, 0.0],  # runs at both ends
            [-0.0, 0.0, 1.0],
        ],
    )
    def test_examples(self, values):
        self.assert_matches_scipy(values)

    @given(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_small_integer_values_make_long_runs(self, xs):
        self.assert_matches_scipy(xs)


class TestExactPermTest:
    def test_d2_10_gives_49_of_720(self):
        result = exact_perm_test(X6, Y_D2_10, alternative="greater")
        assert result.r_s == pytest.approx(5 / 7)
        assert result.p_value == Fraction(49, 720)
        assert result.extreme_count == 49
        assert result.n_permutations == 720

    def test_d2_8_gives_37_of_720(self):
        result = exact_perm_test(X6, Y_D2_8, alternative="greater")
        assert result.r_s == pytest.approx(27 / 35)
        assert result.p_value == Fraction(37, 720)

    def test_perfect_agreement_is_1_of_720(self):
        result = exact_perm_test(X6, X6, alternative="greater")
        assert result.p_value == Fraction(1, 720)

    def test_less_alternative_mirrors(self):
        reversed_y = tuple(reversed(X6))
        result = exact_perm_test(X6, reversed_y, alternative="less")
        assert result.p_value == Fraction(1, 720)

    def test_two_sided_doubles_symmetric_tail(self):
        greater = exact_perm_test(X6, X6, alternative="greater")
        two_sided = exact_perm_test(X6, X6, alternative="two_sided")
        assert two_sided.p_value == 2 * greater.p_value

    def test_distribution_symmetric_about_zero(self):
        # P(r_s >= t) must equal P(r_s <= -t): compare a statistic with
        # its mirror image.
        y = (2, 1, 4, 3, 6, 5)
        mirrored = tuple(7 - v for v in y)
        p_hi = exact_perm_test(X6, y, alternative="greater")
        p_lo = exact_perm_test(X6, mirrored, alternative="less")
        assert p_hi.p_value == p_lo.p_value
        assert p_hi.r_s == pytest.approx(-p_lo.r_s)

    def test_arbitrary_monotone_values_are_ranked(self):
        result = exact_perm_test((0.1, 0.5, 0.9), (10, 50, 90))
        assert result.r_s == pytest.approx(1.0)
        assert result.p_value == Fraction(1, 6)

    def test_n_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            exact_perm_test(tuple(range(11)), tuple(range(11)))

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="tie-free"):
            exact_perm_test((1, 1, 2), (1, 2, 3))

    def test_unknown_alternative(self):
        with pytest.raises(ValueError):
            exact_perm_test(X6, Y_D2_10, alternative="sideways")


class TestFitReciprocal:
    def test_exact_recovery(self):
        xs = [0.2, 0.4, 0.5, 0.8, 1.0, 1.6]
        fit = fit_reciprocal(xs, [2.0 + 3.0 / x for x in xs])
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)
        assert fit.beta1 == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.3, 1.5, size=40)
        ys = 1.0 + 0.5 / xs + rng.normal(0, 0.1, size=40)
        fit = fit_reciprocal(xs, ys)
        res = ys - (fit.beta0 + fit.beta1 / xs)
        assert float(res.sum()) == pytest.approx(0.0, abs=1e-9)
        assert float(res @ (1.0 / xs)) == pytest.approx(0.0, abs=1e-9)

    def test_zero_d_order_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="index\\(es\\) \\[1\\]"):
            fit_reciprocal([0.5, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="need at least two observations"):
            fit_reciprocal([1.0], [1.0])

    def test_constant_y_fits_exactly(self):
        # Zero total variance: a flat line leaves no residual, so r^2 is 1.
        fit = fit_reciprocal([0.5, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert (fit.beta0, fit.beta1, fit.r_squared, fit.n_points) == (3.0, 0.0, 1.0, 3)

    def test_identical_regressors_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_reciprocal([2.0, 2.0], [1.0, 3.0])


@pytest.mark.parametrize("fn", [spearman, exact_perm_test, fit_reciprocal])
def test_paired_inputs_checked_alike(fn):
    for x, y in (([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0]], [[2.0, 1.0]])):
        with pytest.raises(ValueError, match="inputs must be equal-length vectors"):
            fn(x, y)
    for x, y in (([1.0], [2.0]), ([], [])):
        with pytest.raises(ValueError, match="need at least two observations"):
            fn(x, y)


class TestCorrelationMatrix:
    def _rows(self, n_groups=5, books=(40, 41)):
        rng = np.random.default_rng(3)
        rows = []
        for g in range(n_groups):
            for b in books:
                d_order = float(rng.uniform(0.1, 1.0))
                rows.append(agg(f"lang{g}", b, d_order, 1.0 / d_order))
        return rows

    def test_diagonal_is_exactly_one_and_symmetric(self):
        m = correlation_matrix(pivot(self._rows()))
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 1.0)
        assert np.all(np.abs(m.values) <= 1.0 + 1e-12)

    def test_labels_cover_books_times_dimensions(self):
        m = correlation_matrix(pivot(self._rows(books=(40, 41, 42, 43, 44, 66))))
        assert len(m.labels) == 12
        assert m.labels[0] == "d_order:40"
        assert m.labels[6] == "d_structure:40"

    def test_entry_lookup(self):
        m = correlation_matrix(pivot(self._rows()))
        i = m.labels.index("d_order:40")
        assert m.values[i, i] == 1.0

    def test_incomplete_groups_dropped(self):
        rows = self._rows(n_groups=3)
        rows.append(agg("partial", 40, 0.5, 2.0))  # missing book 41
        m = correlation_matrix(pivot(rows).select((40, 41)))
        assert len(m.labels) == 4

    def test_insufficient_groups(self):
        with pytest.raises(InsufficientDataError):
            correlation_matrix(pivot([agg("only", 40, 0.5, 2.0)]).select((40,)))


class TestRankBooks:
    def test_descending_values_rank_in_order(self):
        # (Re, Jn, Mr, Mt, Lk, Ac) with d_order .5,.4,.3,.2,.15,.1
        values = {66: 0.5, 43: 0.4, 41: 0.3, 40: 0.2, 42: 0.15, 44: 0.1}
        rows = [agg("t1", b, v, 1.0 - v) for b, v in values.items()]
        tables = rank_books(pivot(rows))
        assert tables.excluded == {}
        order_ranks, structure_ranks = rank_dicts(tables)
        assert order_ranks == {66: 1, 43: 2, 41: 3, 40: 4, 42: 5, 44: 6}
        # structure values are reversed, so ranks invert
        assert structure_ranks == {44: 1, 42: 2, 40: 3, 41: 4, 43: 5, 66: 6}

    def test_tie_broken_by_canonical_order_and_flagged(self):
        rows = [agg("t1", 41, 0.5, 0.1), agg("t1", 40, 0.5, 0.2)]
        tables = rank_books(pivot(rows))
        assert rank_dicts(tables)[0] == {40: 1, 41: 2}
        assert tables.ties[0]

    def test_missing_book_excludes_translation_with_report(self):
        rows = [agg("t1", 40, 0.5, 0.1), agg("t2", 40, 0.4, 0.2), agg("t2", 41, 0.3, 0.3)]
        tables = rank_books(pivot(rows).select((40, 41)))
        assert tables.translation_ids == ("t2",)
        assert tables.excluded == {"t1": (41,)}

    def test_rank_value_consistency(self):
        rng = np.random.default_rng(8)
        values = {b: float(rng.uniform(0, 1)) for b in (40, 41, 42, 43, 44, 66)}
        rows = [agg("t", b, v, v) for b, v in values.items()]
        tables = rank_books(pivot(rows))
        assert len(tables) == 1
        order_ranks, _ = rank_dicts(tables)
        for a in values:
            for b in values:
                if values[a] > values[b]:
                    assert order_ranks[a] < order_ranks[b]


class TestRankHistograms:
    def _tables(self, specs):
        rows = []
        for tid, orders in specs.items():
            for b, d_order in orders.items():
                rows.append(agg(tid, b, d_order, 1.0 - d_order))
        return rank_books(pivot(rows))

    def test_single_translation_all_mass_in_one_bin(self):
        tables = self._tables({"t1": {40: 0.3, 41: 0.2, 42: 0.1}})
        hist = rank_histograms(tables)
        assert hist.n_tables == 1
        assert hist.joint.sum(axis=2)[0].tolist() == [1, 0, 0]
        buf = io.StringIO()
        write_rank_hist_csv(hist, buf)
        assert "40,order,1,,1,1,1/1,100" in buf.getvalue().splitlines()

    def test_bivariate_margins_match(self):
        tables = self._tables(
            {
                "t1": {40: 0.3, 41: 0.2, 42: 0.1},
                "t2": {40: 0.1, 41: 0.3, 42: 0.2},
                "t3": {40: 0.25, 41: 0.05, 42: 0.4},
            }
        )
        hist = rank_histograms(tables)
        # Each structure penalty is 1 - d_order, so its rank is k + 1 - the order rank.
        anti_diagonal = np.fliplr(np.eye(3, dtype=int))
        assert np.array_equal(hist.joint, np.broadcast_to(anti_diagonal, (3, 3, 3)))
        assert hist.joint.sum(axis=2).tolist() == [[1, 1, 1]] * 3
        assert hist.joint.sum(axis=1).tolist() == [[1, 1, 1]] * 3
        assert hist.joint.sum(axis=(1, 2)).tolist() == [hist.n_tables] * 3

    def test_empty_rejected(self):
        # Each translation lacks a book, so none is ranked.
        tables = rank_books(pivot([agg("t1", 40, 0.1, 0.2), agg("t2", 41, 0.3, 0.4)]))
        assert not tables
        with pytest.raises(ValueError):
            rank_histograms(tables)


def reference_rank_desc(values):
    """The dict ranking ``rank_books`` replaced: by (-value, book id)."""
    items = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks = {book: pos for pos, (book, _) in enumerate(items, start=1)}
    return ranks, len(set(values.values())) < len(values)


def reference_rank_books(cells, book_ids):
    """The dict-of-dicts ``rank_books`` replaced: (translation, order ranks,
    structure ranks, ties) per complete translation, and the excluded."""
    books = sorted(book_ids)
    by_translation = {}
    for tid, book_id, d_order, d_structure in cells:
        by_translation.setdefault(tid, {})[book_id] = (d_order, d_structure)
    tables, excluded = [], {}
    for tid in sorted(by_translation):
        present = by_translation[tid]
        missing = tuple(b for b in books if b not in present)
        if missing:
            excluded[tid] = missing
            continue
        order_ranks, t1 = reference_rank_desc({b: present[b][0] for b in books})
        structure_ranks, t2 = reference_rank_desc({b: present[b][1] for b in books})
        tables.append((tid, order_ranks, structure_ranks, t1 or t2))
    return tables, excluded


def reference_rank_histograms(tables):
    """The nested loops ``rank_histograms`` replaced, over reference tables."""
    books = tuple(sorted(tables[0][1]))
    k = len(books)
    order_counts = {b: [0] * k for b in books}
    structure_counts = {b: [0] * k for b in books}
    joint = {b: [[0] * k for _ in range(k)] for b in books}
    for _, order_ranks, structure_ranks, _ in tables:
        for b in books:
            ro, rs = order_ranks[b], structure_ranks[b]
            order_counts[b][ro - 1] += 1
            structure_counts[b][rs - 1] += 1
            joint[b][ro - 1][rs - 1] += 1
    return (
        books,
        len(tables),
        {b: tuple(v) for b, v in order_counts.items()},
        {b: tuple(v) for b, v in structure_counts.items()},
        {b: tuple(tuple(r) for r in m) for b, m in joint.items()},
    )


class TestRankReference:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_dict_reference(self, seed):
        # 1-7 books, penalties drawn mostly from a few values (0.0 and -0.0
        # among them) so that rows tie, translations missing books, and
        # requested ids that are a subset or include a book no row has.
        rng = random.Random(seed)
        pool = rng.sample([1, 40, 41, 42, 43, 44, 66], rng.randint(1, 7))
        shared = [0.0, -0.0, 0.1, -0.1, 0.25]

        def value():
            return rng.choice(shared) if rng.random() < 0.7 else rng.uniform(-1, 1)

        cells = [agg("t0", b, value(), value()) for b in pool]
        for t in range(1, rng.randint(1, 9)):
            cells += [agg(f"t{t}", b, value(), value()) for b in pool if rng.random() < 0.85]
        book_ids = None
        if rng.random() < 0.5:
            book_ids = rng.sample(pool, rng.randint(1, len(pool)))
            if rng.random() < 0.2:
                book_ids.append(99)

        means = pivot(cells)
        if book_ids:
            means = means.select(sorted(book_ids))
        tables = rank_books(means)
        expected, excluded = reference_rank_books(cells, book_ids or pool)
        assert tables.excluded == excluded
        assert tables.translation_ids == tuple(table[0] for table in expected)
        for t, (_, order_ranks, structure_ranks, ties) in enumerate(expected):
            assert rank_dicts(tables, t) == (order_ranks, structure_ranks)
            assert bool(tables.ties[t]) == ties
        if expected:
            hist = rank_histograms(tables)
            books = hist.book_ids
            got = (books, hist.n_tables,
                   dict(zip(books, map(tuple, hist.joint.sum(axis=2).tolist()))),
                   dict(zip(books, map(tuple, hist.joint.sum(axis=1).tolist()))),
                   {b: tuple(map(tuple, m)) for b, m in zip(books, hist.joint.tolist())})
            assert got == reference_rank_histograms(expected)


class TestCsvWriters:
    def test_fits_csv(self):
        xs = (0.5, 1.0, 2.0)
        fit = fit_reciprocal(xs, [2 + 3 / x for x in xs])
        buf = io.StringIO()
        write_fits_csv([(40, fit, -0.9)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "book_id,beta0,beta1,r_squared,n,r_s"
        assert lines[1].startswith("40,2,3,1,3,-0.9")

    def test_corr_matrix_csv_roundtrip_shape(self):
        m = CorrelationMatrix(
            labels=("d_order:40", "d_structure:40"),
            values=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        )
        buf = io.StringIO()
        write_corr_matrix_csv(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",d_order:40,d_structure:40"
        assert lines[1] == "d_order:40,1,-0.5"

    def test_ranks_csv_includes_exclusions(self):
        rows = [agg("t1", 40, 0.5, 0.1), agg("t1", 41, 0.4, 0.2)]
        tables = rank_books(pivot(rows + [agg("t2", 40, 0.3, 0.3)]).select((40, 41)))
        buf = io.StringIO()
        write_ranks_csv(tables, buf)
        text = buf.getvalue()
        assert "t1,40,1,2,0" in text
        assert "excluded: missing [41]" in text

    def test_rank_hist_csv_exact_fractions(self):
        rows = [
            agg("t1", 40, 0.5, 0.5), agg("t1", 41, 0.4, 0.6),
            agg("t2", 40, 0.1, 0.2), agg("t2", 41, 0.9, 0.1),
            agg("t3", 40, 0.7, 0.2), agg("t3", 41, 0.1, 0.8),
        ]
        tables = rank_books(pivot(rows))
        buf = io.StringIO()
        write_rank_hist_csv(rank_histograms(tables), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "book_id,kind,order_rank,structure_rank,count,total,fraction,percent"
        assert any(",2/3," in line for line in lines)
        assert any(line.endswith("66.6667") for line in lines)
