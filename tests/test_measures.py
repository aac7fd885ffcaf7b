"""Three-variant measurement orchestration and aggregation."""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_book
from wordtradeoff import measures
from wordtradeoff.corpus import Book, Verse, VerseRef, flatten
from wordtradeoff.measures import (
    RESULT_COLUMNS,
    BookMeasurement,
    GroupMeans,
    MeasureConfig,
    ResultsTable,
    aggregate,
    format_float,
    measure_book,
    read_results_csv,
    write_results_csv,
)
from wordtradeoff.testkit import render_toy_corpus, toy_language_pair
from wordtradeoff.transforms import derive_seed


GOLDEN = Path(__file__).parent / "data" / "golden"
#: The results.csv of every analyze golden run.
GOLDEN_RESULTS = sorted(
    [*GOLDEN.glob("expected/*/results.csv"), *GOLDEN.glob("pbc/expected/*/results.csv")]
)


def book_from_texts(texts, book_id=40, tid="t1", lang="deu"):
    verses = tuple(
        Verse(VerseRef(book_id, 1, i), t) for i, t in enumerate(texts, start=1)
    )
    return Book(book_id=book_id, verses=verses, translation_id=tid, language=lang)


def fake_measurement(tid="t", lang="und", book=40, rep=0, d_order=0.1, d_structure=0.2):
    return BookMeasurement(
        translation_id=tid,
        language=lang,
        book_id=book,
        replicate=rep,
        n_chars=1000,
        h_original=1.0,
        h_order=1.0 + d_order,
        h_structure=1.0 + d_structure,
        d_order=d_order,
        d_structure=d_structure,
    )


class TestMeasureBook:
    def test_identity_order_destruction_gives_zero_d_order(self, monkeypatch):
        def identity_destroy(tokens, counts, seed):
            return " ".join(tokens)

        monkeypatch.setattr(measures, "destroy_word_order", identity_destroy)
        book = random_book(1, max_verses=6)
        rows = measure_book(book, MeasureConfig(replicates=2))
        assert all(r.d_order == 0.0 for r in rows)

    def test_deterministic_end_to_end(self):
        book = random_book(2, max_verses=6)
        cfg = MeasureConfig(master_seed=5, replicates=2)
        assert measure_book(book, cfg) == measure_book(book, cfg)

    def test_single_token_verses_give_zero_d_order(self):
        book = book_from_texts(["alpha", "beta", "gamma", "alpha"])
        rows = measure_book(book, MeasureConfig(replicates=2))
        assert all(r.d_order == 0.0 for r in rows)

    def test_single_char_tokens_give_zero_d_structure(self):
        book = book_from_texts(["a b c", "b a a", "c c b"])
        rows = measure_book(book, MeasureConfig(replicates=2))
        assert all(r.d_structure == 0.0 for r in rows)

    def test_replicates_differ_in_seeds(self):
        book = random_book(3, max_verses=8)
        rows = measure_book(book, MeasureConfig(replicates=3))
        seeds = {
            derive_seed(0, book.translation_id, book.book_id, r.replicate, "verse_shuffle")
            for r in rows
        }
        assert len(seeds) == 3

    def test_negative_penalty_logs_a_warning(self, monkeypatch, caplog):
        # Entropies of the original, order and structure variants, in call order.
        book = random_book(5, max_verses=6)
        for entropies, warned in (((2.0, 1.9, 2.1), True), ((2.0, 2.1, 1.9), True),
                                  ((2.0, 2.0, 2.1), False)):
            caplog.clear()
            monkeypatch.setattr(measures, "entropy_rate", lambda ml, it=iter(entropies): next(it))
            row = measures.measure_replicate(book, 1, MeasureConfig())
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            assert (row.d_order, row.d_structure) == (entropies[1] - 2.0, entropies[2] - 2.0)
            if warned:
                assert warnings == [
                    f"negative penalty for {book.translation_id} book {book.book_id} "
                    f"replicate 1 (d_order={row.d_order:.4g}, d_structure={row.d_structure:.4g})"
                    f": estimation noise at N={row.n_chars}"
                ]
            else:
                assert warnings == []

    def test_no_verse_shuffle_uses_canonical_order(self, monkeypatch):
        book = random_book(4, max_verses=8)
        cfg = MeasureConfig(replicates=1, verse_shuffle=False)
        rows = measure_book(book, cfg)
        assert rows[0].n_chars == len(flatten(book))
        # h_original must equal the canonical-order estimate exactly
        from wordtradeoff.entropy import entropy_rate, match_lengths

        assert rows[0].h_original == entropy_rate(match_lengths(flatten(book)))

    def test_n_constant_across_variants_implicitly(self):
        book = random_book(5)
        (row,) = measure_book(book, MeasureConfig(replicates=1))
        assert row.n_chars == len(flatten(book))

    def test_order_scope_per_book(self):
        book = random_book(6, max_verses=6)
        (row,) = measure_book(book, MeasureConfig(replicates=1, order_scope="book"))
        assert row.n_chars == len(flatten(book))

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            MeasureConfig(replicates=0)

    @pytest.mark.parametrize("sentences", [500, 1500, 5000])
    def test_toy_pair_keeps_its_trade_off_across_text_length(self, sentences):
        # d_structure falls with N while d_order stays flat; from 17k to 235k
        # chars each language must still lead on its own penalty.
        positional, affixal = toy_language_pair(0)
        cfg = MeasureConfig(replicates=1)
        (pos,) = measure_book(render_toy_corpus(positional, sentences, seed=0), cfg)
        (aff,) = measure_book(render_toy_corpus(affixal, sentences, seed=0), cfg)
        assert pos.d_order > aff.d_order
        assert aff.d_structure > pos.d_structure


def assert_same_means(actual, expected):
    """Equal group and book tuples, and equal cells (NaN where absent)."""
    assert isinstance(actual, GroupMeans)
    assert actual.groups == expected.groups
    assert actual.book_ids == expected.book_ids
    assert np.array_equal(actual.d_order, expected.d_order, equal_nan=True)
    assert np.array_equal(actual.d_structure, expected.d_structure, equal_nan=True)


class TestAggregate:
    def test_identity_for_single_measurement(self):
        means, _ = aggregate(ResultsTable.from_measurements([fake_measurement()]))
        assert (means.groups, means.book_ids) == (("t",), (40,))
        assert means.d_order[0, 0] == pytest.approx(0.1)

    def test_language_mean_of_two_translations(self):
        ms = [
            fake_measurement(tid="t1", lang="deu", d_order=0.2),
            fake_measurement(tid="t2", lang="deu", d_order=0.4),
        ]
        _, means = aggregate(ResultsTable.from_measurements(ms))
        assert means.d_order.shape == (1, 1)
        assert means.d_order[0, 0] == pytest.approx(0.3)

    def test_replicates_folded_before_translations(self):
        # t1 has replicates (0.0, 0.2) -> mean 0.1; t2 has a single 0.5.
        ms = [
            fake_measurement(tid="t1", lang="deu", rep=0, d_order=0.0),
            fake_measurement(tid="t1", lang="deu", rep=1, d_order=0.2),
            fake_measurement(tid="t2", lang="deu", rep=0, d_order=0.5),
        ]
        _, means = aggregate(ResultsTable.from_measurements(ms))
        assert means.d_order[0, 0] == pytest.approx((0.1 + 0.5) / 2)

    def test_groups_and_means_per_grouping(self):
        # deu: t1 replicates (0.1, 0.3), t2 replicates (0.5, 0.9, 0.7);
        # fra: t3 a single replicate.
        ms = [
            fake_measurement(tid="t2", lang="deu", rep=2, d_order=0.7, d_structure=0.1),
            fake_measurement(tid="t1", lang="deu", rep=0, d_order=0.1, d_structure=0.4),
            fake_measurement(tid="t2", lang="deu", rep=0, d_order=0.5, d_structure=0.3),
            fake_measurement(tid="t3", lang="fra", rep=0, d_order=0.2, d_structure=0.6),
            fake_measurement(tid="t1", lang="deu", rep=1, d_order=0.3, d_structure=0.2),
            fake_measurement(tid="t2", lang="deu", rep=1, d_order=0.9, d_structure=0.2),
        ]
        per_translation, per_language = aggregate(ResultsTable.from_measurements(ms))
        assert per_translation.groups == ("t1", "t2", "t3")
        assert per_translation.d_order[:, 0] == pytest.approx([0.2, 0.7, 0.2])

        assert per_language.groups == ("deu", "fra")
        # Over the translation means (0.2, 0.7) and (0.3, 0.2), not the replicates.
        assert per_language.d_order[0, 0] == pytest.approx(0.45)
        assert per_language.d_structure[0, 0] == pytest.approx(0.25)

    def test_books_kept_separate(self):
        ms = [fake_measurement(book=b) for b in (40, 41, 42, 43, 44, 66)]
        for means in aggregate(ResultsTable.from_measurements(ms)):
            assert means.book_ids == (40, 41, 42, 43, 44, 66)
            assert means.d_order.shape == (1, 6)

    def test_input_order_irrelevant(self):
        ms = [
            fake_measurement(tid="t1", lang="deu", rep=r, d_order=0.1 * r)
            for r in range(3)
        ]
        forward = aggregate(ResultsTable.from_measurements(ms))
        backward = aggregate(ResultsTable.from_measurements(reversed(ms)))
        for actual, expected in zip(forward, backward):
            assert_same_means(actual, expected)

    def test_cells_of_requested_books(self):
        # t1 lacks book 41; book 99 is in no row.
        ms = [
            fake_measurement(tid="t1", book=40, d_order=0.1, d_structure=0.5),
            fake_measurement(tid="t2", book=40, d_order=0.2, d_structure=0.6),
            fake_measurement(tid="t2", book=41, d_order=0.3, d_structure=0.7),
        ]
        means, _ = aggregate(ResultsTable.from_measurements(ms))
        assert np.isnan(means.d_order[0, 1])
        selected = means.select([41, 99, 40])
        assert (selected.groups, selected.book_ids) == (("t1", "t2"), (41, 99, 40))
        present = ~np.isnan(selected.d_order)
        assert present.tolist() == [[False, False, True], [True, False, True]]
        assert np.array_equal(~np.isnan(selected.d_structure), present)
        assert selected.d_order[present].tolist() == [0.1, 0.3, 0.2]
        assert selected.d_structure[present].tolist() == [0.5, 0.7, 0.6]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate(ResultsTable.from_measurements([]))


class TestSerialization:
    def test_csv_roundtrip(self):
        ms = [
            fake_measurement(tid="t2", rep=1),
            fake_measurement(tid="t1", rep=0, d_order=1 / 3),
        ]
        buf = io.StringIO()
        write_results_csv(ResultsTable.from_measurements(ms), buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)
        back = read_results_csv(io.StringIO(text))
        assert back.translation_id == ("t1", "t2")  # sorted
        assert back.d_order[0] == pytest.approx(1 / 3, abs=1e-6)

    def test_six_significant_digits(self):
        assert format_float(1 / 3) == "0.333333"
        assert format_float(1234567.0) == "1.23457e+06"
        assert format_float(0.25) == "0.25"

    def test_rows_rounded_to_six_digits_accepted(self):
        # The d_* check must allow the rounding of all three written values,
        # at any magnitude and sign.
        rng = random.Random(5)
        ms = []
        for rep in range(3000):
            scale = 10.0 ** rng.randint(-4, 4)
            h = rng.uniform(0.1, 9.99) * scale
            d_order = rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 0) * h
            d_structure = rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 0) * h
            ms.append(BookMeasurement(
                translation_id="t", language="und", book_id=40, replicate=rep,
                n_chars=10, h_original=h, h_order=h + d_order, h_structure=h + d_structure,
                d_order=d_order, d_structure=d_structure,
            ))
        buf = io.StringIO()
        write_results_csv(ResultsTable.from_measurements(ms), buf)
        assert len(read_results_csv(io.StringIO(buf.getvalue()))) == 3000

    def test_integer_beyond_int64_rejected(self):
        # book_id, replicate and N are read into int64 arrays.
        text = ",".join(RESULT_COLUMNS) + "\nt,l,40,0,9223372036854775808,1,1.1,1.2,0.1,0.2\n"
        with pytest.raises(ValueError, match="^results CSV row 2: int too big to convert$"):
            read_results_csv(io.StringIO(text))

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            read_results_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_sort_is_deterministic(self):
        ms = [
            fake_measurement(tid="b", book=41, rep=1),
            fake_measurement(tid="a", book=66, rep=0),
            fake_measurement(tid="b", book=41, rep=0),
        ]
        buf = io.StringIO()
        write_results_csv(ResultsTable.from_measurements(ms), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert [(tid, int(book), int(rep)) for tid, _, book, rep, *_ in rows] == [
            ("a", 66, 0),
            ("b", 41, 0),
            ("b", 41, 1),
        ]

    @pytest.mark.parametrize("path", GOLDEN_RESULTS, ids=lambda p: str(p.relative_to(GOLDEN)))
    def test_golden_results_round_trip(self, path):
        # The writer is the reader's inverse on every results.csv that analyze wrote.
        buf = io.StringIO()
        write_results_csv(read_results_csv(path), buf)
        assert buf.getvalue().encode("utf-8") == path.read_bytes()


def reference_aggregate(measurements, group_by):
    """Row-object aggregation with ``statistics.fmean``, pivoted to groups
    by books: the definition the columnar ``aggregate`` must reproduce bit
    for bit."""
    per_translation = {}
    for m in measurements:
        _, d_order, d_structure = per_translation.setdefault(
            (m.translation_id, m.book_id), (m.language, [], [])
        )
        d_order.append(m.d_order)
        d_structure.append(m.d_structure)
    by_language = group_by == "language"
    groups = {}
    for (tid, book_id), (language, d_order, d_structure) in sorted(per_translation.items()):
        if by_language:
            d_order, d_structure = [statistics.fmean(d_order)], [statistics.fmean(d_structure)]
        units = groups.setdefault((language if by_language else tid, book_id), ([], []))
        units[0].extend(d_order)
        units[1].extend(d_structure)
    group_ids = sorted({group for group, _ in groups})
    book_ids = sorted({book_id for _, book_id in groups})
    cells = np.full((2, len(group_ids), len(book_ids)), np.nan)
    for (group, book_id), (d_o, d_s) in groups.items():
        cells[:, group_ids.index(group), book_ids.index(book_id)] = (
            statistics.fmean(d_o), statistics.fmean(d_s)
        )
    return GroupMeans(tuple(group_ids), tuple(book_ids), *cells)


class TestAggregateBitEquality:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_fmean_reference(self, seed):
        # Unequal replicate counts, languages spanning several translations,
        # books missing from some translations, and penalties of mixed sign
        # and magnitude, where a plain running sum would round differently.
        rng = random.Random(seed)
        n_languages = rng.randint(1, 4)
        ms = []
        for t in range(rng.randint(1, 9)):
            language = f"l{rng.randrange(n_languages)}"
            for book in rng.sample([40, 41, 42, 66], rng.randint(1, 4)):
                for rep in range(rng.randint(1, 5)):
                    d_order, d_structure = (
                        rng.choice([-1, 1]) * rng.uniform(0, 1) * 10.0 ** rng.randint(-9, 3)
                        for _ in range(2)
                    )
                    ms.append(fake_measurement(f"t{t}", language, book, rep, d_order, d_structure))
        rng.shuffle(ms)
        per_translation, per_language = aggregate(ResultsTable.from_measurements(ms))
        assert_same_means(per_translation, reference_aggregate(ms, "translation"))
        assert_same_means(per_language, reference_aggregate(ms, "language"))


def reference_read(text):
    """The row-by-row reader that ``read_results_csv`` replaced, with its
    checks in their order: the error text it gives is the one the columnar
    reader must give."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != RESULT_COLUMNS:
        raise ValueError(
            f"results CSV schema mismatch: expected columns {','.join(RESULT_COLUMNS)}"
        )
    rows = []
    seen = {}
    language_of = {}  # translation id -> (its language, the row that gave it)
    line_no = 1
    try:
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(RESULT_COLUMNS):
                raise ValueError(f"results CSV row {line_no}: wrong field count")
            try:
                row = BookMeasurement(
                    translation_id=rec[0],
                    language=rec[1],
                    book_id=ascii_int("book_id", rec[2]),
                    replicate=ascii_int("replicate", rec[3]),
                    n_chars=ascii_int("N", rec[4]),
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
            if row.book_id < 1:
                raise ValueError(
                    f"results CSV row {line_no}: book_id must be >= 1, got {row.book_id}"
                )
            if row.n_chars < 1:
                raise ValueError(f"results CSV row {line_no}: N must be >= 1, got {row.n_chars}")
            h0 = row.h_original
            for name, d, h in (("d_order", row.d_order, row.h_order),
                               ("d_structure", row.d_structure, row.h_structure)):
                if abs(d - (h - h0)) > measures._ROUNDING_6G * (abs(d) + abs(h) + abs(h0)):
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
            first = language_of.setdefault(row.translation_id, (row.language, line_no))
            if first[0] != row.language:
                raise ValueError(
                    f"results CSV row {line_no}: translation {row.translation_id} has language "
                    f"{row.language}, but row {first[1]} gave it {first[0]}"
                )
            seen[key] = line_no
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"results CSV row {line_no + 1}: {exc}") from None
    return rows


def ascii_int(name, field):
    """``field`` as an int, if it is ASCII digits."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{name} must be ASCII digits, got {field!r}")
    return int(field)


FAULTS = (
    "unparsable", "field_count", "non_finite", "nonpositive_n", "penalty_off", "duplicate",
    "oversized", "language", "not_ascii_digits", "book_zero",
)


def corrupt(rng, records, fault, i):
    """Apply one fault of the given kind to record ``i``. A record may
    already have lost a field to an earlier fault."""
    rec = records[i]
    last = len(rec) - 1
    if fault == "unparsable":
        rec[rng.randint(2, last)] = rng.choice(["x", "1.5e", "", "4-0"])
    elif fault == "field_count":
        if rng.random() < 0.5:
            del rec[rng.randrange(len(rec))]
        else:
            rec.append("0")
    elif fault == "non_finite":
        rec[rng.randint(5, last)] = rng.choice(["nan", "inf", "-inf", "NaN"])
    elif fault == "nonpositive_n":
        rec[4] = str(-rng.randint(0, 5))
    elif fault == "not_ascii_digits":
        # Each is an id or count to int(), which takes signs, "_" and all digits.
        rec[rng.randint(2, 4)] = rng.choice(["٤٠", "4_1", " +42 ", "1_00", "-7", "-1", "+0"])
    elif fault == "book_zero":
        rec[2] = rng.choice(["0", "00"])
    elif fault == "oversized":
        # More characters than the csv module reads in one field.
        rec[rng.randrange(len(rec))] = "x" * (csv.field_size_limit() + 1)
    elif fault == "penalty_off":
        column = min(rng.choice([8, 9]), last)
        try:
            rec[column] = format_float(float(rec[column]) + rng.choice([-1, 1]) * 0.01)
        except ValueError:
            pass  # already unparsable
    elif fault == "language":
        rec[1] = rng.choice(["la", "lb", "ld", "lx"])  # may be its own
    else:
        other = records[rng.choice([j for j in range(len(records)) if j != i])]
        rec[0], rec[2], rec[3] = other[0], other[2], other[3]


def read_outcome(read, text):
    """The error text of ``read(text)``, or the columns it read."""
    try:
        rows = read(text)
    except ValueError as exc:
        return str(exc)
    table = rows if isinstance(rows, ResultsTable) else ResultsTable.from_measurements(rows)
    return [list(getattr(table, name)) for name in RESULT_COLUMNS[:4] + ("n_chars",)
            + RESULT_COLUMNS[5:]]


class TestReadErrors:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
        chunk=st.sampled_from([1, 2, 3, 5, 8, measures._CHUNK_ROWS]),
    )
    def test_names_the_row_the_row_loop_named(self, seed, faults, chunk):
        # 1-3 faults of any kind on random records, several possibly on one
        # record, with blank records between and chunk boundaries anywhere.
        rng = random.Random(seed)
        keys = [(t, b, r) for t in ("a", "b,c", "d") for b in (40, 41, 42) for r in (0, 1, 2)]
        records = []
        for tid, book, rep in sorted(rng.sample(keys, rng.randint(2, len(keys)))):
            h = [rng.uniform(0.5, 3.0) for _ in range(3)]
            records.append([
                tid, f"l{tid[0]}", str(book), str(rep), str(rng.randint(1, 10**6)),
                *map(format_float, h), format_float(h[1] - h[0]), format_float(h[2] - h[0]),
            ])
        for fault in faults:
            corrupt(rng, records, fault, rng.randrange(len(records)))
        for _ in range(rng.randint(0, 2)):
            records.insert(rng.randint(0, len(records)), [])  # blank records
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(records)
        text = buf.getvalue()

        expected = read_outcome(reference_read, text)
        with mock.patch.object(measures, "_CHUNK_ROWS", chunk):
            got = read_outcome(lambda t: read_results_csv(io.StringIO(t)), text)
        assert got == expected

    def test_valid_table_equals_row_loop(self):
        rng = random.Random(3)
        ms = [
            fake_measurement(f"t{t}", f"l{t % 3}", book, rep, rng.uniform(-1, 1), rng.random())
            for t in range(40) for book in (40, 66) for rep in range(3)
        ]
        buf = io.StringIO()
        write_results_csv(ResultsTable.from_measurements(ms), buf)
        text = buf.getvalue().replace("\n", "\n\n", 7)  # blank records, then 240 rows
        expected = read_outcome(reference_read, text)
        with mock.patch.object(measures, "_CHUNK_ROWS", 16):
            got = read_outcome(lambda t: read_results_csv(io.StringIO(t)), text)
        assert len(expected[0]) == 240
        assert got == expected
