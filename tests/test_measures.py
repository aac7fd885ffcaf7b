"""Three-variant measurement orchestration and aggregation."""

from __future__ import annotations

import io
import random

import pytest

from conftest import random_book
from wordtradeoff import measures
from wordtradeoff.corpus import Book, Verse, VerseRef, flatten
from wordtradeoff.measures import (
    RESULT_COLUMNS,
    AggregateMeasurement,
    BookMeasurement,
    MeasureConfig,
    aggregate,
    format_float,
    measure_book,
    read_results_csv,
    sort_measurements,
    write_results_csv,
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
        assert len({r.seeds["verse_shuffle"] for r in rows}) == 3

    def test_no_verse_shuffle_uses_canonical_order(self, monkeypatch):
        book = random_book(4, max_verses=8)
        cfg = MeasureConfig(replicates=1, verse_shuffle=False)
        rows = measure_book(book, cfg)
        assert rows[0].n_chars == len(flatten(book))
        # h_original must equal the canonical-order estimate exactly
        from wordtradeoff.entropy import entropy_rate, match_lengths

        assert rows[0].h_original == entropy_rate(match_lengths(flatten(book))).h_bpc

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


class TestAggregate:
    def test_identity_for_single_measurement(self):
        rows = aggregate([fake_measurement()], group_by="translation")
        assert len(rows) == 1
        agg = rows[0]
        assert agg.group == "t"
        assert agg.mean_d_order == pytest.approx(0.1)
        assert agg.count == 1

    def test_language_mean_of_two_translations(self):
        ms = [
            fake_measurement(tid="t1", lang="deu", d_order=0.2),
            fake_measurement(tid="t2", lang="deu", d_order=0.4),
        ]
        rows = aggregate(ms, group_by="language")
        assert len(rows) == 1
        assert rows[0].mean_d_order == pytest.approx(0.3)
        assert rows[0].count == 2

    def test_replicates_folded_before_translations(self):
        # t1 has replicates (0.0, 0.2) -> mean 0.1; t2 has a single 0.5.
        ms = [
            fake_measurement(tid="t1", lang="deu", rep=0, d_order=0.0),
            fake_measurement(tid="t1", lang="deu", rep=1, d_order=0.2),
            fake_measurement(tid="t2", lang="deu", rep=0, d_order=0.5),
        ]
        rows = aggregate(ms, group_by="language")
        assert rows[0].mean_d_order == pytest.approx((0.1 + 0.5) / 2)

    def test_count_and_means_per_grouping(self):
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
        t1, t2, t3 = aggregate(ms, group_by="translation")
        assert [t.group for t in (t1, t2, t3)] == ["t1", "t2", "t3"]
        assert [t.count for t in (t1, t2, t3)] == [2, 3, 1]

        deu, fra = aggregate(ms, group_by="language")
        assert (deu.group, deu.count, fra.group, fra.count) == ("deu", 2, "fra", 1)
        # Over the translation means (0.2, 0.7) and (0.3, 0.2), not the replicates.
        assert deu.mean_d_order == pytest.approx(0.45)
        assert deu.mean_d_structure == pytest.approx(0.25)

    def test_books_kept_separate(self):
        ms = [fake_measurement(book=b) for b in (40, 41, 42, 43, 44, 66)]
        rows = aggregate(ms, group_by="language")
        assert [r.book_id for r in rows] == [40, 41, 42, 43, 44, 66]

    def test_input_order_irrelevant(self):
        ms = [
            fake_measurement(tid="t1", lang="deu", rep=r, d_order=0.1 * r)
            for r in range(3)
        ]
        assert aggregate(ms, "language") == aggregate(list(reversed(ms)), "language")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "language")

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            aggregate([fake_measurement()], "continent")


class TestSerialization:
    def test_csv_roundtrip(self):
        ms = [
            fake_measurement(tid="t2", rep=1),
            fake_measurement(tid="t1", rep=0, d_order=1 / 3),
        ]
        buf = io.StringIO()
        write_results_csv(ms, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)
        back = read_results_csv(io.StringIO(text))
        assert [m.translation_id for m in back] == ["t1", "t2"]  # sorted
        assert back[0].d_order == pytest.approx(1 / 3, abs=1e-6)

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
        write_results_csv(ms, buf)
        assert len(read_results_csv(io.StringIO(buf.getvalue()))) == 3000

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            read_results_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_sort_is_deterministic(self):
        ms = [
            fake_measurement(tid="b", book=41, rep=1),
            fake_measurement(tid="a", book=66, rep=0),
            fake_measurement(tid="b", book=41, rep=0),
        ]
        ordered = sort_measurements(ms)
        assert [(m.translation_id, m.book_id, m.replicate) for m in ordered] == [
            ("a", 66, 0),
            ("b", 41, 0),
            ("b", 41, 1),
        ]

    def test_negative_penalty_flag(self):
        assert fake_measurement(d_order=-0.01).has_negative_penalty
        assert not fake_measurement().has_negative_penalty
