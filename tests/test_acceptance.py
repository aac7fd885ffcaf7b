"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they happen. Criteria 2 and 6 take a few minutes (they
estimate entropy on up-to-10^6-character sequences over 20 seeds).

Criterion 2 checks that the entropy-rate estimator converges, not that
it meets a fixed error bound at finite N: the estimator's known bias
(see the ``entropy`` module docstring) is 9% at 10^6 characters. It
asserts a strictly falling median error, agreement within 1% with the
bias-predicted estimate for an iid uniform source, and a limit,
extrapolated along that bias, within 5% of the true rate.

The final criterion requires a locally available verse-aligned corpus
and is skipped unless WORDTRADEOFF_CORPUS_DIR points at a directory of
``pbc``-format files (it is meant for corpus holders, not CI).
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_book
from wordtradeoff.cli import RunConfig, cmd_analyze
from wordtradeoff.corpus import flatten, parse_corpus, truncate_books
from wordtradeoff.entropy import entropy_rate, match_lengths, match_lengths_naive, run_oracle_check
from wordtradeoff.measures import (
    MeasureConfig,
    ResultsTable,
    aggregate,
    measure_book,
    read_results_csv,
)
from wordtradeoff.stats import exact_perm_test, fit_reciprocal, spearman
from wordtradeoff.testkit import (
    generate,
    markov_source,
    render_toy_corpus,
    toy_language_pair,
    uniform_iid,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_match_length_oracle_equivalence():
    started = time.monotonic()
    fixtures_ok = (
        match_lengths("montana bananas").values[9] == 4
        and match_lengths_naive("montana bananas").values[9] == 4
        and match_lengths("abab").values.tolist() == [1, 1, 3, 2]
        and match_lengths_naive("abab").values.tolist() == [1, 1, 3, 2]
        and match_lengths("aaaa").values.tolist() == [1, 2, 3, 2]
        and match_lengths_naive("aaaa").values.tolist() == [1, 2, 3, 2]
    )
    counterexample = run_oracle_check(count=1000, seed=20260811)
    elapsed = time.monotonic() - started
    report(
        1,
        "match-length oracle equivalence",
        fixtures_ok and counterexample is None and elapsed < 30.0,
        f"1000 random cases + fixtures in {elapsed:.1f}s"
        + ("" if counterexample is None else f"; counterexample {counterexample!r}"),
    )


def bias_weight(n: int) -> float:
    """w(N) = (1/N) sum_{i=1..N} 1/log2(i+1), the weight of the estimator's bias.

    With E[l_i] ~ log2(i)/h + C the estimate obeys 1/h_N ~ 1/h + C * w(N).
    """
    return float(np.mean(1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))))


def predicted_uniform_iid_estimate(k: int, n: int) -> float:
    """The estimate expected at length n for an iid uniform k-symbol source.

    Plugs the mean suffix-tree insertion depth among i-1 earlier suffixes,
    E[l_i] = log_k(i-1) + gamma/ln k + 1/2 (Szpankowski 1993, IEEE Trans.
    IT 39(5)), with l_1 = 1, into the estimator's formula.
    """
    earlier = np.arange(1, n, dtype=np.float64)
    expected = np.concatenate(
        ([1.0], np.log(earlier) / np.log(k) + np.euler_gamma / np.log(k) + 0.5)
    )
    return n / float(np.sum(expected / np.log2(np.arange(2, n + 2, dtype=np.float64))))


def test_criterion_2_estimator_convergence():
    """The estimator converges to the true rate (Kontoyiannis et al. 1998).

    The theorem gives no finite-N error bound, so the criterion checks
    (1) that the median relative error falls strictly with N, (2) that
    for iid uniform k=4 the median estimate lies within 1% of the
    estimate its known finite-N bias predicts, and (3) that the limit
    h_inf, whose inverse is the intercept of a least-squares line of
    1/median(h_N) against w(N) over N >= 10^4, lies within 5% of h_true.
    """
    sources = {
        "iid_uniform_k4": uniform_iid(4),
        "markov_p0.9": markov_source([[0.9, 0.1], [0.1, 0.9]]),
    }
    n_seeds = 20
    sizes = (10**3, 10**4, 10**5, 10**6)
    fit_sizes = sizes[1:]

    lines = []
    decreasing = near_prediction = consistent = True
    for name, source in sources.items():
        medians = {
            n: statistics.median(
                entropy_rate(match_lengths(generate(source, n, seed=seed).chars))
                for seed in range(n_seeds)
            )
            for n in sizes
        }
        errors = [abs(medians[n] - source.h_true) / source.h_true for n in sizes]
        decreasing &= all(a > b for a, b in zip(errors, errors[1:]))
        points = []
        for n, error in zip(sizes, errors):
            point = f"1e{round(np.log10(n))}: h={medians[n]:.4f} err={error:.4f}"
            if name == "iid_uniform_k4":
                predicted = predicted_uniform_iid_estimate(source.k, n)
                gap = (medians[n] - predicted) / predicted
                near_prediction &= abs(gap) <= 0.01
                point += f" pred={predicted:.4f} gap={gap:+.4f}"
            points.append(point)
        slope, intercept = np.polyfit(
            [bias_weight(n) for n in fit_sizes],
            [1.0 / medians[n] for n in fit_sizes],
            1,
        )
        h_inf = 1.0 / intercept
        drift = (h_inf - source.h_true) / source.h_true
        consistent &= abs(drift) <= 0.05
        lines.append(
            f"{name} (h_true={source.h_true:.4f}): " + ", ".join(points)
            + f"; h_inf={h_inf:.4f} ({drift:+.4f}) C={slope:.4f}"
        )

    report(
        2,
        "estimator convergence",
        decreasing and near_prediction and consistent,
        f"medians over {n_seeds} seeds: " + "; ".join(lines)
        + f" (error decreasing={decreasing}, iid within 1% of prediction={near_prediction}, "
        f"h_inf within 5%={consistent})",
    )


def test_criterion_3_transform_invariants():
    from wordtradeoff.transforms import (
        build_mask_table,
        destroy_word_order,
        mask_word_structure,
        shuffle_verses,
    )

    checked = 0
    for seed in range(500):
        book = random_book(seed)
        text = flatten(book)
        tokens = text.split(" ")

        table = build_mask_table(dict.fromkeys(tokens), seed)
        masked = mask_word_structure(tokens, table)
        masked_tokens = masked.split(" ")
        assert len(masked) == len(text)
        assert len(masked_tokens) == len(tokens)
        assert [len(t) for t in masked_tokens] == [len(t) for t in tokens]
        assert sorted(Counter(masked_tokens).values()) == sorted(
            Counter(tokens).values()
        )
        for original, out in zip(tokens, masked_tokens):
            if len(original) == 1:
                assert out == original

        shuffled = shuffle_verses(book, seed)
        assert Counter(v.text for v in shuffled.verses) == Counter(
            v.text for v in book.verses
        )

        counts = [len(v.text.split(" ")) for v in book.verses]
        order = destroy_word_order(tokens, counts, seed)
        out_iter = iter(order.split(" "))
        for verse in book.verses:
            verse_tokens = verse.text.split(" ")
            got = [next(out_iter) for _ in verse_tokens]
            assert Counter(got) == Counter(verse_tokens)
        assert len(order) == len(text)
        checked += 1

    report(3, "transform invariants", checked == 500, f"{checked} random books, all exact")


def test_criterion_4_exact_permutation_p_values():
    x = (1, 2, 3, 4, 5, 6)
    y_d2_10 = (3, 2, 1, 4, 6, 5)  # sum d^2 = 10, r_s = 5/7 ~ .71
    y_d2_8 = (3, 1, 2, 5, 4, 6)  # sum d^2 = 8, r_s = 27/35 ~ .77
    r10 = exact_perm_test(x, y_d2_10, alternative="greater")
    r8 = exact_perm_test(x, y_d2_8, alternative="greater")
    ok = (
        r10.p_value == Fraction(49, 720)
        and r8.p_value == Fraction(37, 720)
        and abs(r10.r_s - 5 / 7) < 1e-12
        and abs(r8.r_s - 27 / 35) < 1e-12
    )
    report(
        4,
        "exact permutation p-values",
        ok,
        f"p(sumd2=10)={r10.p_value} (~{float(r10.p_value):.3f}), "
        f"p(sumd2=8)={r8.p_value} (~{float(r8.p_value):.3f})",
    )


def test_criterion_5_reciprocal_fit_recovery():
    xs = np.linspace(0.25, 1.25, 12)
    exact = fit_reciprocal(xs, 2.0 + 3.0 / xs)
    exact_ok = (
        abs(exact.beta0 - 2.0) <= 1e-9
        and abs(exact.beta1 - 3.0) <= 1e-9
        and exact.r_squared >= 1.0 - 1e-9
    )

    beta0, beta1 = 0.5, 0.3
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.25, 1.25, size=50)
        y = beta0 + beta1 / x + rng.normal(0.0, 0.05, size=50)
        fit = fit_reciprocal(x, y)
        if (
            abs(fit.beta0 - beta0) <= 0.1 * beta0
            and abs(fit.beta1 - beta1) <= 0.1 * beta1
        ):
            hits += 1
    report(
        5,
        "reciprocal fit recovery",
        exact_ok and hits >= 18,
        f"exact to 1e-9 (R^2={exact.r_squared:.12f}), noisy recovery {hits}/20",
    )


def test_criterion_6_toy_language_directionality():
    cfg = MeasureConfig(master_seed=0, replicates=1)
    order_wins = 0
    structure_wins = 0
    points = []
    for seed in range(20):
        positional, affixal = toy_language_pair(seed)
        (pos,) = measure_book(render_toy_corpus(positional, 300, seed=seed), cfg)
        (aff,) = measure_book(render_toy_corpus(affixal, 300, seed=seed), cfg)
        order_wins += pos.d_order > aff.d_order
        structure_wins += aff.d_structure > pos.d_structure
        points.append((pos.d_order, pos.d_structure))
        points.append((aff.d_order, aff.d_structure))
    pooled_rs = spearman([p[0] for p in points], [p[1] for p in points])
    report(
        6,
        "toy-language trade-off directionality",
        order_wins >= 15 and structure_wins >= 15 and pooled_rs < 0,
        f"d_order(positional)>d_order(affixal) in {order_wins}/20, "
        f"d_structure(affixal)>d_structure(positional) in {structure_wins}/20, "
        f"pooled spearman={pooled_rs:.3f}",
    )


def test_criterion_7_determinism_across_worker_counts(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    words = ["mata", "kilo", "rena", "bopu", "sati", "dole", "figa", "nemu"]
    lines = ["# language_code: toy"]
    for book_id in (40, 41, 66):
        for verse in range(1, 16):
            text = " ".join(words[(book_id * verse + i) % len(words)] for i in range(7))
            lines.append(f"{book_id}\t1\t{verse}\t{text}")
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    outputs = {}
    for workers in (1, 4, 16):
        out_dir = tmp_path / f"w{workers}"
        config = RunConfig(
            inputs=(str(corpus),),
            fmt="tsv",
            books=(40, 41, 66),
            replicates=2,
            workers=workers,
            out_dir=str(out_dir),
        )
        assert cmd_analyze(config) == 0
        outputs[workers] = (out_dir / "results.csv").read_bytes()

    ok = outputs[1] == outputs[4] == outputs[16] and len(outputs[1]) > 0
    report(
        7,
        "determinism across worker counts",
        ok,
        f"results.csv identical at workers 1/4/16 ({len(outputs[1])} bytes)",
    )


CORPUS_DIR = os.environ.get("WORDTRADEOFF_CORPUS_DIR")


@pytest.mark.skipif(
    not CORPUS_DIR,
    reason="set WORDTRADEOFF_CORPUS_DIR to a directory of pbc files (corpus holders only)",
)
def test_criterion_8_full_corpus_tradeoff():
    corpus_dir = Path(CORPUS_DIR)
    files = sorted(p for p in corpus_dir.iterdir() if p.is_file())
    assert files, f"no corpus files in {corpus_dir}"
    book_ids = (40, 41, 42, 43, 44, 66)

    revelation_shortest = 0
    eligible = 0
    measurements = []
    cfg = MeasureConfig(master_seed=0, replicates=2)
    for path in files:
        found = list(parse_corpus(path, "pbc", books=book_ids).books.values())
        if len(found) != len(book_ids):
            continue
        eligible += 1
        shortest = min(found, key=lambda b: b.char_length)
        revelation_shortest += shortest.book_id == 66
        for book in truncate_books(found, "token"):
            measurements.extend(measure_book(book, cfg))

    assert eligible >= 2, "need at least two translations with all six books"
    _, per_language = aggregate(ResultsTable.from_measurements(measurements))
    selected = per_language.select(book_ids)
    failures = []
    for book_id, x, y in zip(book_ids, selected.d_order.T, selected.d_structure.T):
        present = ~np.isnan(x)
        x, y = x[present], y[present]
        r_s = spearman(x, y)
        fit = fit_reciprocal(x, y)
        if not (r_s <= -0.6 and fit.r_squared >= 0.5):
            failures.append(f"book {book_id}: r_s={r_s:.3f}, R2={fit.r_squared:.3f}")
    report(
        8,
        "full-corpus trade-off (conditional)",
        not failures,
        f"{eligible} translations, Revelation shortest in "
        f"{revelation_shortest}/{eligible}; " + ("; ".join(failures) or "all books pass"),
    )
