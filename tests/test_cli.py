"""End-to-end command-line pipeline tests on small synthetic corpora."""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import functools
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wordtradeoff import cli, entropy, measures
from wordtradeoff.cli import RunConfig, cmd_analyze, main
from wordtradeoff.corpus import FORMATS, Book, Verse, VerseRef, parse_corpus
from wordtradeoff.entropy import MatchLengths, kernel_name, match_lengths_naive
from wordtradeoff.measures import (
    RESULT_COLUMNS,
    BookMeasurement,
    MeasureConfig,
    ResultsTable,
    measure_replicate,
    read_results_csv,
    write_results_csv,
)
from wordtradeoff.stats import spearman


def write_toy_corpus(path: Path, mode: str, seed: int, sentences: int = 25) -> None:
    code = main(
        [
            "synth", "toy",
            "--mode", mode,
            "--sentences", str(sentences),
            "--seed", str(seed),
            "--out", str(path),
        ]
    )
    assert code == 0


def write_two_book_corpus(path: Path, tid_hint: str = "x") -> None:
    lines = ["# language_code: toy"]
    words = ["mata", "kilo", "rena", "bopu", "sati", "dole", "figa"]
    for book_id in (40, 41):
        for verse in range(1, 13):
            text = " ".join(
                words[(book_id + verse + i) % len(words)] for i in range(6)
            )
            lines.append(f"{book_id}\t1\t{verse}\t{text}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSynth:
    def test_toy_output_parses_as_tsv(self, tmp_path):
        out = tmp_path / "toy.tsv"
        write_toy_corpus(out, "positional", seed=3)
        tr = parse_corpus(out, "tsv")
        assert tr.books[1].language == "toy_positional"
        assert len(tr.books[1].verses) == 25

    def test_toy_vocabulary_seed_is_the_seed(self, tmp_path, capsys):
        # The header names the vocabulary seed, which is --seed.
        out = tmp_path / "toy.tsv"
        write_toy_corpus(out, "affixal", seed=3)
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "# generator: toy mode=affixal sentences=25 seed=3 vocab_seed=3"
        with pytest.raises(SystemExit):
            main(["synth", "toy", "--help"])
        assert "--vocab-seed" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["synth", "toy", "--mode", "affixal", "--vocab-seed", "5"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --vocab-seed 5"
        ]

    def test_toy_is_the_only_generator(self, capsys, caplog):
        # Symbol streams hold no space, so analyze would read each verse as
        # one token; the estimator checks call testkit.generate in-process.
        # The error names the argument as the usage line does.
        error = exit_1_message(["synth", "stream", "--n", "20"], capsys, caplog)
        assert error == "error: argument GENERATOR: invalid choice: 'stream' (choose from 'toy')"
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        usage = capsys.readouterr().out
        assert usage.startswith("usage: wordtradeoff synth [-h] GENERATOR ...\n")
        assert "\n    toy " in usage and "stream" not in usage


#: Integer flags out of range or not ASCII digits, each a configuration error.
BAD_COUNTS = [
    ["analyze", "--format", "tsv", "--replicates", "0", "c.tsv"],
    ["analyze", "--format", "tsv", "--replicates", "-2", "c.tsv"],
    ["analyze", "--format", "tsv", "--workers", "0", "c.tsv"],
    ["analyze", "--format", "tsv", "--workers", "-3", "c.tsv"],
    ["oracle-check", "--count", "-4"],
    ["synth", "toy", "--mode", "positional", "--sentences", "0"],
    ["synth", "toy", "--mode", "positional", "--seed", "-1"],
    ["analyze", "--format", "tsv", "--books", ",", "c.tsv"],
    ["analyze", "--format", "tsv", "--replicates", "x", "c.tsv"],
    ["analyze", "--format", "tsv", "--replicates", "\u0663", "c.tsv"],
    ["analyze", "--format", "tsv", "--workers", "1_0", "c.tsv"],
    ["analyze", "--format", "tsv", "--seed", "+3", "c.tsv"],
    ["analyze", "--format", "tsv", "--seed", "-\u0663", "c.tsv"],
    ["oracle-check", "--count", "1_000"],
    ["oracle-check", "--seed", "\uff17"],
    ["synth", "toy", "--mode", "positional", "--sentences", " 5"],
]


@pytest.mark.parametrize("argv", BAD_COUNTS, ids=" ".join)
def test_bad_count_exits_1_with_one_line(argv, tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.chdir(tmp_path)
    write_two_book_corpus(tmp_path / "c.tsv")
    exit_1_message(argv, capsys, caplog)


def exit_1_message(argv, capsys, caplog) -> str:
    """The one error line, from the parser or the log, of ``main(argv)``,
    which must exit 1 and write nothing to stdout."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    messages = [line for line in captured.err.splitlines() if line.startswith("error:")]
    messages += [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(messages) == 1
    assert "Traceback" not in captured.err and captured.out == ""
    return messages[0]


class TestAnalyze:
    def _run(self, tmp_path, **overrides) -> tuple[int, Path]:
        corpus = tmp_path / "toy1.tsv"
        write_two_book_corpus(corpus)
        out_dir = tmp_path / "out"
        kwargs = dict(books=(40, 41), replicates=2)
        kwargs.update(overrides)
        config = RunConfig(
            inputs=(str(corpus),), fmt="tsv", out_dir=str(out_dir), **kwargs
        )
        return cmd_analyze(config), out_dir

    def test_row_count_and_exit_code(self, tmp_path):
        code, out_dir = self._run(tmp_path)
        assert code == 0
        rows = read_results_csv(out_dir / "results.csv")
        assert len(rows) == 2 * 2  # 2 books x 2 replicates
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["rows_written"] == 4
        assert manifest["version"]
        assert manifest["kernel"] in ("c", "python")
        assert manifest["kernel"] == kernel_name()

    def test_rerun_byte_identical(self, tmp_path):
        code1, out_dir = self._run(tmp_path)
        first = (out_dir / "results.csv").read_bytes()
        first_manifest = (out_dir / "manifest.json").read_bytes()
        code2, _ = self._run(tmp_path)
        assert (code1, code2) == (0, 0)
        assert (out_dir / "results.csv").read_bytes() == first
        assert (out_dir / "manifest.json").read_bytes() == first_manifest

    def test_missing_book_reported_and_empty_results(self, tmp_path):
        corpus = tmp_path / "toy1.tsv"
        write_two_book_corpus(corpus)
        out_dir = tmp_path / "out"
        config = RunConfig(
            inputs=(str(corpus),),
            fmt="tsv",
            books=(42,),  # not present
            out_dir=str(out_dir),
        )
        assert cmd_analyze(config) == 1
        assert len(read_results_csv(out_dir / "results.csv")) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["missing_books"] == {"toy1": [42]}

    def test_unreadable_input_fatal(self, tmp_path, caplog):
        # A missing file or a directory after a good input: one ERROR line
        # that names it once, by its path and the system's reason.
        good = tmp_path / "good.tsv"
        write_two_book_corpus(good)
        (tmp_path / "dir.tsv").mkdir()
        for name, reason in (("nope.tsv", "No such file or directory"),
                             ("dir.tsv", "Is a directory")):
            bad = tmp_path / name
            for workers in (1, 2):
                caplog.clear()
                config = RunConfig(inputs=(str(good), str(bad)), fmt="tsv", books=(40,),
                                   replicates=1, workers=workers, out_dir=str(tmp_path / "out"))
                assert cmd_analyze(config) == 1
                errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
                assert errors == [f"{bad}: {reason}"]

    def test_per_book_error_isolated(self, tmp_path, monkeypatch):
        real = cli.measure_replicate

        def flaky(book, replicate, cfg):
            if book.book_id == 41:
                raise RuntimeError("injected failure")
            return real(book, replicate, cfg)

        monkeypatch.setattr(cli, "measure_replicate", flaky)
        code, out_dir = self._run(tmp_path)
        assert code == 2
        rows = read_results_csv(out_dir / "results.csv")
        assert set(rows.book_id.tolist()) == {40}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["errors"]) == 2
        assert manifest["errors"][0]["error"] == "injected failure"

    def test_workers_parallel_same_bytes(self, tmp_path):
        code1, out1 = self._run(tmp_path)
        corpus = tmp_path / "toy1.tsv"
        out2 = tmp_path / "out2"
        config = RunConfig(
            inputs=(str(corpus),),
            fmt="tsv",
            books=(40, 41),
            replicates=2,
            workers=2,
            out_dir=str(out2),
        )
        assert cmd_analyze(config) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_truncation_skipped_for_single_book(self, tmp_path):
        code, out_dir = self._run(tmp_path, books=(40,))
        assert code == 0
        rows = read_results_csv(out_dir / "results.csv")
        assert set(rows.book_id.tolist()) == {40}

    def test_duplicate_translation_id_fatal(self, tmp_path, caplog):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "x.tsv")
            write_two_book_corpus(paths[-1])
        out_dir = tmp_path / "out"
        code = main(["analyze", "--format", "tsv", "--books", "40", "--out", str(out_dir),
                     *map(str, paths)])
        assert code == 1
        assert not (out_dir / "results.csv").exists()
        assert f"inputs {paths[0]} and {paths[1]} both have translation id 'x'" in caplog.text
        assert "# translation_id:" in caplog.text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_utf8_file_name_exits_1(self, tmp_path, caplog, workers):
        # Its stem once became a translation id with lone surrogates, and
        # every unit then failed to derive its seed.
        path = tmp_path / os.fsdecode(b"\xff\xfe-bible.tsv")
        try:
            write_two_book_corpus(path)
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        out_dir = tmp_path / "out"
        code = main(["analyze", str(path), "--format", "tsv", "--books", "40",
                     "--replicates", "1", "--workers", str(workers), "--out", str(out_dir)])
        assert code == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "not valid UTF-8" in error and "# translation_id:" in error
        # Named once, as the path itself, not again quoted with its bytes escaped.
        assert error.startswith(f"{path}: ") and error.count("-bible.tsv") == 1
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_same_path_twice_is_a_duplicate(self, tmp_path, caplog, workers):
        # At 3 workers each input is split in two tasks: the second task of
        # the first input is not a duplicate, the first of the second is.
        path = tmp_path / "x.tsv"
        write_two_book_corpus(path)
        argv = ["analyze", str(path), str(path), "--format", "tsv", "--books", "40",
                "--workers", str(workers), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith(f"inputs {path} and {path} both have translation id 'x'")

    def test_each_input_read_once(self, tmp_path, monkeypatch):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for path in paths:
            write_two_book_corpus(path)
        reads = Counter()
        real = Path.read_bytes

        def counted(self):
            reads[str(self)] += 1
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        argv = ["analyze", *map(str, paths), "--format", "tsv", "--books", "40,41",
                "--replicates", "1", "--workers", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert {str(path): reads[str(path)] for path in paths} == dict.fromkeys(map(str, paths), 1)


def _assert_one_output_error(code, capsys, caplog) -> None:
    assert code == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("cannot write output: ")
    assert "Traceback" not in capsys.readouterr().err


class TestUnwritableOutput:
    def test_analyze_fails_before_parsing_or_measuring(self, tmp_path, monkeypatch, capsys, caplog):
        corpus = tmp_path / "c.tsv"
        write_two_book_corpus(corpus)
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        calls = []
        monkeypatch.setattr(cli, "parse_corpus", lambda *args, **kw: calls.append("parse"))
        monkeypatch.setattr(cli, "measure_replicate", lambda *args: calls.append("measure"))
        code = main(["analyze", str(corpus), "--format", "tsv", "--books", "40,41",
                     "--out", str(out)])
        _assert_one_output_error(code, capsys, caplog)
        assert calls == []

    def test_stats(self, tmp_path, capsys, caplog):
        rows = [
            BookMeasurement("t1", "l1", 40, 0, 100, 2.0, 2.5, 2.25, 0.5, 0.25),
            BookMeasurement("t2", "l2", 40, 0, 100, 2.0, 2.25, 2.5, 0.25, 0.5),
        ]
        results = tmp_path / "results.csv"
        with open(results, "w", newline="", encoding="utf-8") as fh:
            write_results_csv(ResultsTable.from_measurements(rows), fh)
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        code = main(["stats", str(results), "--out", str(out)])
        _assert_one_output_error(code, capsys, caplog)

    def test_synth(self, tmp_path, capsys, caplog):
        parent = tmp_path / "parent"
        parent.write_text("a file, not a directory\n")
        code = main(["synth", "toy", "--mode", "affixal", "--out", str(parent / "toy.tsv")])
        _assert_one_output_error(code, capsys, caplog)


# The parent lists the units before it reads any input, so a book that
# the input lacks still gets its one task, in a pool of one.
@pytest.mark.parametrize("books,code,rows,pools", [("40,41", 0, 2, [2]), ("42", 1, 0, [1])])
def test_pool_has_no_more_workers_than_units(tmp_path, monkeypatch, books, code, rows, pools):
    # A stand-in pool that records its size and runs each unit in-process.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    corpus = tmp_path / "c.tsv"
    write_two_book_corpus(corpus)
    out = tmp_path / "out"
    argv = ["analyze", str(corpus), "--format", "tsv", "--books", books,
            "--replicates", "1", "--workers", "8", "--out", str(out)]
    assert main(argv) == code
    assert sizes == pools
    assert len(read_results_csv(out / "results.csv")) == rows
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["workers"] == 8


class TestStats:
    def _results(self, tmp_path) -> Path:
        corpora = []
        for seed, mode in [(0, "positional"), (1, "positional"), (0, "affixal"), (1, "affixal")]:
            path = tmp_path / f"toy_{mode}_{seed}.tsv"
            write_toy_corpus(path, mode, seed=seed, sentences=30)
            corpora.append(str(path))
        out_dir = tmp_path / "out"
        config = RunConfig(
            inputs=tuple(corpora),
            fmt="tsv",
            books=(1,),
            replicates=1,
            truncate="off",
            out_dir=str(out_dir),
        )
        assert cmd_analyze(config) == 0
        return out_dir / "results.csv"

    def test_stats_outputs_written(self, tmp_path):
        results = self._results(tmp_path)
        code = main(["stats", str(results), "--group-by", "language"])
        assert code == 0
        out = results.parent
        assert (out / "fits.csv").exists()
        assert (out / "ranks.csv").exists()
        assert (out / "rank_hist.csv").exists()
        # single book: 12x12 matrix degenerates to 2x2, still written
        assert (out / "corr_matrix.csv").exists()
        # positional vs affixal language groups sit on opposite corners,
        # so the cross-group correlation must come out negative
        fit_line = (out / "fits.csv").read_text().splitlines()[1]
        r_s = float(fit_line.split(",")[-1])
        assert r_s < 0

    def test_single_translation_skips_corr_matrix(self, tmp_path):
        corpus = tmp_path / "only.tsv"
        write_toy_corpus(corpus, "positional", seed=5, sentences=30)
        out_dir = tmp_path / "solo"
        config = RunConfig(
            inputs=(str(corpus),), fmt="tsv", books=(1,), replicates=1,
            truncate="off", out_dir=str(out_dir),
        )
        assert cmd_analyze(config) == 0
        code = main(["stats", str(out_dir / "results.csv")])
        assert code == 0
        assert (out_dir / "ranks.csv").exists()
        assert not (out_dir / "corr_matrix.csv").exists()

    def test_rerun_removes_skipped_outputs(self, tmp_path, caplog):
        # The second run skips corr_matrix.csv and rank_hist.csv (no group
        # has book 99); the first run's copies must not stay beside its files.
        table = Path(__file__).parent / "data" / "golden" / "stats"
        argv = ["stats", str(table / "results.csv"), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "corr_matrix.csv").exists() and (tmp_path / "rank_hist.csv").exists()
        assert main(argv + ["--books", "40,99"]) == 0
        expected = table / "expected" / "books-40-99"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fits.csv", "ranks.csv"]
        for name in ("fits.csv", "ranks.csv"):
            assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
        removed = [r.getMessage() for r in caplog.records
                   if r.levelname == "WARNING" and "an earlier run left" in r.getMessage()]
        assert len(removed) == 2

    def test_tied_rank_tables_warned(self, tmp_path, caplog):
        # In the pbc golden corpus the Han translation's structure
        # penalties are all 0, so its structure ranks are book-id order.
        expected = Path(__file__).parent / "data" / "golden" / "pbc" / "expected" / "defaults"
        assert main(["stats", str(expected / "results.csv"), "--out", str(tmp_path)]) == 0
        (warning,) = [
            r.getMessage() for r in caplog.records
            if r.levelname == "WARNING" and "rank_hist.csv" in r.getMessage()
        ]
        assert "counts 1 rank table(s)" in warning
        assert "(first: tlh-x-bible-2)" in warning
        assert "ranks.csv marks them in its ties column" in warning
        for name in ("ranks.csv", "rank_hist.csv"):
            assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name

    def test_missing_results_fatal(self, tmp_path):
        assert main(["stats", str(tmp_path / "none.csv")]) == 1

    def test_schema_violation_fatal(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["stats", str(bad)]) == 1

    @staticmethod
    def _stats_with_row(tmp_path, caplog, last_row: str) -> int:
        """Run stats on three valid rows plus ``last_row`` (CSV row 5)."""
        lines = [",".join(RESULT_COLUMNS)]
        for tid, d_order, d_structure in (("t1", 0.1, 0.3), ("t2", 0.2, 0.2), ("t3", 0.3, 0.1)):
            lines.append(
                f"{tid},l{tid},40,0,1000,2.5,{2.5 + d_order},{2.5 + d_structure},"
                f"{d_order},{d_structure}"
            )
        lines.append(last_row)
        results = tmp_path / "results.csv"
        results.write_text("\n".join(lines) + "\n")
        code = main(["stats", str(results)])
        assert not (tmp_path / "fits.csv").exists()
        assert "row 5" in caplog.text
        return code

    def test_nan_row_fatal(self, tmp_path, caplog):
        row = "t4,lt4,40,0,1000,nan,nan,nan,nan,nan"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "non-finite" in caplog.text

    def test_infinite_d_order_fatal(self, tmp_path, caplog):
        row = "t4,lt4,40,0,1000,2.5,inf,2.6,inf,0.1"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "non-finite" in caplog.text

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_row_fatal(self, tmp_path, caplog, n):
        # N is ASCII digits, as every integer read: a sign does not parse.
        row = f"t4,lt4,40,0,{n},2.5,2.6,2.8,0.1,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        expected = "N must be >= 1, got 0" if n == "0" else "N must be ASCII digits, got '-5'"
        assert expected in caplog.text

    @pytest.mark.parametrize("ids, fault", [
        ("٤٠,0,1000", "book_id must be ASCII digits, got '٤٠'"),
        ("4_1,0,1000", "book_id must be ASCII digits, got '4_1'"),
        (" +42 ,0,1000", "book_id must be ASCII digits, got ' +42 '"),
        ("40,0,1_00", "N must be ASCII digits, got '1_00'"),
        ("-7,0,1000", "book_id must be ASCII digits, got '-7'"),
        ("40,-1,1000", "replicate must be ASCII digits, got '-1'"),
        ("0,0,1000", "book_id must be >= 1, got 0"),
    ], ids=["arabic-indic", "underscore", "signed", "underscored-n", "negative-book",
            "negative-replicate", "book-0"])
    def test_id_outside_the_integer_grammar_fatal(self, tmp_path, caplog, ids, fault):
        # int() alone would read each of these ids as some book or count.
        row = f"t4,lt4,{ids},2.5,2.6,2.8,0.1,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == f"cannot read results: results CSV row 5: {fault}"

    def test_d_order_not_difference_fatal(self, tmp_path, caplog):
        # 2.6 - 2.5 = 0.1; 0.1001 is off by far more than 6-digit rounding.
        row = "t4,lt4,40,0,1000,2.5,2.6,2.8,0.1001,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "d_order = 0.1001 but h_order - h_original = 0.1" in caplog.text

    def test_d_structure_not_difference_fatal(self, tmp_path, caplog):
        # A sign slip: h_original - h_structure instead of the reverse.
        row = "t4,lt4,40,0,1000,2.5,2.6,2.8,0.1,-0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "d_structure = -0.3" in caplog.text

    def test_duplicate_unit_row_fatal(self, tmp_path, caplog):
        row = "t1,lt1,40,0,1000,2.5,2.6,2.8,0.1,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "duplicate of row 2" in caplog.text

    def test_translation_with_two_languages_fatal(self, tmp_path, caplog):
        # Grouped by language, t1 once counted under lt1 on book 40 and
        # under lx on book 41.
        row = "t1,lx,41,0,1000,2.5,2.6,2.8,0.1,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == ("cannot read results: results CSV row 5: translation t1 has "
                         "language lx, but row 2 gave it lt1")

    def test_oversized_field_fatal(self, tmp_path, caplog):
        # A quoted translation id of 200000 characters: more than the csv
        # module reads in one field (131072).
        row = '"' + "t" * 200000 + '",l,40,0,1000,2.5,2.6,2.8,0.1,0.3'
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == "cannot read results: results CSV row 5: field larger than field limit (131072)"

    @pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header-only", "blank-records"])
    def test_table_without_rows_fatal(self, tmp_path, caplog, body):
        results = tmp_path / "results.csv"
        results.write_text(",".join(RESULT_COLUMNS) + "\n" + body)
        assert main(["stats", str(results)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["results table is empty"]
        assert not (tmp_path / "fits.csv").exists()

    def test_unreadable_header_named_as_row_1(self, tmp_path, caplog):
        results = tmp_path / "results.csv"
        results.write_text('"' + "t" * 200000 + '",language\n')
        assert main(["stats", str(results)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == "cannot read results: results CSV row 1: field larger than field limit (131072)"

    def test_book_whose_fit_raises_is_skipped(self, tmp_path, caplog):
        # Group l1's d_order mean on book 40 is exactly 0, so the reciprocal
        # fit of book 40 raises; book 41 is still fitted and written.
        lines = [",".join(RESULT_COLUMNS)]
        for i, d_order in enumerate((0.0, 0.1, 0.2), start=1):
            for book, d in ((40, d_order), (41, d_order + 0.05)):
                lines.append(f"t{i},l{i},{book},0,1000,2.5,{2.5 + d},{2.5 + 0.3 - d},{d},{0.3 - d}")
        results = tmp_path / "results.csv"
        results.write_text("\n".join(lines) + "\n")
        assert main(["stats", str(results)]) == 0
        skipped = [r.getMessage() for r in caplog.records
                   if r.levelname == "WARNING" and "skipped" in r.getMessage()]
        assert len(skipped) == 1
        assert skipped[0].startswith("book 40: d_order is exactly 0")
        fits = (tmp_path / "fits.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in fits] == ["book_id", "41"]

    def test_repeated_book_ids_counted_once(self, tmp_path):
        results = Path(__file__).parent / "data" / "golden" / "stats" / "results.csv"
        for books in ("40,40,41", "40,41"):
            assert main(["stats", str(results), "--books", books, "--out", str(tmp_path / books)]) == 0
        for name in ("fits.csv", "corr_matrix.csv", "ranks.csv", "rank_hist.csv"):
            repeated = (tmp_path / "40,40,41" / name).read_bytes()
            assert repeated == (tmp_path / "40,41" / name).read_bytes(), name


class TestOracleCheckCommand:
    def test_small_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_oracle_check", functools.partial(entropy.run_oracle_check, max_len=200)
        )
        code = main(["oracle-check", "--count", "20"])
        assert code == 0
        assert capsys.readouterr().out.startswith("oracle-check: PASS (20 cases, ")

    def test_only_count_and_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle-check", "--help"])
        flags = {word.strip("[],") for word in capsys.readouterr().out.split()}
        assert {flag for flag in flags if flag.startswith("--")} == {"--help", "--count", "--seed"}
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--min-len", "5"])
        assert exc.value.code == 1
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert "--min-len" in line

    def test_zero_cases_vacuous_pass(self, capsys):
        code = main(["oracle-check", "--count", "0"])
        assert code == 0
        assert "vacuous" in capsys.readouterr().out

    def test_disagreement_exits_2_with_counterexample(self, monkeypatch, capsys):
        def faulty(s):  # wrong on the last length of every input of 3 or more
            values = match_lengths_naive(s).values.tolist()
            if len(values) >= 3:
                values[-1] += 1
            return MatchLengths(tuple(values))

        monkeypatch.setattr(
            cli,
            "run_oracle_check",
            functools.partial(entropy.run_oracle_check, max_len=20, fast_fn=faulty),
        )
        assert main(["oracle-check", "--count", "5"]) == 2
        prefix, _, shown = capsys.readouterr().out.partition("counterexample: ")
        assert prefix == "oracle-check: FAIL, minimal "
        assert len(ast.literal_eval(shown)) == 3  # shrunk to the shortest failing input


def _parsed_analyze_config(monkeypatch, *flags):
    """The RunConfig that main builds for `analyze c.tsv` plus flags."""
    built = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda config: built.append(config) or 0)
    assert main(["analyze", "c.tsv", *flags]) == 0
    (config,) = built
    return config


class TestRunConfig:
    def test_order_scope_flag_mapping(self, monkeypatch):
        cfg = _parsed_analyze_config(monkeypatch, "--order-scope", "book")
        assert isinstance(cfg, MeasureConfig)
        assert cfg.order_scope == "book"
        assert _parsed_analyze_config(monkeypatch).order_scope == "verse"
        assert RunConfig(inputs=()).order_scope == "verse"

    def test_seeds_may_be_negative(self, monkeypatch):
        assert _parsed_analyze_config(monkeypatch, "--seed", "-5").master_seed == -5
        monkeypatch.setattr(cli, "run_oracle_check", lambda count, seed: None)
        assert main(["oracle-check", "--count", "1", "--seed", "-5"]) == 0

    def test_no_verse_shuffle_mapping(self, monkeypatch):
        cfg = _parsed_analyze_config(monkeypatch, "--no-verse-shuffle")
        assert isinstance(cfg, MeasureConfig)
        assert not cfg.verse_shuffle
        assert _parsed_analyze_config(monkeypatch).verse_shuffle
        assert RunConfig(inputs=()).verse_shuffle

    def test_flags_left_out_take_the_dataclass_defaults(self, monkeypatch):
        # The analyze parser declares no default of its own: RunConfig's are the only ones.
        assert _parsed_analyze_config(monkeypatch) == RunConfig(inputs=("c.tsv",))
        (commands,) = [action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert vars(commands.choices["analyze"].parse_args(["c.tsv"])) == {"inputs": ["c.tsv"]}

    def test_every_analyze_flag_reaches_its_manifest_key(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda config: built.append(config) or 0)
        argv = [
            "analyze", "a.txt", "b.txt",
            "--format", "tsv",
            "--books", "1,2",
            "--seed", "7",
            "--replicates", "2",
            "--truncate", "char",
            "--order-scope", "book",
            "--no-verse-shuffle",
            "--lowercase",
            "--workers", "3",
            "--out", "elsewhere",
        ]
        assert main(argv) == 0
        (config,) = built
        expected = {
            "inputs": ("a.txt", "b.txt"),
            "fmt": "tsv",
            "books": (1, 2),
            "master_seed": 7,
            "replicates": 2,
            "truncate": "char",
            "order_scope": "book",
            "verse_shuffle": False,
            "lowercase": True,
            "workers": 3,
            "out_dir": "elsewhere",
        }
        assert asdict(config) == expected
        defaults = asdict(RunConfig(inputs=()))
        assert [key for key in expected if expected[key] == defaults[key]] == []

        # The run config is the measurement config of its inherited fields.
        verses = tuple(
            Verse(VerseRef(1, 1, v), f"ka{v % 3} lo mi{v % 5} ta") for v in range(1, 30)
        )
        book = Book(book_id=1, verses=verses, translation_id="t", language="x")
        alone = MeasureConfig(master_seed=7, replicates=2, order_scope="book", verse_shuffle=False)
        for r in range(config.replicates):
            assert measure_replicate(book, r, config) == measure_replicate(book, r, alone)

    def test_stats_and_oracle_check_flags_reach_their_parameters(self, monkeypatch):
        calls = {}
        monkeypatch.setattr(cli, "cmd_stats", lambda **kw: calls.setdefault("stats", kw) and 0)
        monkeypatch.setattr(
            cli, "cmd_oracle_check", lambda **kw: calls.setdefault("oracle-check", kw) and 0
        )
        monkeypatch.setattr(
            cli, "cmd_synth_toy", lambda **kw: calls.setdefault("synth toy", kw) and 0
        )
        assert main(["stats", "r.csv", "--books", "40,41", "--group-by", "translation",
                     "--out", "elsewhere"]) == 0
        assert main(["oracle-check", "--count", "3", "--seed", "7"]) == 0
        assert main(["synth", "toy", "--mode", "affixal", "--sentences", "7", "--seed", "2",
                     "--out", "t.tsv"]) == 0
        assert calls == {
            "stats": {"results_path": "r.csv", "books": (40, 41), "group_by": "translation",
                      "out_dir": "elsewhere"},
            "oracle-check": {"count": 3, "seed": 7},
            "synth toy": {"mode": "affixal", "sentences": 7, "seed": 2, "out": "t.tsv"},
        }


def _measure_or_die(book, replicate, config):
    """A measure_replicate whose worker dies on book 40's first replicate."""
    if book.book_id == 40 and replicate == 0:
        os._exit(1)
    return measures.measure_replicate(book, replicate, config)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-in measure function reaches the workers only when they are forked",
)
@pytest.mark.parametrize("replicates", [2, 1000])
def test_dead_worker_exits_2_and_writes_what_finished(tmp_path, monkeypatch, caplog, replicates):
    # Two books, so two units per replicate. With 2000 units the worker
    # usually dies while the parent is still submitting, and submit raises.
    corpus = tmp_path / "c.tsv"
    write_two_book_corpus(corpus)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "measure_replicate", _measure_or_die)
    argv = [
        "analyze", str(corpus),
        "--format", "tsv",
        "--books", "40,41",
        "--replicates", str(replicates),
        "--workers", "2",
        "--out", str(out),
    ]
    assert main(argv) == 2
    messages = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(messages) == 1
    assert "worker process died" in messages[0] and "--workers" in messages[0]

    rows = read_results_csv(out / "results.csv")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    errors = manifest["errors"]
    assert manifest["rows_written"] == len(rows)
    assert len(rows) + len(errors) == 2 * replicates
    assert f"{len(errors)} of {2 * replicates} units" in messages[0]
    assert {"book_id": 40, "replicate": 0} in [
        {"book_id": e["book_id"], "replicate": e["replicate"]} for e in errors
    ]
    assert all("worker process died" in e["error"] for e in errors)
    measured = set(zip(rows.book_id.tolist(), rows.replicate.tolist()))
    assert not measured & {(e["book_id"], e["replicate"]) for e in errors}


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-in measure function reaches the workers only when they are forked",
)
def test_dead_worker_lists_no_unit_of_a_missing_book(tmp_path, monkeypatch, caplog):
    # The input lacks book 1. The first of the two tasks holds book 1's two
    # units and (40, 0), on which its worker dies: only (40, 0) was lost there.
    corpus = tmp_path / "c.tsv"
    write_two_book_corpus(corpus)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "measure_replicate", _measure_or_die)
    argv = ["analyze", str(corpus), "--format", "tsv", "--books", "1,40,41",
            "--replicates", "2", "--workers", "2", "--out", str(out)]
    assert main(argv) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["missing_books"] == {"c": [1]}
    lost = [(e["book_id"], e["replicate"]) for e in manifest["errors"]]
    assert (40, 0) in lost and all(book != 1 for book, _ in lost)
    assert manifest["rows_written"] + len(lost) == 4
    (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert f"{len(lost)} of 4 units" in message


def test_pool_broken_while_submitting_loses_the_unsubmitted_tasks(tmp_path, monkeypatch, caplog):
    # Two inputs at two workers are two tasks. The pool breaks at the second
    # submit: the first task still finishes, the second is listed as lost.
    from concurrent.futures.process import BrokenProcessPool

    golden = Path(__file__).parent / "data" / "golden"
    submit = concurrent.futures.ProcessPoolExecutor.submit
    calls = []

    def submit_once(pool, *args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise BrokenProcessPool("a process in the pool was terminated abruptly")
        return submit(pool, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", submit_once)
    out = tmp_path / "out"
    argv = ["analyze", str(golden / "toy_positional.tsv"), str(golden / "unicode_mix.tsv"),
            "--format", "tsv", "--books", "1", "--replicates", "2", "--workers", "2",
            "--out", str(out)]
    assert main(argv) == 2
    assert len(calls) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["rows_written"] == 2
    assert manifest["errors"] == [
        {"translation_id": "unicode_mix", "book_id": 1, "replicate": r,
         "error": "not measured: its worker process died"}
        for r in (0, 1)
    ]
    # The finished task's rows are those of the golden run with every task.
    golden_rows = (golden / "expected" / "order-scope-verse" / "results.csv").read_text(
        encoding="utf-8").splitlines()
    written = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert written == [golden_rows[0]] + [r for r in golden_rows if r.startswith("toy_positional,")]
    (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "2 of 4 units" in message


def write_unmaskable_corpus(path: Path) -> None:
    """Book 1's two word types need 2 distinct masks over a 1-character mask
    alphabet, so measuring it raises MaskSpaceExhaustedError; book 2 measures."""
    lines = ["# language: toy"]
    lines += [f"1\t1\t{v}\ta\x01 \x01a" for v in range(1, 30)]
    lines += [f"2\t1\t{v}\tthe quick brown fox jumps over the lazy dog {v}" for v in range(1, 30)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_unpicklable_error_reported_alike_at_any_worker_count(tmp_path):
    # Measuring book 1 raises MaskSpaceExhaustedError, which pickle once
    # could not rebuild; book 2 measures. Each worker count writes the same
    # rows and the same per-unit errors.
    corpus = tmp_path / "c.tsv"
    write_unmaskable_corpus(corpus)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        argv = ["analyze", str(corpus), "--format", "tsv", "--books", "1,2", "--truncate", "off",
                "--replicates", "2", "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        outputs.append(((out / "results.csv").read_bytes(), manifest["errors"]))
    assert outputs[0] == outputs[1]
    results, errors = outputs[0]
    assert len(results.splitlines()) == 3
    assert [(e["book_id"], e["replicate"]) for e in errors] == [(1, 0), (1, 1)]
    assert all(e["error"].startswith("cannot assign 2 distinct masks") for e in errors)


def test_outputs_identical_at_1_2_and_3_workers(tmp_path):
    # Two inputs, so 3 workers split each input's six units over two tasks.
    # Input a lacks book 40 and cannot measure book 1; input b has only 40.
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_unmaskable_corpus(a)
    write_two_book_corpus(b)
    out = tmp_path / "out"
    outputs = {}
    for workers in (1, 2, 3):
        argv = ["analyze", str(a), str(b), "--format", "tsv", "--books", "1,2,40",
                "--replicates", "2", "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 2
        # The manifest records the worker count in its config; nothing else differs.
        manifest = (out / "manifest.json").read_text(encoding="utf-8")
        assert manifest.count(f'"workers": {workers}\n') == 1
        outputs[workers] = (
            (out / "results.csv").read_bytes(),
            manifest.replace(f'"workers": {workers}\n', '"workers": 0\n'),
        )
    assert outputs[1] == outputs[2] == outputs[3]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["missing_books"] == {"a": [40], "b": [1, 2]}
    assert [(e["translation_id"], e["book_id"], e["replicate"]) for e in manifest["errors"]] == [
        ("a", 1, 0), ("a", 1, 1)
    ]
    assert manifest["rows_written"] == 4
    assert set(manifest["inputs"]) == {str(a), str(b)}


def main_in_subprocess(*argv: str, python_flags: Sequence[str] = ()):
    """``main(argv)`` in a fresh interpreter, whose stderr also gets what pool workers log."""
    probe = "import sys; from wordtradeoff.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *python_flags, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_missing_books_logged_once_at_any_worker_count(tmp_path):
    # At 3 workers the one input is split over three tasks, each of which
    # parses it; the parent logs the missing book once. A subprocess, so that
    # a warning logged in a pool worker would be counted too.
    corpus = tmp_path / "in.tsv"
    write_two_book_corpus(corpus)
    for workers in (1, 3):
        done = main_in_subprocess(
            "analyze", str(corpus), "--format", "tsv", "--books", "40,41,42", "--replicates", "2",
            "--workers", str(workers), "--out", str(tmp_path / "out"),
        )
        assert done.returncode == 0, done.stderr
        warnings = [line for line in done.stderr.splitlines() if "missing books" in line]
        assert warnings == ["WARNING wordtradeoff.cli: translation in is missing books [42]"]


def test_empty_verses_logged_once_at_any_worker_count(tmp_path):
    # As the missing books: each of the three tasks at 3 workers parses the
    # input and counts its empty verse, and the parent logs the count once.
    corpus = tmp_path / "in.tsv"
    write_two_book_corpus(corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("40\t2\t1\t \n")
    for workers in (1, 3):
        done = main_in_subprocess(
            "analyze", str(corpus), "--format", "tsv", "--books", "40,41", "--replicates", "2",
            "--workers", str(workers), "--out", str(tmp_path / "out"),
        )
        assert done.returncode == 0, done.stderr
        warnings = [line for line in done.stderr.splitlines() if "empty text" in line]
        expected = "WARNING wordtradeoff.cli: translation in: skipped 1 verses with empty text"
        assert warnings == [expected]


def imported_numpy_modules(stderr: str) -> list[str]:
    """The numpy modules that ``-X importtime`` lines in ``stderr`` name.

    Every module an interpreter imports gets one line, the first time it is
    imported, in the parent and in the pool workers that share its stderr.
    """
    names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
             if line.startswith("import time:")]
    return [name for name in names if name == "numpy" or name.startswith("numpy.")]


def test_analyze_imports_no_numpy(tmp_path):
    # Each analyze run is a fresh interpreter; numpy would be most of its
    # import time. Forked pool workers write to the same stderr.
    corpus = tmp_path / "in.tsv"
    write_two_book_corpus(corpus)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    bare = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wordtradeoff.cli"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert bare.returncode == 0, bare.stderr
    assert "wordtradeoff.cli" in bare.stderr
    assert imported_numpy_modules(bare.stderr) == []
    for workers in (1, 2):
        done = main_in_subprocess(
            "analyze", str(corpus), "--format", "tsv", "--books", "40,41",
            "--workers", str(workers), "--out", str(tmp_path / f"out{workers}"),
            python_flags=("-X", "importtime"),
        )
        assert done.returncode == 0, done.stderr
        assert "wrote 6 rows" in done.stderr
        assert imported_numpy_modules(done.stderr) == [], workers
    # The check sees numpy once it runs: stats runs it.
    done = main_in_subprocess("stats", str(tmp_path / "out1" / "results.csv"),
                              python_flags=("-X", "importtime"))
    assert done.returncode == 0, done.stderr
    assert imported_numpy_modules(done.stderr) != []


@pytest.mark.parametrize("second", ["corrupt", "same-id"])
def test_bad_second_input_fatal_alike_at_1_and_2_workers(tmp_path, caplog, second):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, other = tmp_path / "a" / "x.tsv", tmp_path / "b" / "x.tsv"
    write_two_book_corpus(first)
    if second == "corrupt":
        other.write_bytes(b"40\t1\t1\tnot \xff\xfe utf-8\n")
    else:
        write_two_book_corpus(other)
    messages = []
    for workers in (1, 2):
        caplog.clear()
        out = tmp_path / f"out{workers}"
        argv = ["analyze", str(first), str(other), "--format", "tsv", "--books", "40,41",
                "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 1
        assert sorted(out.iterdir()) == []
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        messages.append(error)
    assert messages[0] == messages[1]
    expected = "not valid UTF-8" if second == "corrupt" else "both have translation id 'x'"
    assert expected in messages[0]
    if second == "corrupt":  # the two inputs share a file name: the path tells them apart
        assert str(other) in messages[0] and str(first) not in messages[0]


#: The rare corruptions of one generated input, each with the exit code
#: analyze must end with: 1 stops the run with one ERROR line naming the
#: input, 2 is a unit that cannot be measured.
CORRUPTIONS = {
    None: 0,
    "bad-id": 1,
    "book-0": 1,
    "chapter-0": 1,
    "bom": 1,
    "bad-utf8-tail": 1,
    "nul": 0,
    "next-line": 0,
    "line-separator": 0,
    "free-slot": 0,  # U+FFFF, the mark of a free slot in the kernel's states
    "mixed-line-ends": 0,
    "duplicate-verse": 1,
    "same-id": 1,
    "missing": 1,
    "unmaskable": 2,
}

#: The books every run asks for.
REQUESTED_BOOKS = (40, 41)


@st.composite
def corrupted_inputs(draw, kind):
    """One or two small inputs of one format, books 40 and 41, one of them
    with the corruption ``kind`` (if any): (fmt, {file name: bytes, or None
    for a missing file}, index of the input that carries it, {translation
    id: the requested books its input has})."""
    fmt = draw(st.sampled_from(FORMATS))
    count = 2 if kind == "same-id" else draw(st.integers(1, 2))
    target = count - 1 if kind == "same-id" else draw(st.integers(0, count - 1))

    def line(book, chapter, verse, text):
        if fmt == "pbc":
            return f"{book:02d}{chapter:03d}{verse:03d}\t{text}"
        return f"{book}\t{chapter}\t{verse}\t{text}"

    words = st.lists(st.sampled_from(["mata", "kilo", "rena", "bopu", "sati"]),
                     min_size=1, max_size=4).map(" ".join)
    inputs, holds = {}, {}
    for index in range(count):
        tid = "t0" if kind == "same-id" else f"t{index}"
        corrupt = index == target and kind is not None
        have = draw(st.sets(st.sampled_from(REQUESTED_BOOKS), min_size=1))
        # Book 41 of the unmaskable input is one verse of two types, each a
        # letter and a control character: a one-character mask alphabet for
        # two masks. At 5 characters it is the shortest book, so the token
        # truncation keeps both types.
        unmaskable = corrupt and kind == "unmaskable"
        lines = [line(book, 1, verse, draw(words))
                 for book in sorted(have - {41} if unmaskable else have)
                 for verse in range(1, draw(st.integers(2, 5)) + 1)]
        if unmaskable:
            letter = draw(st.sampled_from("aeiou"))
            control = draw(st.sampled_from(["\0", "\x01", "\x7f", "\x9f"]))
            lines.append(line(41, 1, 1, f"{letter}{control} {control}{letter}"))
            have |= {41}
        head, tail, ends = f"# translation_id: {tid}\n", b"", None
        if corrupt:
            at = draw(st.integers(0, len(lines)))
            if kind == "bad-id":
                lines.insert(at, "4000100\tbad" if fmt == "pbc" else "40\t1\tbad")
            elif kind == "book-0":
                lines.insert(at, line(0, 1, 1, "zero"))
            elif kind == "chapter-0":
                lines.insert(at, line(draw(st.sampled_from(REQUESTED_BOOKS)), 0, 1, "zero"))
            elif kind == "duplicate-verse":
                ref = lines[draw(st.integers(0, len(lines) - 1))].rsplit("\t", 1)[0]
                lines.insert(at, f"{ref}\tagain")
            elif kind in ("nul", "next-line", "line-separator", "free-slot"):
                char = {"nul": "\0", "next-line": "\x85", "line-separator": "\u2028",
                        "free-slot": "\uffff"}[kind]
                # U+FFFF goes into the first token of the first verse, which
                # the token truncation keeps.
                free_slot = kind == "free-slot"
                text_at = 0 if free_slot else draw(st.integers(0, len(lines) - 1))
                ref, text = lines[text_at].rsplit("\t", 1)
                cut = draw(st.integers(0, 4 if free_slot else len(text)))
                lines[text_at] = f"{ref}\t{text[:cut]}{char}{text[cut:]}"
            elif kind == "mixed-line-ends":  # at least one of each
                rest = st.sampled_from(["\n", "\r\n", "\r"])
                ends = draw(st.permutations(["\r\n", "\r"] + draw(
                    st.lists(rest, min_size=len(lines) - 2, max_size=len(lines) - 2))))
            elif kind == "bom":
                head = "\ufeff" + head
            elif kind == "bad-utf8-tail":
                tail = draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"]))
        ends = ends or ["\n"] * len(lines)
        data = (head + "".join(map(str.__add__, lines, ends))).encode() + tail
        inputs[f"in{index}.{fmt}"] = None if corrupt and kind == "missing" else data
        holds[tid] = have
    return fmt, inputs, target, holds


@pytest.mark.parametrize("kind", list(CORRUPTIONS))
@settings(derandomize=True, max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_analyze_ends_alike_at_1_and_2_workers_on_one_corruption(caplog, kind, data):
    fmt, inputs, target, holds = data.draw(corrupted_inputs(kind))
    replicates = data.draw(st.integers(1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in inputs]
        for path, content in zip(paths, inputs.values()):
            if content is not None:
                path.write_bytes(content)
        out = Path(tmp, "out")
        ends = []
        for workers in (1, 2):
            caplog.clear()
            code = main(["analyze", *map(str, paths), "--format", fmt,
                         "--books", ",".join(map(str, REQUESTED_BOOKS)),
                         "--replicates", str(replicates), "--workers", str(workers),
                         "--out", str(out)])
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            ends.append((code, errors, written))
            if workers == 1 and code != 1:
                caplog.clear()
                stats_code = main(["stats", str(out / "results.csv"),
                                   "--out", str(Path(tmp, "stats"))])
                stats_errors = [r for r in caplog.records if r.levelname == "ERROR"]
            shutil.rmtree(out)
    (code, errors, written), (code2, errors2, written2) = ends
    assert code == code2 == CORRUPTIONS[kind], (kind, errors)
    if code == 1:
        assert len(errors) == 1 and errors2 == errors
        assert errors[0].count(str(paths[target])) == 1, errors[0]
        if kind == "bom":
            assert "byte-order mark" in errors[0], errors[0]
        assert written == written2 == {}
        return
    # Both runs wrote to one --out, so the manifests differ in workers alone.
    manifest2 = written2["manifest.json"].replace(b'"workers": 2', b'"workers": 1')
    assert written2["results.csv"] == written["results.csv"]
    assert manifest2 == written["manifest.json"]
    # Each unit of a book the input has is one row or one error; each
    # book it lacks is missing.
    manifest = json.loads(written["manifest.json"])
    table = read_results_csv(io.StringIO(written["results.csv"].decode(), newline=""))
    units = Counter(zip(table.translation_id, table.book_id, table.replicate))
    units.update((e["translation_id"], e["book_id"], e["replicate"]) for e in manifest["errors"])
    assert units == Counter((tid, book, r) for tid, have in holds.items()
                            for book in have for r in range(replicates))
    assert manifest["missing_books"] == {
        tid: sorted(set(REQUESTED_BOOKS) - have)
        for tid, have in holds.items() if have != set(REQUESTED_BOOKS)
    }
    assert stats_code == 0 or (stats_code == 1 and len(stats_errors) == 1), stats_errors


def test_parent_memory_does_not_grow_with_input_count(tmp_path):
    # Each input is one book of 2000 short verses, about 0.7 MB once parsed.
    # The tasks parse the inputs, so the parent's own peak RSS is the same
    # for 50 inputs as for 5.
    paths = []
    for i in range(50):
        paths.append(tmp_path / f"in{i:02d}.tsv")
        lines = [f"1\t1\t{v}\tka{v % 7} lo{i}" for v in range(1, 2001)]
        paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
    probe = (
        "import resource, sys; from wordtradeoff.cli import main; code = main(sys.argv[1:]); "
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    peak_mb = {}
    for count in (5, 50):
        argv = ["analyze", *map(str, paths[:count]), "--format", "tsv", "--books", "1",
                "--replicates", "1", "--truncate", "off", "--workers", "2",
                "--out", str(tmp_path / f"out{count}")]
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        code, peak_kb = done.stdout.split()
        assert code == "0", done.stderr
        peak_mb[count] = int(peak_kb) / 1024
    assert peak_mb[50] - peak_mb[5] < 8, peak_mb


class TestParser:
    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--format", "xml", "x.tsv"])
        assert err.value.code == 1

    @pytest.mark.parametrize("books", ["forty", "4_0", "+41", "٤٢", "40, 4_1", "0", "40,0"])
    def test_bad_book_list_exits_1(self, books, capsys):
        # Book ids are ASCII digits and at least 1, as in the corpus: int()
        # would take the rest, and no corpus holds a book 0.
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--books", books, "x.tsv"])
        assert err.value.code == 1
        assert f"bad book list {books!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("books", ["0", "40,0", "4_0"])
    def test_stats_bad_book_list_exits_1(self, books, capsys, caplog):
        error = exit_1_message(["stats", "results.csv", "--books", books], capsys, caplog)
        assert error.endswith(f"bad book list {books!r}")

    def test_stats_unknown_grouping_exits_1(self, capsys, caplog):
        # Only the prefix: argparse quotes its list of choices differently
        # across Python versions.
        error = exit_1_message(["stats", "results.csv", "--group-by", "continent"], capsys, caplog)
        assert error.startswith("error: argument --group-by: invalid choice: 'continent'")

    def test_analyze_has_no_group_by(self):
        # Grouping belongs to stats; analyze writes one row per unit.
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--group-by", "language", "x.tsv"])
        assert err.value.code == 1

    def test_unknown_command_names_the_usage_metavar(self, capsys, caplog):
        error = exit_1_message(["measure"], capsys, caplog)
        assert error.startswith("error: argument COMMAND: invalid choice: 'measure'")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0


def test_import_leaves_synth_and_pool_modules_unloaded():
    # Only ``synth`` needs testkit and only ``analyze --workers N>1`` a
    # process pool; every other command should not pay for importing them.
    probe = (
        "import sys, wordtradeoff.cli; "
        "print(*(m for m in ('wordtradeoff.testkit', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_import_leaves_numpy_out_of_sys_modules():
    # Only the functions that run numpy import it; no entry stands in for it.
    probe = "import sys, wordtradeoff; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_first_numpy_use_from_eight_threads_at_once():
    # The process's first statistic runs in eight threads released together:
    # each imports numpy, under the import system's lock, and gets the value.
    probe = (
        "import threading, wordtradeoff\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "start = threading.Barrier(8)\n"
        "def run(_):\n"
        "    start.wait()\n"
        "    return wordtradeoff.spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])\n"
        "with ThreadPoolExecutor(8) as pool:\n"
        "    print(*pool.map(run, range(8)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    expected = spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert done.stdout.split() == [repr(expected)] * 8


def test_every_exported_name_resolves():
    import wordtradeoff

    assert [name for name in wordtradeoff.__all__ if not hasattr(wordtradeoff, name)] == []
    namespace: dict = {}
    exec("from wordtradeoff import *", namespace)
    assert set(wordtradeoff.__all__) <= set(namespace)
