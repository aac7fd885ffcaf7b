"""End-to-end command-line pipeline tests on small synthetic corpora."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from wordtradeoff import cli, measures
from wordtradeoff.cli import RunConfig, cmd_analyze, main
from wordtradeoff.corpus import Book, Verse, VerseRef, parse_corpus
from wordtradeoff.entropy import kernel_name
from wordtradeoff.measures import (
    RESULT_COLUMNS,
    MeasureConfig,
    measure_replicate,
    read_results_csv,
)


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
        assert tr.language == "toy_positional"
        assert len(tr.books[1].verses) == 25

    def test_stream_output_parses_and_chunks(self, tmp_path):
        out = tmp_path / "stream.tsv"
        code = main(
            [
                "synth", "stream", "--kind", "iid", "--k", "3",
                "--n", "500", "--seed", "1", "--chunk", "40", "--out", str(out),
            ]
        )
        assert code == 0
        tr = parse_corpus(out, "tsv")
        total = sum(len(v.text) for v in tr.books[1].verses)
        assert total == 500
        assert all(len(v.text) <= 40 for v in tr.books[1].verses)

    def test_markov_stream_requires_transition(self, tmp_path, capsys):
        code = main(["synth", "stream", "--kind", "markov1", "--out", "-"])
        assert code == 1


#: Count flags out of range or out of order, each a configuration error.
BAD_COUNTS = [
    ["analyze", "--format", "tsv", "--replicates", "0", "c.tsv"],
    ["analyze", "--format", "tsv", "--replicates", "-2", "c.tsv"],
    ["analyze", "--format", "tsv", "--workers", "0", "c.tsv"],
    ["analyze", "--format", "tsv", "--workers", "-3", "c.tsv"],
    ["oracle-check", "--count", "-4"],
    ["oracle-check", "--min-len", "5", "--max-len", "2"],
    ["oracle-check", "--alpha-min", "0", "--alpha-max", "0"],
    ["oracle-check", "--min-len", "0", "--max-len", "0"],
    ["oracle-check", "--alpha-min", "9", "--alpha-max", "3"],
    ["synth", "stream", "--kind", "iid", "--n", "0"],
    ["synth", "stream", "--kind", "iid", "--k", "100"],
    ["synth", "stream", "--kind", "iid", "--k", "0"],
    ["synth", "stream", "--kind", "iid", "--chunk", "0"],
    ["synth", "stream", "--kind", "iid", "--chunk", "-5"],
    ["synth", "toy", "--mode", "positional", "--sentences", "0"],
]


@pytest.mark.parametrize("argv", BAD_COUNTS, ids=" ".join)
def test_bad_count_exits_1_with_one_line(argv, tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.chdir(tmp_path)
    write_two_book_corpus(tmp_path / "c.tsv")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    messages = [line for line in err.splitlines() if line.startswith("error:")]
    messages += [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(messages) == 1
    assert "Traceback" not in err


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
        assert read_results_csv(out_dir / "results.csv") == []
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["missing_books"] == {"toy1": [42]}

    def test_unreadable_input_fatal(self, tmp_path):
        config = RunConfig(inputs=(str(tmp_path / "nope.tsv"),), fmt="tsv")
        assert cmd_analyze(config) == 1

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
        assert {r.book_id for r in rows} == {40}
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
        assert {r.book_id for r in rows} == {40}

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
        row = f"t4,lt4,40,0,{n},2.5,2.6,2.8,0.1,0.3"
        assert self._stats_with_row(tmp_path, caplog, row) == 1
        assert "N must be >= 1" in caplog.text

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


class TestOracleCheckCommand:
    def test_small_pass(self, capsys):
        code = main(["oracle-check", "--count", "20", "--max-len", "200"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_cases_vacuous_pass(self, capsys):
        code = main(["oracle-check", "--count", "0"])
        assert code == 0
        assert "vacuous" in capsys.readouterr().out


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

    def test_no_verse_shuffle_mapping(self, monkeypatch):
        cfg = _parsed_analyze_config(monkeypatch, "--no-verse-shuffle")
        assert isinstance(cfg, MeasureConfig)
        assert not cfg.verse_shuffle
        assert _parsed_analyze_config(monkeypatch).verse_shuffle
        assert RunConfig(inputs=()).verse_shuffle

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
    measured = {(m.book_id, m.replicate) for m in rows}
    assert not measured & {(e["book_id"], e["replicate"]) for e in errors}


class TestParser:
    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--format", "xml", "x.tsv"])
        assert err.value.code == 1

    def test_bad_book_list_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--books", "forty", "x.tsv"])
        assert err.value.code == 1

    def test_analyze_has_no_group_by(self):
        # Grouping belongs to stats; analyze writes one row per unit.
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--group-by", "language", "x.tsv"])
        assert err.value.code == 1

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
