"""Command-line interface: batch analysis, statistics, self-checks.

Subcommands:

* ``analyze``: parse corpora, build the three variants per (translation,
  book, replicate), estimate entropies and write ``results.csv`` plus a
  ``manifest.json`` recording the configuration, input digests and the
  file name of the compiled kernel library that ran (``_kernels-<hash>.so``,
  fixed by the C source and the compiler command). Where that library
  cannot be built, ``analyze`` and ``oracle-check`` exit 1 with one error.
  Reruns with the same configuration and inputs produce byte-identical
  outputs, regardless of the worker count. Each task parses one input,
  reading it once and building only the requested books, truncates them
  and measures a contiguous part of its (book, replicate) units; the
  parent lists the units from the configuration alone, never holds a
  book, and is the only process that logs, the same at any worker count:
  each input's missing books and count of verses skipped for empty text
  once, each failed unit once, and one line that counts the rows with a
  negative penalty (written as computed, not clamped). An input is one task
  when there are at least as many inputs as workers, and is otherwise
  split into as many tasks as keep every worker busy, each parsing it again.
* ``stats``: read a results table and write the statistical outputs
  (``fits.csv``, ``corr_matrix.csv``, ``ranks.csv``, ``rank_hist.csv``).
* ``oracle-check``: randomized equivalence check of the fast and naive
  match-length implementations on ``--count`` cases drawn from ``--seed``.
* ``synth toy``: emit a toy language's corpus (``--mode positional`` or
  ``affixal``) in the tsv corpus format.

Integer flags take ASCII digits, after a ``-`` only where a negative
value is allowed (the ``analyze`` and ``oracle-check`` seeds).

Exit codes: 0 success, 1 fatal configuration, input or output error, 2
completed with per-book errors (or a failed oracle check).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import closing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import (
    DEFAULT_BOOK_IDS,
    FORMATS,
    TRUNCATIONS,
    parse_corpus,
    truncate_books,
)
from .entropy import KernelBuildError, load_library, run_oracle_check
from .measures import (
    ORDER_SCOPES,
    BookMeasurement,
    MeasureConfig,
    ResultsTable,
    aggregate,
    measure_replicate,
    read_results_csv,
    write_results_csv,
)
from .stats import (
    correlation_matrix,
    fit_reciprocal,
    rank_books,
    rank_histograms,
    spearman,
    write_corr_matrix_csv,
    write_fits_csv,
    write_rank_hist_csv,
    write_ranks_csv,
)

# Not __name__, which reads "__main__" under ``python -m wordtradeoff.cli``:
# every log line names the logger, so it reads the same however the CLI starts.
logger = logging.getLogger("wordtradeoff.cli")

#: The choices of ``stats --group-by``: the two tables ``aggregate`` returns.
GROUP_KEYS = ("translation", "language")

#: The keys of each unit's entry under ``errors`` in ``manifest.json``.
ERROR_KEYS = ("translation_id", "book_id", "replicate", "error")


@dataclass(frozen=True, kw_only=True)
class RunConfig(MeasureConfig):
    """An ``analyze`` run's settings, with their only defaults: the parser passes
    only the flags given. The field names are the parser's destinations and the
    ``config`` keys of ``manifest.json``; ``workers`` and ``out_dir`` change no output byte."""

    inputs: tuple[str, ...]
    fmt: str = "pbc"
    books: tuple[int, ...] = DEFAULT_BOOK_IDS
    truncate: str = "token"  # off or one of TRUNCATIONS
    workers: int = 1
    out_dir: str = "results"
    lowercase: bool = False


class _Parser(argparse.ArgumentParser):
    # Bad flags are a fatal configuration error (exit 1, not argparse's 2).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _books_arg(text: str) -> tuple[int, ...]:
    # Book ids are ASCII digits and at least 1, as in the corpus formats.
    # Every entry is one id; spaces around it are allowed, an empty entry is not.
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() and int(part) >= 1 for part in parts):
        raise argparse.ArgumentTypeError(f"bad book list {text!r}")
    return tuple(map(int, parts))


def _int_arg(minimum: int | None = None):
    """An argparse type for an integer of at least ``minimum``: ASCII digits
    after an optional ``-``, as in the book ids."""

    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        value = int(text)
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wordtradeoff", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # A metavar, so that the usage line names what an invalid choice's error names.
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p_an = sub.add_parser(
        "analyze", help="measure books and write results.csv", argument_default=argparse.SUPPRESS
    )
    p_an.add_argument("inputs", nargs="+", help="corpus files")
    p_an.add_argument("--format", dest="fmt", choices=FORMATS)
    p_an.add_argument(
        "--books",
        type=_books_arg,
        help="comma-separated canonical book ids (default: "
        f"{','.join(map(str, DEFAULT_BOOK_IDS))})",
    )
    p_an.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=_int_arg(), help="master seed"
    )
    p_an.add_argument("--replicates", type=_int_arg(1))
    p_an.add_argument("--truncate", choices=("off", *TRUNCATIONS))
    p_an.add_argument("--order-scope", choices=ORDER_SCOPES)
    p_an.add_argument(
        "--no-verse-shuffle",
        dest="verse_shuffle",
        action="store_false",
        help="estimate on canonical verse order (sensitivity analysis)",
    )
    p_an.add_argument("--lowercase", action="store_true")
    p_an.add_argument("--workers", type=_int_arg(1))
    p_an.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")

    p_st = sub.add_parser("stats", help="fit and rank a results table")
    p_st.add_argument("results_path", metavar="results", help="results.csv from analyze")
    p_st.add_argument(
        "--books",
        type=_books_arg,
        help="restrict to these book ids (default: all present)",
    )
    p_st.add_argument("--group-by", choices=GROUP_KEYS, default="language")
    p_st.add_argument(
        "--out",
        dest="out_dir",
        metavar="OUT",
        help="output directory (default: alongside results)",
    )

    p_oc = sub.add_parser("oracle-check", help="fast vs naive match-length check")
    p_oc.add_argument("--count", type=_int_arg(0), default=1000)
    p_oc.add_argument("--seed", type=_int_arg(), default=0)

    p_sy = sub.add_parser("synth", help="emit synthetic corpora (tsv format)")
    sy_sub = p_sy.add_subparsers(dest="generator", metavar="GENERATOR", required=True)

    p_toy = sy_sub.add_parser("toy", help="toy positional/affixal language")
    p_toy.add_argument("--mode", choices=("positional", "affixal"), required=True)
    p_toy.add_argument("--sentences", type=_int_arg(1), default=500)
    p_toy.add_argument("--seed", type=_int_arg(0), default=0, help="vocabulary and message seed")
    p_toy.add_argument("--out", default="-", help="output file or - for stdout")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # The destinations of each command's options are the names its
    # ``cmd_*`` function (or ``RunConfig``) takes.
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "generator")}
    try:
        if args.command == "analyze":
            return cmd_analyze(RunConfig(**settings | {"inputs": tuple(args.inputs)}))
        if args.command == "stats":
            return cmd_stats(**settings)
        if args.command == "oracle-check":
            return cmd_oracle_check(**settings)
        return cmd_synth_toy(**settings)
    except KernelBuildError as exc:  # from analyze or oracle-check, before any work
        logger.error("%s", exc)
        return 1
    except OSError as exc:
        # Each command catches its input errors; this is an unwritable output.
        logger.error("cannot write output: %s", exc)
        return 1


def cmd_analyze(config: RunConfig) -> int:
    """Run the full measurement pipeline for one configuration."""
    # Made first, so an unusable --out fails before any unit is measured.
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Build or load the compiled kernel before any worker starts: a failed
    # build writes nothing, forked workers inherit it, and the manifest
    # names what ran.
    kernel = Path(load_library()._name).name

    # The units come from the configuration alone, book-major. Each input's
    # list is cut into as many contiguous parts as keep every worker busy.
    units = [(book, r) for book in sorted(set(config.books)) for r in range(config.replicates)]
    per_input = max(1, min(len(units), -(-config.workers // max(1, len(config.inputs)))))
    parts = [units[i * len(units) // per_input : (i + 1) * len(units) // per_input]
             for i in range(per_input)]
    tasks = [(index, path, part) for index, path in enumerate(config.inputs) for part in parts]

    rows: list[BookMeasurement] = []
    errors: list[tuple[str, int, int, str]] = []  # in the order of ERROR_KEYS
    digests: dict[str, str] = {}
    missing_report: dict[str, list[int]] = {}
    input_of: dict[str, int] = {}  # translation id -> index of the first input with it
    with closing(_outcomes(tasks, config)) as outcomes:
        for (index, path, part), outcome in zip(tasks, outcomes):
            died = outcome is None
            if died:
                # Parse the input here only for its id, digest and missing books.
                outcome = _measure_input(path, [], config)
            if isinstance(outcome, str):
                logger.error("%s", outcome)
                return 1
            tid = outcome.translation_id
            first = input_of.setdefault(tid, index)
            if first != index:
                logger.error(
                    "inputs %s and %s both have translation id %r; "
                    "give each a distinct '# translation_id: ...' comment",
                    config.inputs[first], path, tid,
                )
                return 1
            # Every task of an input reports the same digest, missing books and
            # skipped verses; the input's first task logs them.
            first_task = path not in digests
            digests[path] = outcome.sha256
            if first_task and outcome.missing:
                missing_report[tid] = outcome.missing
                logger.warning("translation %s is missing books %s", tid, outcome.missing)
            if first_task and outcome.skipped_empty:
                logger.warning(
                    "translation %s: skipped %d verses with empty text", tid, outcome.skipped_empty
                )
            rows += outcome.rows
            for error in outcome.errors:
                errors.append((tid, *error))
                logger.error("measurement failed for %s book %d replicate %d: %s", *errors[-1])
            if died:  # the task lost its units on every book the input has
                errors += [(tid, b, r, _DIED) for b, r in part if b not in outcome.missing]
    lost = sum(error[-1] == _DIED for error in errors)
    if lost:
        logger.error(
            "a worker process died; %d of %d units were not measured (listed under "
            "errors in manifest.json): rerun with fewer --workers and check free memory",
            lost,
            len(rows) + len(errors),
        )
    negative = sorted((m.translation_id, m.book_id, m.replicate)  # results.csv order
                      for m in rows if m.d_order < 0 or m.d_structure < 0)
    if negative:
        logger.warning(
            "%d of %d rows have a negative penalty (d_order %d, d_structure %d; first: %s): "
            "estimation noise where a penalty is near 0, written as computed, not clamped",
            len(negative), len(rows), sum(m.d_order < 0 for m in rows),
            sum(m.d_structure < 0 for m in rows),
            ", ".join("%s book %d replicate %d" % unit for unit in negative[:5]),
        )

    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        write_results_csv(ResultsTable.from_measurements(rows), fh)

    manifest = {
        "tool": "wordtradeoff",
        "version": __version__,
        "config": asdict(config),
        "inputs": digests,
        "missing_books": missing_report,
        "errors": [dict(zip(ERROR_KEYS, error)) for error in sorted(errors)],
        "rows_written": len(rows),
        "kernel": kernel,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("wrote %d rows to %s", len(rows), results_path)
    if not rows and not errors:
        logger.error("no valid books selected from any input")
        return 1
    return 2 if errors else 0


#: A unit's manifest error when the worker process measuring it died.
_DIED = "not measured: its worker process died"


@dataclass(frozen=True)
class _InputOutcome:
    """What a task reports of its input's units. No ``Book`` crosses back."""

    translation_id: str
    sha256: str
    missing: list[int]  # requested ids the input lacks, sorted
    skipped_empty: int  # data lines skipped for their empty text, in any book
    rows: list[BookMeasurement]
    errors: list[tuple[int, int, str]]  # (book_id, replicate, message)


def _outcomes(tasks: list[tuple[int, str, list[tuple[int, int]]]], config: RunConfig):
    """Each task's outcome in task order: None for a task lost with its worker process."""
    if config.workers <= 1 or not tasks:
        for _, path, units in tasks:
            yield _measure_input(path, units, config)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A worker that dies (say, an out-of-memory kill) breaks the pool:
    # submit raises, and every task without a result gets BrokenProcessPool.
    # The pool forks every worker at the first submit: no more than tasks.
    futures = []
    with ProcessPoolExecutor(max_workers=min(config.workers, len(tasks))) as pool:
        try:
            try:
                for _, path, units in tasks:
                    futures.append(pool.submit(_measure_input, path, units, config))
            except BrokenProcessPool:
                pass
            for future in futures:
                try:
                    yield future.result()
                except BrokenProcessPool:
                    yield None
        finally:
            # Closed early on a fatal input error: start no further task.
            for future in futures:
                future.cancel()
    yield from (None for _ in tasks[len(futures) :])


def _measure_input(
    path: str, units: list[tuple[int, int]], config: RunConfig
) -> _InputOutcome | str:
    """Parse the requested books of one input, (optionally) truncate them, and
    measure those of ``units`` the input has. An input error, its path first,
    and each unit's error come back as messages: no exception crosses from a
    pool worker, where one that pickle cannot rebuild would break the pool."""
    # parse_corpus, truncate_books and measure_replicate are globals looked
    # up per call, so a replaced one runs.
    try:
        translation = parse_corpus(
            Path(path), config.fmt, lowercase=config.lowercase, books=config.books
        )
        found = translation.books.values()
        if config.truncate != "off":
            found = truncate_books(found, config.truncate)
    except (OSError, ValueError) as exc:
        # An OSError's own text quotes the path again; its strerror does not.
        return f"{path}: {getattr(exc, 'strerror', None) or exc}"
    books = {book.book_id: book for book in found}
    missing = sorted(set(config.books) - set(translation.books))
    rows, errors = [], []
    for book_id, r in units:
        if book_id in books:
            try:
                rows.append(measure_replicate(books[book_id], r, config))
            except Exception as exc:
                errors.append((book_id, r, str(exc)))
    return _InputOutcome(
        translation.translation_id, translation.sha256, missing, translation.skipped_empty,
        rows, errors,
    )


def cmd_stats(
    results_path: str,
    books: tuple[int, ...] | None,
    group_by: str,
    out_dir: str | None,
) -> int:
    """Compute fits, correlation matrix, ranks and rank histograms."""
    import numpy as np

    try:
        results = read_results_csv(results_path)
    except (OSError, ValueError) as exc:
        logger.error("cannot read results: %s", exc)
        return 1
    if not results:
        logger.error("results table is empty")
        return 1

    out = Path(out_dir) if out_dir else Path(results_path).parent
    out.mkdir(parents=True, exist_ok=True)

    tables = aggregate(results)
    if books:
        tables = [means.select(sorted(set(books))) for means in tables]
    per_translation, per_language = tables
    # Fits and the correlation matrix compare ``group_by``'s groups; rank
    # tables rank books within each translation.
    grouped = per_language if group_by == "language" else per_translation

    fits = []  # (book_id, fit, r_s) rows of fits.csv
    for book_id, x, y in zip(grouped.book_ids, grouped.d_order.T, grouped.d_structure.T):
        present = ~np.isnan(x)
        x, y = x[present], y[present]
        if len(x) < 2:
            logger.warning("book %d: fewer than 2 groups, no fit", book_id)
            continue
        try:
            fit = fit_reciprocal(x, y)
            r_s = spearman(x, y)
        except ValueError as exc:
            logger.warning("book %d: %s; skipped", book_id, exc)
            continue
        fits.append((book_id, fit, r_s))
    with open(out / "fits.csv", "w", newline="", encoding="utf-8") as fh:
        write_fits_csv(fits, fh)

    try:
        matrix = correlation_matrix(grouped)
    except ValueError as exc:
        _skip(out / "corr_matrix.csv", f"correlation matrix skipped: {exc}")
    else:
        with open(out / "corr_matrix.csv", "w", newline="", encoding="utf-8") as fh:
            write_corr_matrix_csv(matrix, fh)

    tables = rank_books(per_translation)
    with open(out / "ranks.csv", "w", newline="", encoding="utf-8") as fh:
        write_ranks_csv(tables, fh)
    if tables:
        hist = rank_histograms(tables)
        with open(out / "rank_hist.csv", "w", newline="", encoding="utf-8") as fh:
            write_rank_hist_csv(hist, fh)
        tied = [tid for tid, ties in zip(tables.translation_ids, tables.ties) if ties]
        if tied:
            logger.warning(
                "rank_hist.csv counts %d rank table(s) whose tied penalties are ranked by "
                "book id, not by measurement (first: %s); ranks.csv marks them in its ties column",
                len(tied),
                ", ".join(tied[:5]),
            )
    else:
        selected = list(per_translation.book_ids)
        _skip(out / "rank_hist.csv", f"no translation has all books {selected}; "
              "rank histograms skipped")

    logger.info("stats written to %s", out)
    return 0


def _skip(path: Path, reason: str) -> None:
    """Log why ``path`` is not written, and remove an earlier run's copy of it."""
    if path.exists():
        reason += f"; removed the {path.name} an earlier run left"
    path.unlink(missing_ok=True)
    logger.warning("%s", reason)


def cmd_oracle_check(count: int, seed: int) -> int:
    load_library()  # a failed build stops the check before it starts, even a vacuous one
    if count == 0:
        print("oracle-check: PASS (vacuous: 0 cases requested)")
        logger.warning("oracle-check ran zero cases")
        return 0
    started = time.monotonic()
    counterexample = run_oracle_check(count=count, seed=seed)
    if counterexample is None:
        print(f"oracle-check: PASS ({count} cases, {time.monotonic() - started:.1f}s)")
        return 0
    print(f"oracle-check: FAIL, minimal counterexample: {counterexample!r}")
    return 2


def cmd_synth_toy(mode: str, sentences: int, seed: int, out: str) -> int:
    from .testkit import render_toy_corpus, toy_language_pair

    positional, affixal = toy_language_pair(seed)
    book = render_toy_corpus(positional if mode == "positional" else affixal, sentences, seed)
    # The vocabulary seed is --seed; the header still names it.
    text = (
        f"# generator: toy mode={mode} sentences={sentences} seed={seed} vocab_seed={seed}\n"
        f"# language: toy_{mode}\n"
    ) + "".join(f"{v.ref.book_id}\t{v.ref.chapter}\t{v.ref.verse}\t{v.text}\n" for v in book.verses)
    if out == "-":
        sys.stdout.write(text)
        return 0
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    logger.info("wrote %d verses to %s", len(book.verses), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
