"""Command-line interface: batch analysis, statistics, self-checks.

Subcommands:

* ``analyze``: parse corpora, build the three variants per (translation,
  book, replicate), estimate entropies and write ``results.csv`` plus a
  ``manifest.json`` recording the configuration, input digests and the
  match-length kernel that ran (``"c"`` or ``"python"``).
  Reruns with the same configuration and inputs produce byte-identical
  outputs, regardless of the worker count.
* ``stats``: read a results table and write the statistical outputs
  (``fits.csv``, ``corr_matrix.csv``, ``ranks.csv``, ``rank_hist.csv``).
* ``oracle-check``: randomized equivalence check of the fast and naive
  match-length implementations.
* ``synth``: emit synthetic corpora (toy languages or symbol streams)
  in the tsv corpus format.

Exit codes: 0 success, 1 fatal configuration/input error, 2 completed
with per-book errors (or a failed oracle check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Sequence

from . import __version__
from .corpus import (
    DEFAULT_BOOK_IDS,
    FORMATS,
    TRUNCATIONS,
    Book,
    CorpusFormatError,
    Verse,
    VerseRef,
    parse_corpus,
    select_books,
    truncate_books,
)
from .entropy import kernel_name, run_oracle_check
from .measures import (
    GROUP_KEYS,
    ORDER_SCOPES,
    MeasureConfig,
    aggregate,
    measure_replicate,
    read_results_csv,
    write_results_csv,
)
from .stats import (
    BookFit,
    InsufficientDataError,
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

logger = logging.getLogger(__name__)

#: The keys of each unit's entry under ``errors`` in ``manifest.json``.
ERROR_KEYS = ("translation_id", "book_id", "replicate", "error")


@dataclass(frozen=True, kw_only=True)
class RunConfig(MeasureConfig):
    """Everything that determines an ``analyze`` run's outputs. The field names
    are the parser's destinations and the ``config`` keys of ``manifest.json``."""

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
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad book list {text!r}")
    if not ids:
        raise argparse.ArgumentTypeError("no books requested")
    return ids


def _count_arg(minimum: int):
    """An argparse type for an integer count of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad count {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wordtradeoff", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="measure books and write results.csv")
    p_an.add_argument("inputs", nargs="+", help="corpus files")
    p_an.add_argument("--format", dest="fmt", choices=FORMATS, default="pbc")
    p_an.add_argument(
        "--books",
        type=_books_arg,
        default=DEFAULT_BOOK_IDS,
        help="comma-separated canonical book ids (default: %(default)s)",
    )
    p_an.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=int, default=0, help="master seed"
    )
    p_an.add_argument("--replicates", type=_count_arg(1), default=3)
    p_an.add_argument("--truncate", choices=("off", *TRUNCATIONS), default="token")
    p_an.add_argument("--order-scope", choices=ORDER_SCOPES, default="verse")
    p_an.add_argument(
        "--no-verse-shuffle",
        dest="verse_shuffle",
        action="store_false",
        help="estimate on canonical verse order (sensitivity analysis)",
    )
    p_an.add_argument("--lowercase", action="store_true")
    p_an.add_argument("--workers", type=_count_arg(1), default=1)
    p_an.add_argument(
        "--out", dest="out_dir", metavar="OUT", default="results", help="output directory"
    )

    p_st = sub.add_parser("stats", help="fit and rank a results table")
    p_st.add_argument("results", help="results.csv from analyze")
    p_st.add_argument(
        "--books",
        type=_books_arg,
        default=None,
        help="restrict to these book ids (default: all present)",
    )
    p_st.add_argument("--group-by", choices=GROUP_KEYS, default="language")
    p_st.add_argument("--out", default=None, help="output directory (default: alongside results)")

    p_oc = sub.add_parser("oracle-check", help="fast vs naive match-length check")
    p_oc.add_argument("--count", type=_count_arg(0), default=1000)
    p_oc.add_argument("--min-len", type=_count_arg(1), default=1)
    p_oc.add_argument("--max-len", type=_count_arg(1), default=2000)
    p_oc.add_argument("--alpha-min", type=_count_arg(1), default=2)
    p_oc.add_argument("--alpha-max", type=_count_arg(1), default=30)
    p_oc.add_argument("--seed", type=int, default=0)

    p_sy = sub.add_parser("synth", help="emit synthetic corpora (tsv format)")
    sy_sub = p_sy.add_subparsers(dest="generator", required=True)

    p_toy = sy_sub.add_parser("toy", help="toy positional/affixal language")
    p_toy.add_argument("--mode", choices=("positional", "affixal"), required=True)
    p_toy.add_argument("--sentences", type=_count_arg(1), default=500)
    p_toy.add_argument("--seed", type=int, default=0, help="message-stream seed")
    p_toy.add_argument("--vocab-seed", type=int, default=None, help="default: --seed")
    p_toy.add_argument("--out", default="-", help="output file or - for stdout")

    p_strm = sy_sub.add_parser("stream", help="iid or first-order Markov symbol stream")
    p_strm.add_argument("--kind", choices=("iid", "markov1"), required=True)
    p_strm.add_argument("--k", type=_count_arg(1), default=4, help="alphabet size (iid)")
    p_strm.add_argument("--probs", default=None, help="comma-separated iid probabilities")
    p_strm.add_argument(
        "--transition",
        default=None,
        help="semicolon-separated rows of comma-separated probabilities",
    )
    p_strm.add_argument("--n", type=_count_arg(1), default=100_000)
    p_strm.add_argument("--seed", type=int, default=0)
    p_strm.add_argument(
        "--chunk", type=_count_arg(1), default=60, help="characters per verse line"
    )
    p_strm.add_argument("--out", default="-")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        settings = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        return cmd_analyze(RunConfig(**settings | {"inputs": tuple(args.inputs)}))
    if args.command == "stats":
        return cmd_stats(
            results_path=args.results,
            books=args.books,
            group_by=args.group_by,
            out_dir=args.out,
        )
    if args.command == "oracle-check":
        if args.min_len > args.max_len:
            parser.error("--min-len must not exceed --max-len")
        if args.alpha_min > args.alpha_max:
            parser.error("--alpha-min must not exceed --alpha-max")
        return cmd_oracle_check(
            count=args.count,
            min_len=args.min_len,
            max_len=args.max_len,
            min_alpha=args.alpha_min,
            max_alpha=args.alpha_max,
            seed=args.seed,
        )
    return cmd_synth(args)


def cmd_analyze(config: RunConfig) -> int:
    """Run the full measurement pipeline for one configuration."""
    try:
        work, missing_report = _collect_books(config)
    except (OSError, CorpusFormatError, ValueError) as exc:
        logger.error("%s", exc)
        return 1

    # Build or load the compiled kernel before any worker starts, so
    # forked workers inherit it and the manifest names what ran.
    kernel = kernel_name()
    units = [(book, r) for book in work for r in range(config.replicates)]
    rows = []
    errors: list[tuple[str, int, int, str]] = []  # in the order of ERROR_KEYS

    def record_error(book: Book, replicate: int, exc: Exception) -> None:
        errors.append((book.translation_id, book.book_id, replicate, str(exc)))
        logger.error(
            "measurement failed for %s book %d replicate %d: %s",
            book.translation_id,
            book.book_id,
            replicate,
            exc,
        )

    if config.workers <= 1:
        for book, r in units:
            try:
                rows.append(measure_replicate(book, r, config))
            except Exception as exc:
                record_error(book, r, exc)
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # A worker that dies (say, an out-of-memory kill) breaks the pool:
        # submit raises, and every unit without a result gets BrokenProcessPool.
        futures = []
        try:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                for book, r in units:
                    futures.append(pool.submit(measure_replicate, book, r, config))
        except BrokenProcessPool:
            pass
        lost = units[len(futures) :]
        for unit, future in zip(units, futures):
            try:
                rows.append(future.result())
            except BrokenProcessPool:
                lost.append(unit)
            except Exception as exc:
                record_error(*unit, exc)
        died = "not measured: its worker process died"
        errors += [(b.translation_id, b.book_id, r, died) for b, r in lost]
        if lost:
            logger.error(
                "a worker process died; %d of %d units were not measured (listed under "
                "errors in manifest.json): rerun with fewer --workers and check free memory",
                len(lost),
                len(units),
            )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        write_results_csv(rows, fh)

    manifest = {
        "tool": "wordtradeoff",
        "version": __version__,
        "config": asdict(config),
        "inputs": {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in config.inputs
        },
        "missing_books": missing_report,
        "errors": [dict(zip(ERROR_KEYS, error)) for error in sorted(errors)],
        "rows_written": len(rows),
        "kernel": kernel,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("wrote %d rows to %s", len(rows), results_path)
    if not work:
        logger.error("no valid books selected from any input")
        return 1
    return 2 if errors else 0


def _collect_books(config: RunConfig) -> tuple[list[Book], dict[str, list[int]]]:
    """Parse inputs, select and (optionally) truncate the requested books.

    Raises ValueError when two inputs carry the same translation id, since
    their rows would share (translation, book, replicate) keys.
    """
    work: list[Book] = []
    missing_report: dict[str, list[int]] = {}
    path_by_id: dict[str, str] = {}
    for path in config.inputs:
        translation = parse_corpus(Path(path), config.fmt, lowercase=config.lowercase)
        tid = translation.translation_id
        if tid in path_by_id:
            raise ValueError(
                f"inputs {path_by_id[tid]} and {path} both have translation id {tid!r}; "
                "give each a distinct '# translation_id: ...' comment"
            )
        path_by_id[tid] = path
        found, missing = select_books(translation, config.books)
        if missing:
            missing_report[tid] = sorted(missing)
        if not found:
            continue
        if config.truncate != "off" and len(found) >= 2:
            found = truncate_books(found, config.truncate)
        elif config.truncate != "off":
            logger.info("translation %s has a single selected book; nothing to truncate", tid)
        work.extend(found)
    return work, missing_report


def cmd_stats(
    results_path: str,
    books: tuple[int, ...] | None,
    group_by: str,
    out_dir: str | None,
) -> int:
    """Compute fits, correlation matrix, ranks and rank histograms."""
    try:
        measurements = read_results_csv(results_path)
    except (OSError, ValueError) as exc:
        logger.error("cannot read results: %s", exc)
        return 1
    if not measurements:
        logger.error("results table is empty")
        return 1

    out = Path(out_dir) if out_dir else Path(results_path).parent
    out.mkdir(parents=True, exist_ok=True)
    selected = sorted(books) if books else sorted({m.book_id for m in measurements})

    # Rank tables need translation aggregates; under translation grouping those are ``grouped``.
    by_key = {key: aggregate(measurements, group_by=key) for key in {group_by, "translation"}}
    grouped, per_translation = by_key[group_by], by_key["translation"]

    fits: list[BookFit] = []
    for book_id in selected:
        points = [
            (row.mean_d_order, row.mean_d_structure)
            for row in grouped
            if row.book_id == book_id
        ]
        if len(points) < 2:
            logger.warning("book %d: fewer than 2 groups, no fit", book_id)
            continue
        try:
            fit = fit_reciprocal(points)
            r_s = spearman([p[0] for p in points], [p[1] for p in points])
        except ValueError as exc:
            logger.warning("book %d: %s; skipped", book_id, exc)
            continue
        fits.append(BookFit(book_id=book_id, fit=fit, r_s=r_s))
    with open(out / "fits.csv", "w", newline="", encoding="utf-8") as fh:
        write_fits_csv(fits, fh)

    try:
        matrix = correlation_matrix(grouped, selected)
    except (InsufficientDataError, ValueError) as exc:
        logger.warning("correlation matrix skipped: %s", exc)
    else:
        with open(out / "corr_matrix.csv", "w", newline="", encoding="utf-8") as fh:
            write_corr_matrix_csv(matrix, fh)

    tables, excluded = rank_books(per_translation, selected)
    with open(out / "ranks.csv", "w", newline="", encoding="utf-8") as fh:
        write_ranks_csv(tables, fh, excluded)
    if tables:
        hist = rank_histograms(tables)
        with open(out / "rank_hist.csv", "w", newline="", encoding="utf-8") as fh:
            write_rank_hist_csv(hist, fh)
        tied = [t.translation_id for t in tables if t.has_ties]
        if tied:
            logger.warning(
                "rank_hist.csv counts %d rank table(s) whose tied penalties are ranked by "
                "book id, not by measurement (first: %s); ranks.csv marks them in its ties column",
                len(tied),
                ", ".join(tied[:5]),
            )
    else:
        logger.warning("no translation has all books %s; rank histograms skipped", selected)

    logger.info("stats written to %s", out)
    return 0


def cmd_oracle_check(
    count: int, min_len: int, max_len: int, min_alpha: int, max_alpha: int, seed: int
) -> int:
    if count == 0:
        print("oracle-check: PASS (vacuous: 0 cases requested)")
        logger.warning("oracle-check ran zero cases")
        return 0
    report = run_oracle_check(
        count=count,
        min_len=min_len,
        max_len=max_len,
        min_alpha=min_alpha,
        max_alpha=max_alpha,
        seed=seed,
    )
    if report.passed:
        print(
            f"oracle-check: PASS ({report.cases} cases, {report.elapsed_s:.1f}s, "
            f"lengths {min_len}-{max_len}, alphabets {min_alpha}-{max_alpha})"
        )
        return 0
    print(f"oracle-check: FAIL, minimal counterexample: {report.counterexample!r}")
    return 2


def _write_tsv_corpus(book: Book, header: list[str], fh: IO[str]) -> None:
    for line in header:
        fh.write(f"# {line}\n")
    for verse in book.verses:
        fh.write(f"{verse.ref.book_id}\t{verse.ref.chapter}\t{verse.ref.verse}\t{verse.text}\n")


def cmd_synth(args: argparse.Namespace) -> int:
    from .testkit import generate, render_toy_corpus, toy_language_pair

    if args.generator == "toy":
        vocab_seed = args.seed if args.vocab_seed is None else args.vocab_seed
        positional, affixal = toy_language_pair(vocab_seed)
        spec = positional if args.mode == "positional" else affixal
        book = render_toy_corpus(spec, args.sentences, args.seed)
        header = [
            f"generator: toy mode={args.mode} sentences={args.sentences} "
            f"seed={args.seed} vocab_seed={vocab_seed}",
            f"language: toy_{args.mode}",
        ]
    else:
        try:
            source = _stream_source(args)
            seq = generate(source, args.n, args.seed)
        except ValueError as exc:
            logger.error("%s", exc)
            return 1
        verses = [
            seq.chars[i : i + args.chunk] for i in range(0, len(seq.chars), args.chunk)
        ]
        book = Book(
            book_id=1,
            verses=tuple(
                Verse(VerseRef(1, 1, i), text) for i, text in enumerate(verses, start=1)
            ),
            translation_id=f"synth_{args.kind}_{args.seed}",
            language=f"synth_{args.kind}",
        )
        header = [
            f"generator: stream kind={args.kind} n={args.n} seed={args.seed} "
            f"h_true={source.h_true:.6f}",
            f"language: synth_{args.kind}",
        ]

    if args.out == "-":
        _write_tsv_corpus(book, header, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_tsv_corpus(book, header, fh)
        logger.info("wrote %d verses to %s", len(book.verses), args.out)
    return 0


def _stream_source(args: argparse.Namespace):
    from .testkit import iid_source, markov_source

    if args.kind == "iid":
        if args.probs:
            probs = [float(p) for p in args.probs.split(",")]
        else:
            probs = [1.0 / args.k] * args.k
        return iid_source(probs)
    if not args.transition:
        raise ValueError("markov1 needs --transition")
    rows = [
        [float(p) for p in row.split(",")] for row in args.transition.split(";")
    ]
    return markov_source(rows)


if __name__ == "__main__":
    sys.exit(main())
