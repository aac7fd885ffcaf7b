"""Traced run of one wordtradeoff command, and the match-length kernel sweep.

    python3 bench/traced.py cli SPANS_JSON RUN_ID -- <wordtradeoff arguments>
    python3 bench/traced.py sweep SEED

The ``cli`` form wraps the public functions at the module attributes where
``cli``, ``measures``, ``transforms`` and ``stats`` look them up, runs the
command through ``cli.main`` and, when it ends, writes every span (name,
start, end, parent, run id) and the layer counts to SPANS_JSON. The
program's own code is not touched. ``bench/run.py`` starts this script with
``src`` on ``PYTHONPATH``.

The ``sweep`` form times ``match_lengths`` at 10^4, 10^5 and 10^6 characters
on an iid k=4 stream and on a Fibonacci word (whose long repeats exercise
the automaton's clone and suffix-link paths), then measures the kernel's
heap per character with ``tracemalloc`` at 10^5 in a separate pass. It
prints one JSON object.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

from wordtradeoff import cli, entropy, measures, stats, transforms
from wordtradeoff.testkit import generate, uniform_iid

SWEEP_SIZES = ((10**4, "n1e4"), (10**5, "n1e5"), (10**6, "n1e6"))
HEAP_SIZE = 10**5


def _count_bytes_in(counts: Counter, args: tuple, result) -> None:
    counts["corpus.bytes_in"] += os.path.getsize(args[0])


def _count_mask_types(counts: Counter, args: tuple, result) -> None:
    counts["transforms.mask_types"] += len(result.table)


def _count_match_lengths(counts: Counter, args: tuple, result) -> None:
    values = np.asarray(result.values, dtype=np.int64)
    counts["entropy.match_lengths.chars"] += int(values.size)
    counts["entropy.match_len_sum"] += int(values.sum())
    counts["entropy.match_len_max"] = max(counts["entropy.match_len_max"], int(values.max()))


#: (span name, module whose attribute is replaced, attribute, count hook).
#: A function is wrapped in every module that looks it up, so nested calls
#: (``flatten`` inside the transforms, ``spearman`` inside
#: ``correlation_matrix``) become child spans.
WRAPPED = (
    ("cli.cmd_analyze", cli, "cmd_analyze", None),
    ("cli.cmd_stats", cli, "cmd_stats", None),
    ("corpus.parse_corpus", cli, "parse_corpus", _count_bytes_in),
    ("corpus.truncate_books", cli, "truncate_books", None),
    ("corpus.flatten", measures, "flatten", None),
    ("corpus.flatten", transforms, "flatten", None),
    ("transforms.derive_seed", measures, "derive_seed", None),
    ("transforms.shuffle_verses", measures, "shuffle_verses", None),
    ("transforms.destroy_word_order", measures, "destroy_word_order", None),
    ("transforms.build_mask_table", measures, "build_mask_table", _count_mask_types),
    ("transforms.mask_word_structure", measures, "mask_word_structure", None),
    ("entropy.match_lengths", measures, "match_lengths", _count_match_lengths),
    ("entropy.entropy_rate", measures, "entropy_rate", None),
    ("measures.measure_replicate", cli, "measure_replicate", None),
    ("measures.write_results_csv", cli, "write_results_csv", None),
    ("measures.read_results_csv", cli, "read_results_csv", None),
    ("measures.aggregate", cli, "aggregate", None),
    ("stats.fit_reciprocal", cli, "fit_reciprocal", None),
    ("stats.spearman", cli, "spearman", None),
    ("stats.spearman", stats, "spearman", None),
    ("stats.correlation_matrix", cli, "correlation_matrix", None),
    ("stats.rank_books", cli, "rank_books", None),
    ("stats.rank_histograms", cli, "rank_histograms", None),
    ("stats.write_csv", cli, "write_fits_csv", None),
    ("stats.write_csv", cli, "write_corr_matrix_csv", None),
    ("stats.write_csv", cli, "write_ranks_csv", None),
    ("stats.write_csv", cli, "write_rank_hist_csv", None),
)


class Tracer:
    """Spans and counts of one traced command, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent, "run": self.run_id}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                # Counting is the tracer's own work: a sibling span keeps it
                # out of the caller's self time.
                own = {"name": "trace.hook", "start": span["end"], "end": None,
                       "parent": parent, "run": self.run_id}
                self.spans.append(own)
                hook(self.counts, args, result)
                own["end"] = time.perf_counter()
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, hook in WRAPPED:
            setattr(module, attr, self.wrap(name, getattr(module, attr), hook))


def run_cli(spans_path: str, run_id: str, argv: list[str]) -> int:
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


def fibonacci_word(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def sweep(seed: int) -> int:
    metrics = {}
    errors = []
    texts = {}
    for n, label in SWEEP_SIZES:
        texts[n] = (generate(uniform_iid(4), n, seed).chars, fibonacci_word(n))
        elapsed = 0.0
        for text in texts[n]:
            started = time.perf_counter()
            ml = entropy.match_lengths(text)
            elapsed += time.perf_counter() - started
            if len(ml.values) != n:
                errors.append(f"{label}: {len(ml.values)} match lengths for {n} chars")
        if n == SWEEP_SIZES[0][0]:
            iid = texts[n][0]
            if tuple(entropy.match_lengths(iid).values) != tuple(
                entropy.match_lengths_naive(iid).values
            ):
                errors.append(f"{label}: match_lengths differs from match_lengths_naive")
        metrics[f"entropy.kernel.ns_per_char.{label}"] = elapsed / (2 * n) * 1e9
        if n != HEAP_SIZE:
            del texts[n]

    peaks = []
    for text in texts[HEAP_SIZE]:
        tracemalloc.start()
        entropy.match_lengths(text)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    metrics["entropy.kernel.heap_bytes_per_char.n1e5"] = max(peaks) / HEAP_SIZE
    print(json.dumps({"metrics": metrics, "errors": errors}))
    return 1 if errors else 0


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    if len(argv) == 2 and argv[0] == "sweep":
        return sweep(int(argv[1]))
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
