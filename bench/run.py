"""Benchmark of the wordtradeoff batch pipeline, end to end and per layer.

Run it from a checkout of the repository:

    python3 bench/run.py --workload toy-pair --seed 0 --seconds 30 --trace 0

Workloads, metrics and the predictions that link them are described in
``bench/README.md``; names, units and bounds are declared in
``BENCHMARK.json``. Inputs are generated from ``--seed`` into
``.bench_work/`` and the program receives only those files. Each measured
command runs in a fresh interpreter, as a user runs the CLI.

``--trace 0`` repeats rounds of the workload's command for about
``--seconds`` and reports the end-to-end metrics. ``--trace 1`` makes one
untraced round, a traced ``analyze`` and ``stats`` (``bench/traced.py``)
and the kernel sweep, and reports the per-layer metrics.

Every output is checked: exit codes, the manifest, row counts, N and the
penalty arithmetic, byte equality across worker counts, rounds and the
traced run, and the sha256 digests that ``bench/digests.json`` records for
some seeds (``--record`` stores the current seed's). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
run and check passed, 1 when one failed and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("toy-pair", "stats-pbc")

#: toy-pair: one book per corpus, 2 replicates, whole-book token shuffle.
#: The pbc-like companion corpus: the paper's defaults (six books,
#: verse-scope shuffle, token truncation) with one replicate.
TOY_FLAGS = ("--format", "tsv", "--books", "1", "--replicates", "2", "--order-scope", "book")
PBC_FLAGS = ("--format", "pbc", "--replicates", "1")
STATS_FLAGS = ("--group-by", "language")
STATS_OUTPUTS = ("fits.csv", "corr_matrix.csv", "ranks.csv", "rank_hist.csv")
WORKERS = 2
#: A layer function that a workload's commands never call (truncation on
#: single-book toy corpora; all of analyze on stats-pbc) is timed on a
#: pbc-like corpus at this fraction of the size, so every traced run
#: reports every layer.
COMPANION_SCALE = 0.05
SETUP_PROBES = 5
#: Rounds per run: at least two, so every reported median rests on more
#: than one sample.
MIN_ROUNDS = 2

#: A fresh interpreter's set-up: import the CLI and measure one tiny book.
SETUP_PROBE = """\
import wordtradeoff, wordtradeoff.cli
from wordtradeoff.corpus import Book, Verse, VerseRef
from wordtradeoff.measures import MeasureConfig, measure_replicate
words = "mata kilo rena bopu sati dole figa nuve".split()
verses = tuple(
    Verse(VerseRef(1, 1, v), " ".join(words[(v * 3 + i) % 8] for i in range(v % 5 + 3)))
    for v in range(1, 41)
)
measure_replicate(Book(book_id=1, verses=verses), 0, MeasureConfig())
print(wordtradeoff.__file__)
"""


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


@dataclass
class Run:
    label: str
    out: Path
    stdout: Path
    ok: bool = True
    wall_s: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


class Bench:
    """Runs commands in fresh interpreters and tallies attempts and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
        (work / "tmp").mkdir(parents=True)
        (work / "logs").mkdir()

    def run(self, argv: list[str], label: str, out: Path) -> Run:
        """Run one command and wait for it and every process it started.

        ``os.wait4`` returns the rusage of this child alone, which covers
        the pool workers it reaped, so peak RSS is that of the command's
        largest process and never a maximum over earlier commands.
        """
        self.attempted += 1
        stem = self.work / "logs" / f"{self.attempted:03d}-{label}"
        with open(f"{stem}.out", "wb") as out_fh, open(f"{stem}.err", "wb") as err_fh:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh,
                env=self.env, cwd=ROOT, start_new_session=True,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - started
        try:
            # Anything the command left behind in its session (it should
            # leave nothing) is stopped too.
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = Run(label, out, Path(f"{stem}.out"), ok=proc.returncode == 0, wall_s=wall,
                  rss_mb=usage.ru_maxrss / 1024.0)
        if not run.ok:
            run.problems.append(f"exit code {proc.returncode}, see {stem}.err")
        return run

    def judge(self, run: Run) -> None:
        """Count ``run`` as failed if it exited nonzero or failed a check."""
        for problem in run.problems:
            log(f"FAILED {run.label}: {problem}")
        if run.problems:
            self.failed += 1


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def replicates_of(flags: tuple[str, ...]) -> int:
    return int(flags[flags.index("--replicates") + 1])


def check_results(path: Path, inputs, replicates: int) -> list[str]:
    """Header, units, N and the penalty arithmetic of a results.csv."""
    import inputs as gen

    rows = read_rows(path)
    if not rows or tuple(rows[0]) != gen.RESULT_HEADER:
        return [f"{path.name}: unexpected header"]
    body = rows[1:]
    problems = []
    if inputs.expected_n:
        keys = {(r[0], int(r[2]), int(r[3])) for r in body}
        want = {(t, b, r) for t, b in inputs.expected_n for r in range(replicates)}
        if len(body) != len(want) or keys != want:
            problems.append(f"{path.name}: {len(body)} rows, expected the {len(want)} units")
    for rec in body:
        tid, book_id, n = rec[0], int(rec[2]), int(rec[4])
        h_o, h_a, h_s, d_a, d_s = (float(x) for x in rec[5:10])
        if not all(math.isfinite(x) and x > 0 for x in (h_o, h_a, h_s)):
            problems.append(f"{path.name}: non-positive or non-finite h in {rec}")
        for h, d in ((h_a, d_a), (h_s, d_s)):
            # Each value is written with 6 significant digits.
            if abs(d - (h - h_o)) > 1e-5 * (max(abs(h), abs(h_o)) + abs(d)):
                problems.append(f"{path.name}: d != h_variant - h_original in {rec}")
        if inputs.expected_n:
            exact = inputs.expected_n.get((tid, book_id))
            bound = inputs.n_bound.get(tid, 0)
            if exact is not None and n != exact:
                problems.append(f"{path.name}: N={n} for {tid}/{book_id}, expected {exact}")
            if exact is None and not 0 < n <= bound:
                problems.append(f"{path.name}: N={n} for {tid}/{book_id} above the cut {bound}")
        if len(problems) > 5:
            break
    return problems


def check_analyze(run: Run, inputs, replicates: int) -> list[str]:
    if not run.ok:
        return []
    try:
        manifest = json.loads((run.out / "manifest.json").read_text(encoding="utf-8"))
        units = len(inputs.expected_n) * replicates
        problems = []
        if manifest["errors"]:
            problems.append(f"manifest lists {len(manifest['errors'])} errors")
        if manifest["rows_written"] != units:
            problems.append(f"rows_written={manifest['rows_written']}, units={units}")
        return problems + check_results(run.out / "results.csv", inputs, replicates)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_stats(run: Run, results: Path) -> list[str]:
    if not run.ok:
        return []
    try:
        n_books = len({r[2] for r in read_rows(results)[1:]})
        missing = [name for name in STATS_OUTPUTS if not (run.out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        fits = read_rows(run.out / "fits.csv")[1:]
        if len(fits) != n_books:
            return [f"fits.csv has {len(fits)} rows for {n_books} books"]
        bad = [r for r in fits if not all(math.isfinite(float(x)) for x in r[1:])]
        return [f"non-finite fit {bad[0]}"] if bad else []
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def outputs_of(run: Run, names: tuple[str, ...]) -> dict[str, bytes]:
    if not run.ok:
        return {}
    return {name: (run.out / name).read_bytes() for name in names if (run.out / name).is_file()}


def same_outputs(a: Run, b: Run, names: tuple[str, ...], what: str) -> list[str]:
    first, second = outputs_of(a, names), outputs_of(b, names)
    if not first or not second:
        return []
    return [f"{name} differs ({what})" for name in names if first.get(name) != second.get(name)]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Generated inputs plus the commands that measure and check them."""

    def __init__(self, name: str, seed: int, bench: Bench):
        import inputs as gen

        self.name = name
        self.seed = seed
        self.bench = bench
        self.work = bench.work
        (self.work / "in").mkdir()
        if name == "toy-pair":
            self.inputs, self.flags = gen.toy_pair(seed, self.work / "in"), TOY_FLAGS
        else:
            self.inputs, self.flags = gen.stats_results(seed, self.work / "in"), None
        self.digests = {"inputs": sha256_hex(
            "".join(sha256_hex(p.read_bytes()) for p in self.inputs.paths).encode()
        )}
        self.first: dict[str, bytes] = {}

    def analyze(self, corpora, flags, workers: int, out: Path, trace_id: str | None = None) -> Run:
        args = ("analyze", *map(str, corpora.paths), *flags,
                "--workers", str(workers), "--out", str(out))
        shutil.rmtree(out, ignore_errors=True)
        label = f"analyze-w{workers}" + (f"-traced-{trace_id}" if trace_id else "")
        run = self.bench.run(self._argv(args, trace_id), label, out)
        run.problems += check_analyze(run, corpora, replicates_of(flags))
        return run

    def stats(self, results: Path, out: Path, trace_id: str | None = None) -> Run:
        args = ("stats", str(results), *STATS_FLAGS, "--out", str(out))
        shutil.rmtree(out, ignore_errors=True)
        label = "stats" + (f"-traced-{trace_id}" if trace_id else "")
        run = self.bench.run(self._argv(args, trace_id), label, out)
        run.problems += check_stats(run, results)
        return run

    def _argv(self, args: tuple[str, ...], trace_id: str | None) -> list[str]:
        if trace_id is None:
            return [sys.executable, "-m", "wordtradeoff.cli", *args]
        spans = self.work / f"spans-{trace_id}.json"
        return [sys.executable, str(BENCH / "traced.py"), "cli", str(spans), trace_id, "--", *args]

    def same_as_first(self, run: Run, names: tuple[str, ...]) -> list[str]:
        """Outputs must equal the first ones of this benchmark run, byte for byte."""
        outputs = outputs_of(run, names)
        if not outputs:
            return []
        if not self.first:
            self.first = outputs
            self.digests.update({k: sha256_hex(v) for k, v in outputs.items()})
            return []
        return [f"{name} differs from the first run's" for name in names
                if outputs.get(name) != self.first.get(name)]

    def round(self, index: int) -> tuple[Run, Run]:
        """One measured round: (run at 2 workers, run at 1 worker)."""
        if self.flags is None:
            # stats has no worker pool: one sample serves both worker counts.
            run = self.stats(self.inputs.paths[0], self.work / "out-stats")
            run.problems += self.same_as_first(run, STATS_OUTPUTS)
            self.bench.judge(run)
            return run, run
        runs = {}
        # Alternate which worker count goes first, so drift hits both alike.
        for workers in ((2, 1) if index % 2 == 0 else (1, 2)):
            run = self.analyze(self.inputs, self.flags, workers, self.work / f"out-w{workers}")
            run.problems += self.same_as_first(run, ("results.csv",))
            self.bench.judge(run)
            runs[workers] = run
        return runs[2], runs[1]

    def check_digests(self) -> None:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.name, {})
        want = recorded.get(str(self.seed))
        if want is None:
            log(f"no digests recorded for seed {self.seed}; byte-equality checks only")
            return
        self.bench.attempted += 1
        run = Run("digests", self.work, self.work)
        run.problems = [f"{key} sha256 {self.digests.get(key)} != recorded {value}"
                        for key, value in want.items() if self.digests.get(key) != value]
        self.bench.judge(run)

    def record_digests(self) -> None:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        recorded.setdefault(self.name, {})[str(self.seed)] = self.digests
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        log(f"recorded digests for {self.name} seed {self.seed}")

    def rows_and_chars(self) -> tuple[int, int]:
        """(rows, sum of N) of the results table the command writes or reads."""
        path = self.inputs.paths[0] if self.flags is None else self.work / "out-w1" / "results.csv"
        if not path.is_file():
            return 0, 0
        body = read_rows(path)[1:]
        return len(body), sum(int(r[4]) for r in body)


def measure(workload: Workload, seconds: float) -> dict[str, float]:
    bench = workload.bench
    setup = []
    for _ in range(SETUP_PROBES):
        run = bench.run([sys.executable, "-c", SETUP_PROBE], "setup", workload.work)
        if run.ok and not run.stdout.read_text(encoding="utf-8").startswith(str(SRC)):
            run.problems.append("imported wordtradeoff from outside this checkout")
        bench.judge(run)
        setup.append(run.wall_s)

    w2, w1 = [], []
    started = time.perf_counter()
    while True:
        a, b = workload.round(len(w2))
        w2.append(a)
        w1.append(b)
        elapsed = time.perf_counter() - started
        # Start another round only if at least half of it fits.
        if len(w2) >= MIN_ROUNDS and elapsed * (1 + 0.5 / len(w2)) > seconds:
            break
    log(f"{len(w2)} rounds in {elapsed:.1f} s")

    rows, sum_n = workload.rows_and_chars()
    wall = statistics.median(r.wall_s for r in w2)
    return {
        "wall_s": wall,
        "wall_w1_s": statistics.median(r.wall_s for r in w1),
        # Each row's N is estimated on three variants.
        "chars_per_s": 3 * sum_n / wall,
        "rows_per_s": rows / wall,
        "peak_rss_mb": max(r.rss_mb for r in w2 + w1),
        "setup_s": statistics.median(setup),
    }


def span_totals(path: Path) -> tuple[dict[str, float], dict[str, int], int]:
    """Self time per ``<span name>.self_s``, the counts, and the unit count.

    A span's self time is its duration minus the time its child spans
    cover; the tracer's own ``trace.*`` spans are left out.
    """
    if not path.is_file():
        return {}, {}, 0
    data = json.loads(path.read_text(encoding="utf-8"))
    spans = data["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    self_s: dict[str, float] = {}
    for span, child in zip(spans, covered):
        if not span["name"].startswith("trace."):
            key = f"{span['name']}.self_s"
            self_s[key] = self_s.get(key, 0.0) + span["end"] - span["start"] - child
    units = sum(1 for s in spans if s["name"] == "measures.measure_replicate")
    return self_s, data["counts"], units


def traced(workload: Workload, declared: set[str]) -> dict[str, float]:
    import inputs as gen

    bench, work = workload.bench, workload.work
    own = workload.flags is not None

    def companion():
        (work / "companion").mkdir(exist_ok=True)
        return gen.pbc_like(workload.seed, work / "companion", COMPANION_SCALE)

    corpora, flags = (workload.inputs, workload.flags) if own else (companion(), PBC_FLAGS)
    w2 = workload.analyze(corpora, flags, 2, work / "out-w2")
    w1 = workload.analyze(corpora, flags, 1, work / "out-w1")
    w1.problems += same_outputs(w2, w1, ("results.csv",), "workers 1 vs 2")
    t_an = workload.analyze(corpora, flags, 1, work / "traced-analyze", trace_id="analyze")
    t_an.problems += same_outputs(w1, t_an, ("results.csv",), "traced vs untraced")
    results = w1.out / "results.csv" if own else workload.inputs.paths[0]
    st = workload.stats(results, work / "out-stats")
    t_st = workload.stats(t_an.out / "results.csv" if own else results,
                          work / "traced-stats", trace_id="stats")
    t_st.problems += same_outputs(st, t_st, STATS_OUTPUTS, "traced vs untraced")
    if own:
        w1.problems += workload.same_as_first(w1, ("results.csv",))
    else:
        st.problems += workload.same_as_first(st, STATS_OUTPUTS)
    for run in (w2, w1, t_an, st, t_st):
        bench.judge(run)

    self_s, counts, units = span_totals(work / "spans-analyze.json")
    analyze_s = sum(self_s.values())
    stats_self, _, _ = span_totals(work / "spans-stats.json")
    for key, value in stats_self.items():
        self_s[key] = self_s.get(key, 0.0) + value
    unreached = {k for k in declared if k.endswith(".self_s")} - set(self_s)
    if unreached:
        log(f"timing {sorted(unreached)} on the companion corpus")
        extra = workload.analyze(companion(), PBC_FLAGS, 1, work / "traced-companion",
                                 trace_id="companion")
        bench.judge(extra)
        companion_self, _, _ = span_totals(work / "spans-companion.json")
        self_s.update({k: v for k, v in companion_self.items() if k in unreached})

    sweep = bench.run([sys.executable, str(BENCH / "traced.py"), "sweep", str(workload.seed)],
                      "sweep", work)
    kernel = {"metrics": {}, "errors": []}
    if sweep.ok:
        kernel = json.loads(sweep.stdout.read_text(encoding="utf-8").splitlines()[-1])
    sweep.problems += kernel["errors"]
    bench.judge(sweep)

    chars = counts.get("entropy.match_lengths.chars", 0)
    metrics = dict(self_s)
    metrics.update(kernel["metrics"])
    metrics.update({
        "corpus.bytes_in": counts.get("corpus.bytes_in", 0),
        "transforms.mask_types": counts.get("transforms.mask_types", 0),
        "entropy.match_lengths.chars": chars,
        "entropy.match_lengths.ns_per_char":
            self_s.get("entropy.match_lengths.self_s", 0.0) / max(chars, 1) * 1e9,
        "entropy.match_len_mean": counts.get("entropy.match_len_sum", 0) / max(chars, 1),
        "entropy.match_len_max": counts.get("entropy.match_len_max", 0),
        "cli.units": units,
        "cli.pool_efficiency": w1.wall_s / (WORKERS * w2.wall_s),
        "cli.trace_overhead_s": (t_an.wall_s - w1.wall_s) + (t_st.wall_s - st.wall_s),
    })
    selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    log(f"largest self time: {top} = {selfs[top]:.3f} s; match_lengths share of "
        f"traced analyze: {selfs['entropy.match_lengths.self_s'] / max(analyze_s, 1e-9):.1%}")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in bench/digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated benchmark still stops the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wordtradeoff" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        log(f"cannot run: no wordtradeoff sources under {SRC} or no BENCHMARK.json")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = WORK / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(work)
    workload = Workload(args.workload, args.seed, bench)
    if workload.inputs.rows:
        problems = check_results(workload.inputs.paths[0], workload.inputs, 0)
        if problems:
            log(f"generated results.csv is invalid: {problems}")
            return 2

    values = traced(workload, set(units)) if args.trace else measure(workload, args.seconds)
    if args.record:
        workload.record_digests()
    else:
        workload.check_digests()
    if set(values) != set(units):
        log(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        return 2
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
