"""The benchmark scripts still find every name and result shape they use.

``bench/traced.py`` wraps package functions at the module attributes listed
in its ``WRAPPED`` table, three of its count hooks read the arguments or
results of the function they wrap, and its kernel sweep reads
``generate(...).chars``. A traced ``stats`` records the read and aggregate
spans under their names, and it and a traced ``analyze`` between them call
every wrapped function. ``bench/run.py`` times a set-up probe that builds
a ``MeasureConfig()`` with its defaults. A change that renames or removes
one of those names, or changes one of those shapes, breaks the benchmark,
not the package's own tests; these tests catch that. The scripts are
loaded by path and only read.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_golden import GOLDEN
from wordtradeoff.corpus import flatten, parse_corpus
from wordtradeoff.testkit import generate, uniform_iid

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CORPORA = [GOLDEN / "toy_affixal.tsv", GOLDEN / "unicode_mix.tsv"]
DEFAULTS = GOLDEN / "pbc" / "expected" / "defaults"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_attributes_exist():
    missing = [
        f"{span}: {module.__name__}.{attr}"
        for span, module, attr, _ in load_script("traced").WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_setup_probe_runs():
    probe = load_script("run").SETUP_PROBE
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve().is_relative_to(ROOT / "src")


def run_traced(out: Path, *argv: str) -> dict:
    """The spans and counts of ``bench/traced.py cli`` running ``argv``."""
    spans = out / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), "cli", str(spans), "contract", "--", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_analyze(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("traced_analyze")
    return run_traced(out, "analyze", *map(str, CORPORA), "--format", "tsv", "--books", "1",
                      "--replicates", "1", "--out", str(out / "out"))


@pytest.fixture(scope="module")
def traced_stats(tmp_path_factory) -> tuple[dict, Path]:
    out = tmp_path_factory.mktemp("traced_stats")
    return run_traced(out, "stats", str(DEFAULTS / "results.csv"), "--out", str(out)), out


def test_count_hooks_read_real_calls(traced_analyze):
    """A traced ``analyze`` runs every count hook on the pipeline's own calls."""
    hooks = {hook.__name__ for *_, hook in load_script("traced").WRAPPED if hook}
    assert hooks == {"_count_bytes_in", "_count_mask_types", "_count_match_lengths"}

    texts = [flatten(parse_corpus(path, "tsv").books[1]) for path in CORPORA]
    counts = traced_analyze["counts"]
    assert counts["corpus.bytes_in"] == sum(path.stat().st_size for path in CORPORA)
    assert counts["transforms.mask_types"] == sum(
        len({t for t in text.split(" ") if len(t) >= 2}) for text in texts
    )
    assert counts["entropy.match_lengths.chars"] == 3 * sum(map(len, texts))


def test_traced_stats_records_read_and_aggregate(traced_stats):
    """A traced ``stats`` records the read and aggregate spans and writes the golden files."""
    traced, out = traced_stats
    names = Counter(span["name"] for span in traced["spans"])
    # One read, and one aggregate pass for both tables.
    assert names["measures.read_results_csv"] == 1
    assert names["measures.aggregate"] == 1
    for name in ("fits.csv", "corr_matrix.csv", "ranks.csv", "rank_hist.csv"):
        assert (out / name).read_bytes() == (DEFAULTS / name).read_bytes(), name


def test_traced_runs_reach_every_wrapped_span(traced_analyze, traced_stats):
    """Between them, a traced ``analyze`` and ``stats`` call every wrapped
    function, so ``bench/run.py`` finds each per-layer metric it reports."""
    reached = {span["name"] for traced in (traced_analyze, traced_stats[0])
               for span in traced["spans"]}
    wrapped = {span for span, *_ in load_script("traced").WRAPPED}
    assert sorted(wrapped - reached) == []


def test_sweep_reads_generated_chars():
    chars = generate(uniform_iid(4), 100, 0).chars
    assert isinstance(chars, str)
    assert len(chars) == 100
