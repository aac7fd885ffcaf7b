"""Golden outputs: ``analyze`` and ``stats`` reproduce checked-in bytes.

``tests/data/golden/`` holds a small corpus (the ``synth toy`` positional
and affixal languages at 300 sentences, and a multi-script book with two-,
three- and four-byte UTF-8 characters) together with the ``results.csv``
and ``fits.csv`` these commands wrote for it before any of the kernels or
transforms were rewritten. A change that alters a single byte of either
file fails here. The expected files are a fixed record: a failure means
the program changed its output, and the fix belongs in the program.

``tests/data/golden/pbc/`` pins the paper's default path: ``--format pbc``,
the six default books and truncation across them. Its four translations
of three languages were written once by ``bench/inputs.pbc_like`` (seed 0,
scale 0.3) and then edited by hand, so that between them they have
verse-initial capitals (Latin and Cyrillic, for ``--lowercase``), a
``# translation_id:`` comment that differs from the file name, a missing
default book (43), and a Han translation tokenized one character per
token. That one has a single astral character (U+20000, in book 42), and
no word type of length two or more, so all its structure penalties are 0
and its structure ranks tie. ``expected/<run>/`` holds all five data files
and the run-independent part of ``manifest.json`` as the code wrote them
before the transforms took a token list. ``expected/defaults-by-translation/``
holds the ``fits.csv`` and ``corr_matrix.csv`` that ``stats --group-by
translation`` wrote for the ``defaults`` table before ``aggregate`` lost its
standard deviations and the average ranks moved to numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wordtradeoff import cli
from wordtradeoff.entropy import kernel_name

GOLDEN = Path(__file__).parent / "data" / "golden"
CORPORA = ("toy_positional.tsv", "toy_affixal.tsv", "unicode_mix.tsv")

#: Expected-output directory -> the analyze flags that wrote it.
VARIANTS = {
    "order-scope-verse": ("--order-scope", "verse"),
    "order-scope-book": ("--order-scope", "book"),
    "no-verse-shuffle": ("--no-verse-shuffle",),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_outputs_match_golden_bytes(tmp_path, variant, workers):
    out = tmp_path / "out"
    argv = [
        "analyze",
        *(str(GOLDEN / name) for name in CORPORA),
        "--format", "tsv",
        "--books", "1",
        "--replicates", "2",
        *VARIANTS[variant],
        "--workers", str(workers),
        "--out", str(out),
    ]
    assert cli.main(argv) == 0
    assert cli.main(["stats", str(out / "results.csv")]) == 0
    expected = GOLDEN / "expected" / variant
    for name in ("results.csv", "fits.csv"):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["positional", "affixal"])
def test_synth_toy_reproduces_golden_corpus(tmp_path, mode):
    out = tmp_path / f"toy_{mode}.tsv"
    argv = ["synth", "toy", "--mode", mode, "--sentences", "300", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"toy_{mode}.tsv").read_bytes()


PBC = GOLDEN / "pbc"
PBC_FILES = ("results.csv", "fits.csv", "corr_matrix.csv", "ranks.csv", "rank_hist.csv")

#: Expected-output directory -> the analyze flags that wrote it.
PBC_RUNS = {
    "defaults": (),
    "char-lowercase-book": ("--truncate", "char", "--lowercase", "--order-scope", "book"),
    "truncate-off": ("--truncate", "off"),
}


def manifest_view(manifest: dict) -> dict:
    """The part of a manifest fixed by the inputs and flags.

    Paths, the worker count and the kernel name are left out; the input
    digests are keyed by file name.
    """
    view = dict(manifest)
    view["config"] = {
        key: value
        for key, value in manifest["config"].items()
        if key not in ("inputs", "out_dir", "workers")
    }
    view["inputs"] = {Path(path).name: digest for path, digest in manifest["inputs"].items()}
    del view["kernel"]
    return view


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", sorted(PBC_RUNS))
def test_pbc_default_path_matches_golden(tmp_path, run, workers):
    out = tmp_path / "out"
    argv = [
        "analyze",
        *(str(path) for path in sorted(PBC.glob("*.txt"))),
        *PBC_RUNS[run],
        "--workers", str(workers),
        "--out", str(out),
    ]
    assert cli.main(argv) == 0
    assert cli.main(["stats", str(out / "results.csv")]) == 0
    expected = PBC / "expected" / run
    for name in PBC_FILES:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["workers"] == workers
    assert manifest["kernel"] == kernel_name()
    view = manifest_view(manifest)
    # Key by key, so that the manifest may gain keys.
    for key, value in json.loads((expected / "manifest.json").read_text(encoding="utf-8")).items():
        assert view[key] == value, key


def test_pbc_stats_by_translation_matches_golden(tmp_path):
    # ``stats --group-by translation`` on the checked-in ``defaults`` table:
    # groups are translations, so each mean runs over three replicates.
    results = PBC / "expected" / "defaults" / "results.csv"
    argv = ["stats", str(results), "--group-by", "translation", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    expected = PBC / "expected" / "defaults-by-translation"
    for name in ("fits.csv", "corr_matrix.csv"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
