"""Golden outputs: ``analyze`` and ``stats`` reproduce checked-in bytes.

``tests/data/golden/`` holds a small corpus (the ``synth toy`` positional
and affixal languages at 300 sentences, and a multi-script book with two-,
three- and four-byte UTF-8 characters) together with the ``results.csv``
and ``fits.csv`` these commands wrote for it before any of the kernels or
transforms were rewritten. A change that alters a single byte of either
file fails here. The expected files are a fixed record: a failure means
the program changed its output, and the fix belongs in the program.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from wordtradeoff import cli

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
