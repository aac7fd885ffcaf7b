"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and a directory, writes the files
the measured command reads, and returns what the output checks need to
know about them. The same seed always gives the same bytes. Generation
is never timed.
"""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wordtradeoff import cli
from wordtradeoff.testkit import render_toy_corpus, toy_language_pair

#: Sentences per toy corpus: about 0.22M (positional) and 0.29M
#: (affixal) characters, the book size the kernel baseline is quoted at.
TOY_SENTENCES = 6000

PBC_BOOKS = (40, 41, 42, 43, 44, 66)
#: Sentences per book. Lengths are uneven on purpose: token truncation
#: cuts every book of a translation down to its shortest (Revelation).
PBC_SENTENCES = {40: 700, 41: 450, 42: 760, 43: 580, 44: 680, 66: 400}
#: Verses per chapter when laying sentences out as pbc verse ids.
PBC_CHAPTER_VERSES = 30
#: Eight translations of six languages: (language index, toy mode).
#: Half positional, half affixal; languages 0 and 2 have two translations.
PBC_TRANSLATIONS = (
    (0, "positional"),
    (0, "positional"),
    (1, "affixal"),
    (2, "affixal"),
    (2, "affixal"),
    (3, "positional"),
    (4, "positional"),
    (5, "affixal"),
)
#: Languages written in a multi-byte script: Cyrillic (2 bytes per letter
#: in UTF-8) and Georgian (3 bytes per letter).
PBC_SCRIPTS = {
    2: str.maketrans(string.ascii_lowercase, "".join(chr(0x430 + i) for i in range(26))),
    5: str.maketrans(string.ascii_lowercase, "".join(chr(0x10D0 + i) for i in range(26))),
}

STATS_TRANSLATIONS = 1500
STATS_LANGUAGES = 1000
STATS_REPLICATES = 3
#: Share of translations that lack one of the six books (as NT-only or
#: partial translations do), so rank tables exclude some translations.
STATS_MISSING_BOOK_SHARE = 0.03

RESULT_HEADER = (
    "translation_id",
    "language",
    "book_id",
    "replicate",
    "N",
    "h_original",
    "h_order",
    "h_structure",
    "d_order",
    "d_structure",
)


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus the facts the output checks rely on.

    ``expected_n`` maps (translation_id, book_id) to the exact N a correct
    ``analyze`` reports, or to ``None`` when only an upper bound (the
    untruncated length of the translation's shortest book) is known.
    """

    paths: tuple[Path, ...]
    expected_n: dict[tuple[str, int], int | None]
    n_bound: dict[str, int]
    rows: int


def _flat_length(texts: list[str]) -> int:
    return sum(len(t) for t in texts) + len(texts) - 1


def toy_pair(seed: int, out_dir: Path, sentences: int = TOY_SENTENCES) -> Inputs:
    """The testkit toy positional and affixal corpora, written by ``synth toy``."""
    paths = []
    expected = {}
    for mode in ("positional", "affixal"):
        path = out_dir / f"toy_{mode}.tsv"
        argv = ["synth", "toy", "--mode", mode, "--sentences", str(sentences),
                "--seed", str(seed), "--out", str(path)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"synth toy failed for mode {mode}")
        texts = [
            line.rstrip("\n").split("\t", 3)[3]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        expected[(path.stem, 1)] = _flat_length(texts)
        paths.append(path)
    return Inputs(tuple(paths), expected, {}, rows=0)


def pbc_like(seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Eight pbc-format translations of the six default books.

    Vocabularies have about 3k word types (``toy_language_pair`` with 1500
    agents and 1500 patients), so mask tables and lexicons are large
    relative to the ~15-30k-character books. ``scale`` multiplies every
    book's sentence count.
    """
    paths = []
    expected: dict[tuple[str, int], int | None] = {}
    bounds: dict[str, int] = {}
    for t_idx, (lang, mode) in enumerate(PBC_TRANSLATIONS):
        positional, affixal = toy_language_pair(
            seed * 8 + lang, n_agents=1500, n_verbs=40, n_patients=1500
        )
        spec = positional if mode == "positional" else affixal
        code = f"tl{lang}"
        tid = f"{code}-x-bible-{t_idx}"
        lines = [f"# closest ISO 639-3: {code}", f"# generator: toy {mode} seed {seed}"]
        lengths = {}
        for book_id in PBC_BOOKS:
            msg_seed = (seed * 64 + t_idx) * 100 + book_id
            book = render_toy_corpus(spec, round(PBC_SENTENCES[book_id] * scale), msg_seed)
            texts = [v.text.translate(PBC_SCRIPTS[lang]) if lang in PBC_SCRIPTS else v.text
                     for v in book.verses]
            for i, text in enumerate(texts):
                chapter, verse = divmod(i, PBC_CHAPTER_VERSES)
                lines.append(f"{book_id:02d}{chapter + 1:03d}{verse + 1:03d}\t{text}")
            lengths[book_id] = _flat_length(texts)
        shortest = min(lengths.values())
        bounds[tid] = shortest
        for book_id, n in lengths.items():
            expected[(tid, book_id)] = n if n == shortest else None
        path = out_dir / f"{tid}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return Inputs(tuple(paths), expected, bounds, rows=0)


def stats_results(seed: int, out_dir: Path) -> Inputs:
    """A PBC-scale ``results.csv``: 1500 translations, 1000 languages.

    Each language sits at a point x on the trade-off curve, and its
    books scatter around d_structure = b0 + b1 / d_order with
    multiplicative noise, so every book's reciprocal fit is
    non-degenerate. Replicates add small estimation noise. Values are
    written as ``analyze`` writes them: h at 6 significant digits and
    each d the difference of the unrounded h values.
    """
    rng = np.random.default_rng([seed, 3])
    n_books = len(PBC_BOOKS)
    lang_of = np.concatenate(
        [np.arange(STATS_LANGUAGES),
         rng.integers(0, STATS_LANGUAGES, STATS_TRANSLATIONS - STATS_LANGUAGES)]
    )
    rng.shuffle(lang_of)
    x_lang = rng.uniform(0.03, 0.40, STATS_LANGUAGES)
    book_scale = rng.uniform(0.8, 1.2, n_books)

    records = []
    for t_idx, lang in enumerate(lang_of):
        code = f"q{lang:03d}"
        tid = f"{code}-x-bible-{t_idx:04d}"
        books = list(PBC_BOOKS)
        if rng.random() < STATS_MISSING_BOOK_SHARE:
            books.pop(int(rng.integers(n_books)))
        n_chars = int(rng.integers(60_000, 140_000))
        for book_id in books:
            b_idx = PBC_BOOKS.index(book_id)
            h0 = rng.normal(1.10, 0.05)
            x = x_lang[lang] * book_scale[b_idx] * np.exp(rng.normal(0.0, 0.10))
            y = 0.01 + 0.006 / x * np.exp(rng.normal(0.0, 0.15))
            for rep in range(STATS_REPLICATES):
                h_orig = h0 + rng.normal(0.0, 0.003)
                h_order = h_orig + x + rng.normal(0.0, 0.004)
                h_struct = h_orig + y + rng.normal(0.0, 0.004)
                records.append((tid, code, book_id, rep, n_chars,
                                h_orig, h_order, h_struct))
    records.sort(key=lambda r: (r[0], r[2], r[3]))

    path = out_dir / "results.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_HEADER)
        for tid, code, book_id, rep, n_chars, h_o, h_a, h_s in records:
            writer.writerow([
                tid, code, str(book_id), str(rep), str(n_chars),
                _g6(h_o), _g6(h_a), _g6(h_s), _g6(h_a - h_o), _g6(h_s - h_o),
            ])
    return Inputs((path,), {}, {}, rows=len(records))


def _g6(x: float) -> str:
    return format(float(x), ".6g")
