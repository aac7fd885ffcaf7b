"""Match-length computation and the entropy-rate estimator.

Match-length tests run ``match_lengths`` (the compiled C kernel) and its
pure-Python twin in ``tests/reference.py`` alike.
"""

from __future__ import annotations

import re
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from test_golden import CORPORA, GOLDEN, PBC
from wordtradeoff import cli, entropy, measures
from wordtradeoff.corpus import flatten
from wordtradeoff.entropy import (
    MatchLengths,
    entropy_rate,
    match_lengths,
    match_lengths_naive,
    run_oracle_check,
)
from wordtradeoff.measures import MeasureConfig, measure_replicate
from wordtradeoff.testkit import generate, render_toy_corpus, toy_language_pair, uniform_iid

random_texts = st.text(
    alphabet=st.sampled_from("abcdefå"), min_size=1, max_size=120
)
#: Two ASCII letters and the oracle's other symbols: two- and four-byte
#: UTF-8 letters, a lone surrogate, which a Python str may hold, and the
#: code points at the edges of the kernel's inline slots.
unicode_texts = st.text(
    alphabet=st.sampled_from(["a", "b", *entropy._ORACLE_EXTRA_SYMBOLS]),
    min_size=1,
    max_size=120,
)


def python_automaton(s: str) -> MatchLengths:
    return MatchLengths(reference.automaton_lengths(s))


#: (name, function) of each kernel under test.
KERNELS = (("match_lengths", match_lengths), ("python automaton", python_automaton))


def fibonacci_word(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def reference_two_pass_lengths(s: str) -> list[int]:
    """The two-pass automaton the kernels replaced, kept as a second oracle.

    It builds the automaton of the whole text with each state's first end
    position (1-indexed), then scans the text once, accepting a transition
    only when its first occurrence ends before the current position.
    """
    n = len(s)
    nxt: list[dict[str, int]] = [{}]
    link = [-1]
    length = [0]
    fpos = [0]
    last = 0
    for i in range(n):
        c = s[i]
        cur = len(nxt)
        nxt.append({})
        length.append(length[last] + 1)
        link.append(-1)
        fpos.append(i + 1)
        p = last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(dict(nxt[q]))
                length.append(length[p] + 1)
                link.append(link[q])
                fpos.append(fpos[q])
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur

    out = [0] * n
    v = 0
    match = 0
    for i in range(1, n + 1):
        while match < n - i + 1:
            q = nxt[v].get(s[i + match - 1])
            if q is None or fpos[q] > i - 1:
                break
            v = q
            match += 1
        out[i - 1] = match + 1
        if match > 0:
            match -= 1
            while v and length[link[v]] >= match:
                v = link[v]
    return out


def runs_text(n: int, seed: int) -> str:
    """Runs of one symbol, 1 to 5000 long, over three symbols."""
    rng = random.Random(seed)
    chars: list[str] = []
    while len(chars) < n:
        chars += rng.choice("abé") * rng.randint(1, 5000)
    return "".join(chars[:n])


class TestMatchLengthFixtures:
    def test_montana_bananas(self):
        ml = match_lengths_naive("montana bananas")
        assert ml.values[9] == 4  # "anan" starting at position 10
        assert ml.values.tolist() == [1, 1, 1, 1, 1, 2, 2, 1, 1, 4, 3, 4, 3, 2, 1]
        for name, kernel in KERNELS:
            assert np.array_equal(kernel("montana bananas").values, ml.values), name

    def test_all_distinct_characters(self):
        assert match_lengths_naive("abcd").values.tolist() == [1, 1, 1, 1]
        for name, kernel in KERNELS:
            assert kernel("abcd").values.tolist() == [1, 1, 1, 1], name

    def test_abab(self):
        assert match_lengths_naive("abab").values.tolist() == [1, 1, 3, 2]
        for name, kernel in KERNELS:
            assert kernel("abab").values.tolist() == [1, 1, 3, 2], name

    def test_aaaa_end_convention(self):
        # l_3: both "a" and "aa" occur in the prefix, so the convention
        # value is (suffix length) + 1 = 3; likewise l_4 = 2.
        assert match_lengths_naive("aaaa").values.tolist() == [1, 2, 3, 2]
        for name, kernel in KERNELS:
            assert kernel("aaaa").values.tolist() == [1, 2, 3, 2], name

    def test_single_character(self):
        for name, kernel in KERNELS:
            assert kernel("a").values.tolist() == [1], name

    def test_empty_rejected(self):
        for _, kernel in KERNELS:
            with pytest.raises(ValueError):
                kernel("")
        with pytest.raises(ValueError):
            match_lengths_naive("")

    def test_multibyte_characters_are_single_symbols(self):
        assert match_lengths_naive("ééé").values.tolist() == [1, 2, 2]
        for name, kernel in KERNELS:
            assert kernel("ééé").values.tolist() == [1, 2, 2], name

    def test_values_are_read_only_int32(self):
        for name, kernel in KERNELS + (("naive", match_lengths_naive),):
            values = kernel("abab").values
            assert values.format == "i" and values.itemsize == 4 and values.ndim == 1, name
            with pytest.raises(TypeError):
                values[0] = 5
            # numpy reads it as int32 without a copy, and cannot write it either.
            view = np.asarray(values)
            assert view.dtype == np.int32 and not view.flags.writeable, name


class TestOracleEquivalence:
    @given(random_texts)
    @settings(max_examples=300, deadline=None)
    def test_fast_equals_naive(self, s):
        expected = match_lengths_naive(s).values
        for name, kernel in KERNELS:
            assert np.array_equal(kernel(s).values, expected), name

    @given(unicode_texts)
    @settings(max_examples=200, deadline=None)
    def test_unicode_equals_naive(self, s):
        expected = match_lengths_naive(s).values
        for name, kernel in KERNELS:
            assert np.array_equal(kernel(s).values, expected), name

    @pytest.mark.parametrize(
        "s",
        [
            "é",
            "😀",
            "\ud800",
            "😀é\ud800a😀é\ud800a😀",
            "a" * 1500,
            "ab" * 700 + "b",
            "abcabd" * 300,
            "😀" * 600 + "é" * 600,
            fibonacci_word(2000),
            fibonacci_word(1597) + fibonacci_word(400),
            "\uffff" * 300,
            "a\uffff" * 200,
            "ab" * 100 + "\uffff" + "ab" * 100 + "\uffff" + "ba\uffff" * 50,
        ],
        ids=[
            "e-acute",
            "astral",
            "lone-surrogate",
            "mixed-unicode",
            "run",
            "period-2",
            "period-6",
            "astral-runs",
            "fibonacci",
            "fibonacci-restart",
            "ffff-run",
            "ffff-period-2",
            "ffff-into-free-slots",
        ],
    )
    def test_adversarial_inputs_equal_naive(self, s):
        # Runs, periodic strings and Fibonacci words drive the automaton's
        # clone and suffix-link paths hardest. U+FFFF is the compiled
        # kernel's free-slot mark; in the last case it first arrives at
        # states whose second inline slot is still free.
        expected = match_lengths_naive(s).values
        for name, kernel in KERNELS:
            assert np.array_equal(kernel(s).values, expected), name

    @given(random_texts)
    @settings(max_examples=100, deadline=None)
    def test_relabeling_invariance(self, s):
        # Match lengths depend only on the equality structure of symbols.
        mapping = {c: chr(0x400 + i) for i, c in enumerate(dict.fromkeys(s))}
        relabeled = "".join(mapping[c] for c in s)
        for name, kernel in KERNELS:
            assert np.array_equal(kernel(s).values, kernel(relabeled).values), name

    @given(random_texts, st.sampled_from("abcdefå"))
    @settings(max_examples=100, deadline=None)
    def test_prefix_stability_for_determined_positions(self, s, extra):
        # Appending a character can only change l_i at positions whose
        # match ran into the end of the sequence (the convention case);
        # everywhere else the value is final as soon as it is computed.
        n = len(s)
        for name, kernel in KERNELS:
            before = kernel(s).values
            after = kernel(s + extra).values
            for i, li in enumerate(before, start=1):
                if i + li - 1 <= n:
                    assert after[i - 1] == li, name

    def test_l1_is_always_one(self):
        for s in ("z", "zz", "montana bananas"):
            for name, kernel in KERNELS:
                assert kernel(s).values[0] == 1, name


class TestTwoPassReference:
    """Both kernels against the two-pass algorithm, past the naive oracle's reach.

    ``TestKernels.test_compiled_equals_python_beyond_naive_cap`` checks the
    same on 10^5-char iid, Fibonacci, run and Unicode inputs.
    """

    @pytest.mark.parametrize("mode", ["positional", "affixal"])
    def test_toy_replicate_texts(self, mode, monkeypatch):
        # The three texts measure_replicate sends to the kernel: the
        # original, its order variant and its structure variant.
        positional, affixal = toy_language_pair(0)
        spec = positional if mode == "positional" else affixal
        book = render_toy_corpus(spec, 1500, seed=0)
        texts: list[str] = []
        monkeypatch.setattr(measures, "match_lengths", lambda s: texts.append(s) or match_lengths(s))
        measure_replicate(book, 0, MeasureConfig())
        assert len(texts) == 3 and min(map(len, texts)) > 40_000
        for s in texts:
            expected = reference_two_pass_lengths(s)
            for name, kernel in KERNELS:
                assert kernel(s).values.tolist() == expected, name

    @given(st.one_of(random_texts, unicode_texts))
    @settings(max_examples=200, deadline=None)
    def test_random_strings(self, s):
        expected = reference_two_pass_lengths(s)
        for name, kernel in KERNELS:
            assert kernel(s).values.tolist() == expected, name


#: Reads cases from stdin, each an int64 n and n uint32 code points, and
#: writes each case's n int32 match lengths and their float64 entropy rate
#: to stdout. Buffers are sized exactly, so AddressSanitizer sees any read
#: or write past either end.
SANITIZER_DRIVER = r"""
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int match_lengths(const uint32_t *s, int64_t n, int32_t *out);
double entropy_rate(const int32_t *l, int64_t n);
int64_t results_scan(const char *s, int64_t start, int64_t len, int64_t max_field,
                     void *const *columns, int64_t *runs);

/* A results body in the plain form: three rows in two runs of ids. */
static const char BODY[] =
    "t1,l1,40,0,79351,1.06749,1.15045,1.1612,0.0829665,0.0937101\n"
    "t1,l1,41,0,79351,1.1266,1.20358,1.19486,0.0769766,1e-05\n"
    "t2,l1,40,2,1,0.000123456789012345,1e22,-0,1.23457e+06,-0.0833\n";
static const char QUOTED[] =
    "t1,l1,40,0,79351,1.06749,1.15045,1.1612,0.0829665,\"0.0937101\"\n";

/*
 * results_scan over an exactly sized copy of body[0..len), with exactly
 * sized columns: its row count, the last row's values in last[0..7] and
 * the run marks in runs[0..3 * rows].
 */
static int64_t scan_copy(const char *body, int64_t len, double *last, int64_t *runs)
{
    int64_t cap = 0;
    for (int64_t i = 0; i < len; i++)
        cap += body[i] == '\n';
    char *s = malloc((size_t)len);
    void *columns[8];
    int64_t *marks = malloc((size_t)(3 * cap + 1) * sizeof *marks);
    for (int c = 0; c < 8; c++)
        columns[c] = malloc((size_t)cap * 8);
    memcpy(s, body, (size_t)len);
    int64_t n = results_scan(s, 0, len, 131072, columns, marks);
    for (int c = 0; n > 0 && c < 8; c++)
        last[c] = c < 3 ? (double)((int64_t *)columns[c])[n - 1] : ((double *)columns[c])[n - 1];
    for (int64_t k = 0; n >= 0 && k < 3 * n + 1; k++)
        runs[k] = marks[k];
    for (int c = 0; c < 8; c++)
        free(columns[c]);
    free(marks);
    free(s);
    return n;
}

/* 0 if results_scan reads BODY and declines every cut of it and QUOTED. */
static int check_results_scan(void)
{
    const double want[8] = {40, 2, 1, 0.000123456789012345, 1e22, -0.0, 1.23457e+06, -0.0833};
    double last[8];
    int64_t runs[3 * 3 + 1], len = (int64_t)sizeof BODY - 1;
    if (scan_copy(BODY, len, last, runs) != 3 || memcmp(last, want, sizeof want) != 0)
        return 20;
    if (runs[0] != 0 || runs[3] != 2 || runs[6] != 3 || runs[4] - runs[1] != 116)
        return 21;
    for (int64_t cut = 0, rows = 0; cut < len; rows += BODY[cut++] == '\n')
        if (scan_copy(BODY, cut, last, runs) != (cut == 0 || BODY[cut - 1] == '\n' ? rows : -1))
            return 22;
    if (scan_copy(QUOTED, (int64_t)sizeof QUOTED - 1, last, runs) != -1)
        return 23;
    return 0;
}

int main(void)
{
    int rc = check_results_scan();
    if (rc != 0)
        return rc;
    int64_t n;
    while (fread(&n, sizeof n, 1, stdin) == 1) {
        uint32_t *s = malloc((size_t)n * sizeof *s);
        int32_t *out = malloc((size_t)n * sizeof *out);
        if (s == NULL || out == NULL || fread(s, sizeof *s, (size_t)n, stdin) != (size_t)n)
            return 3;
        int rc = match_lengths(s, n, out);
        if (rc != 0)
            return 10 + rc;
        double h = entropy_rate(out, n);
        fwrite(out, sizeof *out, (size_t)n, stdout);
        fwrite(&h, sizeof h, 1, stdout);
        free(s);
        free(out);
    }
    return 0;
}
"""


class TestKernels:
    def test_compiled_kernel_builds_where_a_compiler_exists(self):
        # Named by the source and the compiler command, as the manifest names it.
        assert re.fullmatch(r"_kernels-[0-9a-f]{16}\.so", Path(entropy.load_library()._name).name)

    def test_source_compiles_with_warnings_as_errors(self, tmp_path):
        cc = entropy._compiler()
        result = subprocess.run(
            [*cc, *entropy._KERNEL_CFLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernels.so"), str(entropy._KERNEL_SOURCE)],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("source", ["iid-k4", "fibonacci", "runs", "unicode-iid"])
    def test_compiled_equals_python_beyond_naive_cap(self, source):
        n = 100_000
        if source == "iid-k4":
            s = generate(uniform_iid(4), n, seed=5).chars
        elif source == "fibonacci":
            s = fibonacci_word(n)
        elif source == "runs":
            s = runs_text(n, seed=2)
        else:
            symbols = ["a", *entropy._ORACLE_EXTRA_SYMBOLS]
            draws = np.random.default_rng(9).integers(0, len(symbols), n)
            s = "".join(symbols[i] for i in draws)
        # The two-pass algorithm is a second oracle where the naive one is too slow.
        expected = reference_two_pass_lengths(s)
        for name, kernel in KERNELS:
            assert kernel(s).values.tolist() == expected, name

    def test_kernel_is_clean_under_address_and_undefined_sanitizers(self, tmp_path):
        cc = entropy._compiler()
        flags = ["-O1", "-g", "-fno-omit-frame-pointer",
                 "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        probe = tmp_path / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        linked = subprocess.run([*cc, *flags, "-o", str(tmp_path / "probe"), str(probe)],
                                capture_output=True, timeout=300)
        if linked.returncode != 0:
            pytest.skip(f"{cc[0]} cannot link the address and undefined sanitizers")
        driver = tmp_path / "driver.c"
        driver.write_text(SANITIZER_DRIVER)
        exe = tmp_path / "driver"
        build = subprocess.run(
            [*cc, *flags, "-Wall", "-Wextra", "-Werror", "-o", str(exe), str(driver),
             str(entropy._KERNEL_SOURCE), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        assert build.returncode == 0, build.stderr

        rng = random.Random(11)
        cases = [entropy._oracle_case(rng, 400, rng.randint(2, 30)) for _ in range(300)]
        cases += [fibonacci_word(100_000), runs_text(100_000, seed=3), "a", "\ud800"]
        # A book-sized table: toy affixal text, as analyze measures it.
        book = flatten(render_toy_corpus(toy_language_pair(0)[1], 2500, seed=0))
        assert len(book) >= 100_000
        cases.append(book)
        stdin = b"".join(
            np.int64(len(s)).tobytes() + s.encode("utf-32-le", "surrogatepass") for s in cases
        )
        # AddressSanitizer checks for leaks at exit by default on Linux.
        env = dict(os.environ, UBSAN_OPTIONS="print_stacktrace=1")
        run = subprocess.run([str(exe)], input=stdin, capture_output=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr.decode(errors="replace")[-3000:]
        assert run.stderr == b""
        assert len(run.stdout) == sum(4 * len(s) + 8 for s in cases)
        offset = 0
        for s in cases:
            got = np.frombuffer(run.stdout, dtype=np.int32, count=len(s), offset=offset)
            offset += 4 * len(s)
            (h,) = np.frombuffer(run.stdout, dtype=np.float64, count=1, offset=offset)
            offset += 8
            expected = reference.automaton_lengths(s)
            assert got.tolist() == expected, s[:40]
            # Cases shorter than an earlier one read the log2 table it grew.
            assert float(h).hex() == reference.entropy_rate(expected).hex(), s[:40]

    @pytest.mark.parametrize("failure", ["FileNotFoundError", "ValueError"])
    def test_failed_build_stops_the_kernel_commands(self, monkeypatch, caplog, tmp_path, failure):
        if failure == "FileNotFoundError":  # no compiler
            def no_compiler():
                raise FileNotFoundError(2, "No such file or directory", "cc")

            monkeypatch.setattr(entropy, "_build_library", no_compiler)
        else:  # a CC with an unbalanced quote, which shlex cannot split
            config = entropy.sysconfig.get_config_var
            monkeypatch.setattr(entropy.sysconfig, "get_config_var",
                                lambda name: 'gcc -DX="' if name == "CC" else config(name))
        entropy.load_library.cache_clear()
        cache = str(Path(entropy.__file__).parent / "__pycache__")
        analyze = ["analyze", *(str(GOLDEN / name) for name in CORPORA), "--format", "tsv",
                   "--books", "1", "--out", str(tmp_path / "out")]
        try:
            for argv in (analyze, ["oracle-check", "--count", "5"]):
                caplog.clear()
                assert cli.main(argv) == 1, argv
                (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
                assert failure in error and cache in error, argv
                assert repr(entropy._cc()) in error, argv
            assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
            # synth toy never loads the library, and stats reads results.csv
            # through the csv module when the library cannot be built.
            results = PBC / "expected" / "defaults" / "results.csv"
            assert cli.main(["stats", str(results), "--out", str(tmp_path / "stats")]) == 0
            for name in ("fits.csv", "corr_matrix.csv", "ranks.csv", "rank_hist.csv"):
                expected = (PBC / "expected" / "defaults" / name).read_bytes()
                assert (tmp_path / "stats" / name).read_bytes() == expected, name
            toy = tmp_path / "toy.tsv"
            argv = ["synth", "toy", "--mode", "positional", "--sentences", "300", "--out"]
            assert cli.main([*argv, str(toy)]) == 0
            assert toy.read_bytes() == (GOLDEN / "toy_positional.tsv").read_bytes()
        finally:
            entropy.load_library.cache_clear()

    def test_concurrent_first_builds_leave_one_library(self, tmp_path):
        # Fresh processes racing to build into an empty cache must each
        # load a whole library and leave one file behind, no temporaries.
        package = tmp_path / "wordtradeoff"
        shutil.copytree(
            Path(entropy.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        code = (
            "from wordtradeoff.entropy import match_lengths\n"
            "print(match_lengths('abab').values.tolist())"
        )
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        outputs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0, 0, 0]
        assert outputs == ["[1, 1, 3, 2]\n"] * 4
        built = [p.name for p in (package / "__pycache__").glob("_kernels*")]
        assert len(built) == 1 and built[0].endswith(".so")

    def test_inputs_beyond_compiled_limit_raise(self, monkeypatch):
        monkeypatch.setattr(entropy, "_C_MAX_N", 3)
        with pytest.raises(ValueError, match="compiled kernel takes 1..3 chars, got 4"):
            match_lengths("abab")
        assert match_lengths("aba").values.tolist() == [1, 1, 2]


def numpy_entropy_rate(values) -> float:
    """The estimate by the numpy formula ``entropy_rate`` used before its sum
    moved to C: the reference its two sums must stay within 1e-12 of."""
    n = len(values)
    terms = np.asarray(values, dtype=np.float64) / np.log2(np.arange(2, n + 2, dtype=np.float64))
    return n / float(np.sum(terms))


class TestEntropyRate:
    def test_single_char_is_one_bpc(self):
        assert entropy_rate(match_lengths("a")) == pytest.approx(1.0)

    def test_aaaa_value(self):
        # sum = 1/log2(2) + 2/log2(3) + 3/log2(4) + 2/log2(5)
        expected_sum = 1.0 + 2 / math.log2(3) + 1.5 + 2 / math.log2(5)
        h = entropy_rate(match_lengths("aaaa"))
        assert h == pytest.approx(4 / expected_sum, abs=1e-12)
        assert h == pytest.approx(0.8652, abs=5e-5)

    def test_distinct_characters_closed_form(self):
        s = "abcdefghij"
        n = len(s)
        expected = n / sum(1 / math.log2(i + 1) for i in range(1, n + 1))
        assert entropy_rate(match_lengths(s)) == pytest.approx(expected, abs=1e-12)

    def test_match_lengths_validation(self):
        with pytest.raises(ValueError):
            MatchLengths(())
        with pytest.raises(ValueError):
            MatchLengths((2, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 10**5, 10**6])
    def test_compiled_and_python_sums_agree_bit_for_bit(self, n):
        # Random lengths with l_1 = 1, up to the longest a book-sized text shows.
        draws = np.random.default_rng(n).integers(1, 200, n)
        draws[0] = 1
        ml = MatchLengths(draws.tolist())
        python = reference.entropy_rate(ml.values)
        numpy = numpy_entropy_rate(ml.values)
        assert abs(python - numpy) <= 1e-12 * numpy
        assert entropy_rate(ml).hex() == python.hex()


class TestOracleCheck:
    def test_default_small_run_passes(self):
        assert run_oracle_check(count=50, max_len=300, seed=7) is None

    def test_zero_cases_vacuous(self):
        def faulty(s):
            raise AssertionError("no case should run")

        assert run_oracle_check(count=0, fast_fn=faulty) is None

    @pytest.mark.parametrize("symbol", entropy._ORACLE_EXTRA_SYMBOLS)
    def test_fault_on_multibyte_or_surrogate_input_found(self, symbol):
        def faulty(s):
            ml = match_lengths_naive(s)
            if symbol in s:
                return MatchLengths(ml.values.tolist() + [1])
            return ml

        assert run_oracle_check(count=100, max_len=100, seed=3, fast_fn=faulty) == symbol

    def test_fault_on_long_runs_found(self):
        def faulty(s):
            ml = match_lengths_naive(s)
            if max(ml.values) > 40:
                return MatchLengths(ml.values.tolist() + [1])
            return ml

        # iid cases over 2..30 symbols almost never match 40 chars deep.
        counterexample = run_oracle_check(count=100, max_len=100, seed=4, fast_fn=faulty)
        assert counterexample is not None
        assert max(match_lengths_naive(counterexample).values) > 40

    def test_injected_fault_found_and_shrunk(self):
        def faulty(s):
            ml = match_lengths_naive(s)
            if len(ml.values) >= 3:
                values = list(ml.values)
                values[-1] += 1
                return MatchLengths(tuple(values))
            return ml

        counterexample = run_oracle_check(count=200, max_len=50, seed=1, fast_fn=faulty)
        assert counterexample is not None
        # Greedy shrinking should reach the smallest failing size.
        assert len(counterexample) == 3
