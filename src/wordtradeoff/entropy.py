"""Nonparametric entropy-rate estimation from match lengths.

For a character sequence c_1..c_N, the match length l_i is the length of
the shortest substring starting at position i that does not occur as a
substring of c_1..c_{i-1}. Conventions (used by both implementations):
l_1 = 1, and when every prefix of the remaining suffix occurs in the
preceding text, l_i is the suffix length plus one. Positions are
1-indexed in this description; matching operates on Unicode scalar
values, so a multi-byte character counts as one symbol.

The entropy rate in bits per character is estimated as

    h = [ (1/N) * sum_{i=1..N} l_i / log2(i+1) ]^{-1}

and :func:`entropy_rate` returns it as a float, summing the terms in
order from i = 1 (in C, in the library below). Long matches indicate
redundancy and drive the estimate down. There is no cap on how far back
a match may reach, so long-range repetition is fully credited.

The estimate converges almost surely to the true rate h (Kontoyiannis,
Algoet, Suhov & Wyner 1998, IEEE Trans. IT 44(3)), but it is biased at
finite N. For a source of rate h, E[l_i] ~ log2(i)/h + C with a constant
C that does not shrink with i; for an iid uniform source over k symbols
C = gamma/ln k + 1/2, gamma being Euler's constant (Szpankowski 1993,
IEEE Trans. IT 39(5)). Hence 1/h_N ~ 1/h + C * (1/N) sum 1/log2(i+1), an
under-estimate that decays like 1/log N: for iid uniform k=4 (h = 2
bits) the median estimate over 20 seeds is 1.818 bits at N = 10^6,
9.1% low.

Two algorithms are provided: a quadratic-time reference
(:func:`match_lengths_naive`, the oracle) and a near-linear one
(:func:`match_lengths`) that reads each l_i while a suffix automaton of
the text grows. Before c_i is added, the automaton holds exactly the
substrings of c_1..c_{i-1}, so a match read in it cannot overlap
position i. A clone split off the match state needs no special case: the
state's suffix link is then the clone, which the walk that drops c_i from
the match follows. They agree exactly on every input;
:func:`run_oracle_check` randomizes that comparison, over ASCII letters,
multi-byte, astral and surrogate symbols and U+0000, U+FFFE, U+FFFF and
U+10FFFF, and returns a shrunk counterexample or None.

The automaton runs as compiled C (``_kernels.c``, no Python headers,
called through ``ctypes``) on the UTF-32 bytes of the text, and writes
into an ``array("i")``. :class:`MatchLengths` holds the values as a
read-only ``memoryview``, which ``numpy.asarray`` reads as int32 without
a copy; nothing here imports numpy. The same library holds the sum of
:func:`entropy_rate`, the seeded draws of :mod:`wordtradeoff.transforms`
and the scan by which :func:`wordtradeoff.measures.read_results_csv`
reads a results file, and :func:`load_library` builds and loads it for
all of them. The first call in a process compiles it with the C compiler
Python was built with (``sysconfig`` ``CC``, else ``cc``) into the
package's ``__pycache__/`` under a name derived from the source and the
compiler command; later calls and later processes load that file. Where
no compiler is found, ``CC`` does not split into a command, or compiling
or loading fails, it raises :class:`KernelBuildError`, whose message says
why and what to install: only the results reader has another path (the
``csv`` module); the kernels and the draws have none. It raises
ValueError past ``_C_MAX_N`` (about 715M) characters.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import random
import shlex
import sysconfig
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_CFLAGS = ("-O2", "-shared", "-fPIC")
#: Libraries linked after the source: libm, for ``entropy_rate``'s log2.
_KERNEL_LIBS = ("-lm",)
#: Longest input the compiled kernel takes: its state and edge indices
#: (at most 2n + 2 and 3n + 3) are int32. Longer inputs raise ValueError.
_C_MAX_N = (2**31 - 1 - 3) // 3


@dataclass(frozen=True, eq=False)
class MatchLengths:
    """Per-position match lengths l_1..l_N.

    ``values`` is a read-only one-dimensional ``memoryview`` of format
    ``"i"`` (int32) over an ``array("i")``; any integer sequence given is
    copied into one.
    """

    values: memoryview

    def __post_init__(self) -> None:
        values = array("i", self.values)
        if not values:
            raise ValueError("empty match-length array")
        if values[0] != 1:
            raise ValueError("l_1 must be 1 for any nonempty sequence")
        object.__setattr__(self, "values", memoryview(values).toreadonly())


def _check_nonempty(s: str) -> None:
    if not s:
        raise ValueError("cannot compute match lengths of an empty sequence")


def match_lengths_naive(s: str) -> MatchLengths:
    """Reference implementation by direct substring search.

    O(N^2) and intended as the oracle for the fast path; do not use on
    book-sized inputs.
    """
    _check_nonempty(s)
    n = len(s)
    out = []
    for i in range(1, n + 1):
        prefix = s[: i - 1]
        avail = n - i + 1
        li = avail + 1
        for length in range(1, avail + 1):
            if prefix.find(s[i - 1 : i - 1 + length]) < 0:
                li = length
                break
        out.append(li)
    return MatchLengths(out)


def match_lengths(s: str) -> MatchLengths:
    """Fast match-length computation; output equals the naive version.

    Reads l_i in one pass: the (state, length) match of position i is
    extended in the suffix automaton of c_1..c_{i-1}, then c_i is added
    to the automaton and dropped from the front of the match by suffix
    links (see the module docstring). Work is near linear in N (amortized
    over suffix-link walks) regardless of how long the matches get.
    """
    _check_nonempty(s)
    n = len(s)
    if n > _C_MAX_N:
        raise ValueError(f"compiled kernel takes 1..{_C_MAX_N} chars, got {n}")
    # UTF-32 gives one code point per symbol; surrogatepass keeps the
    # lone surrogates a Python str may hold.
    codes = s.encode("utf-32-le", "surrogatepass")
    out = array("i", [0]) * n
    # With n checked above, the only failure left is allocation.
    if load_library().match_lengths(codes, n, out.buffer_info()[0]) != 0:
        raise MemoryError(f"match-length kernel could not allocate an automaton for {n} chars")
    return MatchLengths(out)


class KernelBuildError(RuntimeError):
    """The compiled kernels cannot be built or loaded; the message says why
    and what to install."""


@functools.lru_cache(maxsize=None)
def load_library() -> ctypes.CDLL:
    """The compiled library, built on the first call in a process.

    Raises :class:`KernelBuildError` if it cannot be built or loaded; the
    next call tries again.
    """
    try:
        return _build_library()
    # No compiler, a CC that shlex cannot split (ValueError: an unbalanced
    # quote), an unwritable cache or an unloadable library.
    except (OSError, ValueError) as exc:
        raise _build_error(exc) from exc


def _build_error(exc: Exception) -> KernelBuildError:
    """The error naming ``exc`` (with a compiler's stderr) and what to install."""
    detail = getattr(exc, "stderr", None) or str(exc)
    if isinstance(detail, bytes):
        detail = detail.decode("utf-8", "replace")
    return KernelBuildError(
        f"cannot build the compiled kernels ({type(exc).__name__}: "
        f"{' '.join(detail.split())[:300]}). Install a C compiler ({_cc()!r}: "
        "the CC Python was built with, else cc) and make "
        f"{_KERNEL_SOURCE.parent / '__pycache__'} writable."
    )


def _cc() -> str:
    """The C compiler command Python was built with, else ``cc``, unsplit."""
    return sysconfig.get_config_var("CC") or "cc"


def _compiler() -> list[str]:
    """:func:`_cc` as an argv; raises ValueError on an unbalanced quote."""
    return shlex.split(_cc())


def _build_library() -> ctypes.CDLL:
    """Compile ``_kernels.c`` once per source and flags, load it with ctypes."""
    command = (*_compiler(), *_KERNEL_CFLAGS)
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(
        source + "\0".join((*command, *_KERNEL_LIBS)).encode()
    ).hexdigest()[:16]
    cache = _KERNEL_SOURCE.parent / "__pycache__"
    library = cache / f"_kernels-{digest}.so"
    if not library.exists():
        import subprocess
        import tempfile

        cache.mkdir(exist_ok=True)
        # Compile to a private name and rename: concurrent builders (pool
        # workers, parallel test runs) never see a half-written library.
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            subprocess.run(
                [*command, "-o", tmp, str(_KERNEL_SOURCE), *_KERNEL_LIBS],
                check=True,
                capture_output=True,
                timeout=300,
            )
            os.replace(tmp, library)
        except subprocess.SubprocessError as exc:  # the compiler failed or timed out
            raise _build_error(exc) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    # Buffers go in as addresses (``array.buffer_info()[0]``) or bytes.
    lib = ctypes.CDLL(str(library))
    lib.match_lengths.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p]
    lib.match_lengths.restype = ctypes.c_int
    # entropy_rate keeps a log2 table between calls, so it runs holding the
    # GIL: a PyDLL handle on the same library does not release it.
    lib.entropy_rate = ctypes.PyDLL(str(library)).entropy_rate
    lib.entropy_rate.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.entropy_rate.restype = ctypes.c_double
    lib.shuffle_segments.argtypes = [
        ctypes.c_uint64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.shuffle_segments.restype = ctypes.c_uint64
    lib.randbelow_fill.argtypes = [
        ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.randbelow_fill.restype = ctypes.c_uint64
    lib.results_scan.argtypes = [
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    lib.results_scan.restype = ctypes.c_int64
    return lib


def entropy_rate(ml: MatchLengths) -> float:
    """The entropy-rate estimate, in bits per character, of a match-length array."""
    return load_library().entropy_rate(ml.values.obj.buffer_info()[0], len(ml.values))


#: Symbols every oracle alphabet may take besides ASCII letters: two- and
#: four-byte UTF-8 characters, a lone surrogate, which a Python str may
#: hold and the compiled kernel must pass through as its own code point,
#: and the code points at the edges of the kernel's inline slots: U+0000,
#: U+FFFE, U+FFFF (the free-slot mark) and U+10FFFF.
_ORACLE_EXTRA_SYMBOLS = ("é", "😀", "\ud800", "\x00", "\ufffe", "\uffff", "\U0010ffff")
#: Longest run or periodic oracle case. On these the naive oracle's work
#: grows with the square of the length, since every match runs to the end.
_ORACLE_STRUCTURED_MAX_LEN = 150
#: Shortest oracle case, and the smallest and largest oracle alphabets.
_ORACLE_MIN_LEN, _ORACLE_MIN_ALPHA, _ORACLE_MAX_ALPHA = 1, 2, 30


def _oracle_case(rng: random.Random, max_len: int, k: int) -> str:
    """One random oracle input over a k-symbol alphabet.

    Half the cases are iid draws; the others are runs of repeated
    symbols or a short word repeated with a few point changes, which
    drive the automaton's clone and suffix-link paths.
    """
    letters = [chr(ord("a") + j) for j in range(k)]
    alphabet = rng.sample([*_ORACLE_EXTRA_SYMBOLS, *letters], k)
    kind = rng.choice(("iid", "iid", "runs", "periodic"))
    if kind == "iid":
        n = rng.randint(_ORACLE_MIN_LEN, max_len)
        return "".join(rng.choice(alphabet) for _ in range(n))
    n = rng.randint(_ORACLE_MIN_LEN, min(max_len, _ORACLE_STRUCTURED_MAX_LEN))
    if kind == "runs":
        chars: list[str] = []
        while len(chars) < n:
            chars += rng.choice(alphabet) * rng.randint(1, n)
        return "".join(chars[:n])
    word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
    chars = list((word * (n // len(word) + 1))[:n])
    for _ in range(rng.randint(0, 2)):
        chars[rng.randrange(n)] = rng.choice(alphabet)
    return "".join(chars)


def run_oracle_check(
    count: int = 1000,
    max_len: int = 2000,
    seed: int = 0,
    fast_fn: Callable[[str], MatchLengths] = match_lengths,
) -> str | None:
    """Compare ``fast_fn`` with :func:`match_lengths_naive` on ``count``
    random sequences of at most ``max_len`` characters.

    Inputs mix iid strings, runs and near-periodic strings over alphabets
    drawn from ASCII letters and :data:`_ORACLE_EXTRA_SYMBOLS` (see
    :func:`_oracle_case`).

    Returns None if every case agrees (``count=0`` is a vacuous pass).
    Otherwise stops at the first mismatch and returns it greedily shrunk
    to a small counterexample (dropping characters while the
    disagreement persists).
    """
    rng = random.Random(seed)
    for _ in range(count):
        s = _oracle_case(rng, max_len, rng.randint(_ORACLE_MIN_ALPHA, _ORACLE_MAX_ALPHA))
        if fast_fn(s).values != match_lengths_naive(s).values:
            return _shrink_counterexample(s, fast_fn)
    return None


def _shrink_counterexample(s: str, fast_fn: Callable[[str], MatchLengths]) -> str:
    def disagrees(t: str) -> bool:
        if not t:
            return False
        return fast_fn(t).values != match_lengths_naive(t).values

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(s):
            candidate = s[:i] + s[i + 1 :]
            if disagrees(candidate):
                s = candidate
                changed = True
            else:
                i += 1
    return s
