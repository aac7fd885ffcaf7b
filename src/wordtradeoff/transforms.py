"""Seeded destructive text transforms.

Three book variants feed the entropy comparison: the verse-shuffled
original, a word-order-destroyed version (tokens permuted within each
verse, scope ``"verse"``, or across the whole book, scope ``"book"``),
and a word-structure-masked version (every word type of length >= 2
replaced by a unique random same-length string over the book's own
alphabet). All transforms preserve the basic quantitative profile of
the text: character count, token count, per-token lengths and the
type-token frequency spectrum.

Randomization is bit-reproducible. Task seeds are derived from
(master seed, translation, book, replicate, purpose) by a documented
avalanche construction, and all draws come from a fixed xorshift64*
generator with unbiased rejection sampling; permutations use the
backward Fisher-Yates walk. The byte-level recipe lives in
``docs/seeds.md`` so independent implementations can agree exactly.

:class:`Xorshift64Star` is that generator: its permutations and draws
run in the compiled library that also holds the match-length kernel
(:func:`wordtradeoff.entropy.load_library`).

The order and structure transforms take the token list of the
flattened original (``flatten(book).split(" ")``) and return their
variant as a string in the same rendering, tokens joined by a space.
"""

from __future__ import annotations

import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

# bench/traced.py times ``flatten`` at this module's attribute as well.
from .corpus import Book, flatten  # noqa: F401
from .entropy import load_library

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15

PURPOSE_TAGS = ("verse_shuffle", "order_shuffle", "mask_draw")


class MaskSpaceExhaustedError(ValueError):
    """Too few mask characters to give every word type of some length a unique mask."""


def _mix64(z: int) -> int:
    # splitmix64 finalizer; full 64-bit avalanche.
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(
    master_seed: int, translation_id: str, book_id: int, replicate_index: int, purpose: str
) -> int:
    """Derive the 64-bit task seed of the task ``(master_seed, translation_id,
    book_id, replicate_index, purpose)``.

    The fields are serialized length-prefixed (see docs/seeds.md),
    hashed with 64-bit FNV-1a and finalized with the splitmix64
    avalanche; a zero result is replaced by a fixed nonzero constant so
    the stream generator is always valid.
    """
    if purpose not in PURPOSE_TAGS:
        raise ValueError(f"unknown purpose tag {purpose!r}")
    if replicate_index < 0:
        raise ValueError("replicate_index must be >= 0")
    blob = bytearray((master_seed & _MASK64).to_bytes(8, "little"))
    for part in (
        translation_id.encode("utf-8"),
        (book_id & _MASK64).to_bytes(8, "little"),
        (replicate_index & _MASK64).to_bytes(8, "little"),
        purpose.encode("utf-8"),
    ):
        blob += len(part).to_bytes(8, "little")
        blob += part
    h = _FNV_OFFSET
    for byte in blob:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return _mix64(h) or _GOLDEN


class Xorshift64Star:
    """xorshift64* stream generator (fixed constants 12, 25, 27).

    Every randomized transform in this package draws from this
    generator so runs are reproducible bit-for-bit across platforms and
    implementations. ``permutation`` and ``draws`` run in C: each takes
    ``state``, makes its draws and leaves the state after the last one.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or _GOLDEN

    def permutation(self, counts: Sequence[int]) -> list[int]:
        """``range(sum(counts))`` with each consecutive segment shuffled.

        Segment g holds the next ``counts[g]`` indices; the segments are
        shuffled in order by backward Fisher-Yates, all from this one stream.
        """
        try:  # the C function takes uint64 counts; the array refuses a negative one
            counts = array("Q", counts)
        except OverflowError:
            raise ValueError("segment counts must be >= 0") from None
        # The C function writes the identity permutation before shuffling it.
        perm = array("q", [0]) * sum(counts)
        self.state = load_library().shuffle_segments(
            self.state, counts.buffer_info()[0], len(counts), perm.buffer_info()[0]
        )
        return perm.tolist()

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` successive uniform draws from ``range(bound)``, by threshold
        rejection (no modulo bias)."""
        if not 1 <= bound < 1 << 64:
            raise ValueError("draws need 1 <= bound < 2**64")
        out = array("Q", [0]) * count
        self.state = load_library().randbelow_fill(self.state, bound, count, out.buffer_info()[0])
        return out.tolist()


@dataclass(frozen=True)
class MaskTable:
    """Word-type to mask assignment for one book.

    ``table`` maps each word type to its mask. Masks have the length of
    their type, are pairwise distinct, and are drawn from the characters
    of the word types bar whitespace and control characters. Types of
    length 1 carry no internal structure and are absent. The table alone
    is kept: the seed it was drawn with is ``derive_seed`` of the unit's key.
    """

    table: Mapping[str, str]


def shuffle_verses(book: Book, seed: int) -> Book:
    """Permute the verse order of a book (verse contents untouched)."""
    perm = Xorshift64Star(seed).permutation([len(book.verses)])
    return replace(book, verses=tuple(book.verses[i] for i in perm))


def destroy_word_order(tokens: Sequence[str], counts: Sequence[int], seed: int) -> str:
    """Permute token order, leaving every token itself intact.

    ``counts`` splits ``tokens`` into consecutive segments, each permuted
    on its own: one per verse (scope ``"verse"``) or one for the whole
    book (scope ``"book"``). The permuted tokens are joined by spaces,
    which equals laying them back into the verse slots and joining the
    verses, so the character count is unchanged in both scopes.
    """
    if sum(counts) != len(tokens):
        raise ValueError(f"segment counts sum to {sum(counts)}, not {len(tokens)} tokens")
    perm = Xorshift64Star(seed).permutation(counts)
    return " ".join([tokens[i] for i in perm])


def _maskable(char: str) -> bool:
    return char not in " \t\n\r" and unicodedata.category(char) != "Cc"


def build_mask_table(types: Iterable[str], seed: int) -> MaskTable:
    """Draw a unique equal-length mask for every word type of length >= 2.

    ``types`` are the book's distinct tokens; the mask alphabet is their
    characters minus whitespace and control characters, so a mask holds
    only characters the book has.

    Types are processed in code-point lexicographic order so the
    assignment does not depend on iteration order; each mask is drawn
    character by character from the mask alphabet with whole-mask
    rejection on collision. A pigeonhole check fails fast when some
    type length has more types than the alphabet can distinguish.
    """
    types = list(types)
    alpha = sorted(c for c in set("".join(types)) if _maskable(c))
    types = sorted(t for t in types if len(t) >= 2)
    by_length = Counter(len(t) for t in types)
    for length, count in sorted(by_length.items()):
        if len(alpha) ** length < count:
            raise MaskSpaceExhaustedError(
                f"cannot assign {count} distinct masks of length {length} over a "
                f"{len(alpha)}-character mask alphabet"
            )

    # Every draw of the table is randbelow(k) on one stream, so the draws
    # are made in bulk and each mask (or discarded mask) takes the next
    # len(word) of them.
    k = len(alpha)
    stream = Xorshift64Star(seed)

    def draw(count: int) -> str:
        return "".join([alpha[i] for i in stream.draws(k, count)])

    pool = draw(sum(map(len, types))) if types else ""
    pos = 0
    used: set[str] = set()
    table: dict[str, str] = {}
    for word in types:
        while True:
            if pos + len(word) > len(pool):
                pool = pool[pos:] + draw(len(word))
                pos = 0
            mask = pool[pos : pos + len(word)]
            pos += len(word)
            if mask not in used:
                break
        used.add(mask)
        table[word] = mask
    return MaskTable(table=table)


def mask_word_structure(tokens: Sequence[str], table: MaskTable) -> str:
    """Replace every token of a length >= 2 type by its mask, everywhere.

    Token positions and the spaces between them are untouched, so the
    character count, the per-token lengths and the frequency spectrum
    survive; only the internal make-up of words is destroyed.
    """
    masks = table.table
    try:
        return " ".join([masks[t] if len(t) >= 2 else t for t in tokens])
    except KeyError as exc:
        # The first uncovered token in text order.
        raise ValueError(
            f"token {exc.args[0]!r} is not covered by this mask table; the table "
            "was built from a different lexicon"
        ) from None
