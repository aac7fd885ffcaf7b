"""Pure-Python twins of the compiled kernels, kept as test references.

``_kernels.c`` runs the match-length automaton, the ``entropy_rate`` sum
and the xorshift64* draws; the package has no other implementation. The
tests compare it with these, bit for bit: each follows the same steps
in Python. The module's name does not start with ``test_``, so pytest
does not collect it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def automaton_lengths(s: str) -> list[int]:
    """The one-pass suffix-automaton algorithm of ``entropy.match_lengths``."""
    n = len(s)

    # Transitions, suffix link and longest length per state; (v, match) is
    # the state of s[i:i+match] in the automaton of s[:i].
    nxt: list[dict[str, int]] = [{}]
    link = [-1]
    length = [0]
    last = v = match = 0
    out = [0] * n
    for i in range(n):
        while match < n - i:
            q = nxt[v].get(s[i + match])
            if q is None:
                break
            v = q
            match += 1
        out[i] = match + 1

        c = s[i]
        cur = len(nxt)
        nxt.append({})
        length.append(length[last] + 1)
        link.append(-1)
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
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur

        # Drop s[i]; if v was just split, its suffix link is the clone.
        if match > 0:
            match -= 1
            while v and length[link[v]] >= match:
                v = link[v]
    return out


def entropy_rate(values: Iterable[int]) -> float:
    """``n / sum(l_i / log2(i + 1))``, summed from i = 1 up, as ``_kernels.c`` sums it.

    An explicit loop: ``sum()`` of floats compensates its rounding on
    Python 3.12 and later, and would give other bits than the C loop.
    """
    total = 0.0
    n = 0
    for n, li in enumerate(values, start=1):
        total += li / math.log2(n + 1)
    return n / total


class Xorshift64Star:
    """The xorshift64* stream of docs/seeds.md sections 2-4, draw by draw."""

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or _GOLDEN

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * self.MULTIPLIER) & _MASK64

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by threshold rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, counts: Sequence[int]) -> list[int]:
        """``range(sum(counts))`` with each consecutive segment shuffled in order."""
        perm: list[int] = []
        for count in counts:
            if count < 0:
                raise ValueError("segment counts must be >= 0")
            segment = list(range(len(perm), len(perm) + count))
            self.shuffle(segment)
            perm += segment
        return perm

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` successive ``randbelow(bound)`` draws."""
        return [self.randbelow(bound) for _ in range(count)]
