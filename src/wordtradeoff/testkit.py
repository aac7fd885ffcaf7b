"""Synthetic sources and toy languages for estimator validation.

Two kinds of generators live here. Symbol sources (i.i.d. and
first-order Markov) have analytically known entropy rates and exercise
the convergence of the match-length estimator. The toy language
generator renders one underlying message stream in two surface styles:
a positional style (fixed agent-verb-patient order, bare word roots)
and an affixal style (random constituent order, roles marked by
suffixes). The first style carries its grammar in word order, the
second in word structure, so the trade-off measures should separate
them by direction.

Generation uses numpy's seeded generator; everything here is
deterministic in (spec, size, seed).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Book, Verse, VerseRef

#: Symbols used for synthetic streams, in alphabet-index order.
STREAM_SYMBOLS = string.ascii_lowercase + string.ascii_uppercase + string.digits

TOY_MODES = ("positional", "affixal")

#: Affixal role suffixes of agent, verb and patient.
ROLE_SUFFIXES = ("ak", "iz", "un")


@dataclass(frozen=True)
class SyntheticSource:
    """A stationary symbol source with a known entropy rate.

    An iid source has ``dist``, a first-order Markov chain ``transition``
    rows; ``h_true`` is the analytic rate in bits per symbol.
    """

    dist: tuple[float, ...] | None
    transition: tuple[tuple[float, ...], ...] | None
    h_true: float

    @property
    def k(self) -> int:
        return len(self.dist if self.transition is None else self.transition)


def _check_distribution(p: np.ndarray, what: str) -> None:
    # ``p >= 0`` is False for NaN, and an infinite entry makes the sum miss 1.
    if not np.all(p >= 0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError(f"{what} is not a probability distribution: {p}")


def _plogp_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def iid_source(dist: Sequence[float]) -> SyntheticSource:
    p = np.asarray(dist, dtype=np.float64)
    _check_distribution(p, "iid distribution")
    return SyntheticSource(dist=tuple(float(x) for x in p), transition=None, h_true=_plogp_bits(p))


def uniform_iid(k: int) -> SyntheticSource:
    return iid_source([1.0 / k] * k)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Fixed point of pi = pi P by power iteration to 1e-12."""
    k = transition.shape[0]
    pi = np.full(k, 1.0 / k)
    for _ in range(1_000_000):
        nxt = pi @ transition
        if float(np.max(np.abs(nxt - pi))) < 1e-12:
            return nxt
        pi = nxt
    raise ValueError("stationary distribution did not converge; is the chain periodic?")


def markov_source(transition: Sequence[Sequence[float]]) -> SyntheticSource:
    P = np.asarray(transition, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    for row in P:
        _check_distribution(row, "transition row")
    pi = stationary_distribution(P)
    h = float(sum(pi[i] * _plogp_bits(P[i]) for i in range(P.shape[0])))
    return SyntheticSource(
        dist=None, transition=tuple(tuple(float(x) for x in row) for row in P), h_true=h
    )


@dataclass(frozen=True)
class SymbolSequence:
    """A sampled symbol stream as one flat character sequence."""

    chars: str


def generate(source: SyntheticSource, n: int, seed: int) -> SymbolSequence:
    """Sample ``n`` symbols from the source as a flat character sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if source.k > len(STREAM_SYMBOLS):
        raise ValueError(f"alphabet size {source.k} exceeds {len(STREAM_SYMBOLS)}")
    rng = np.random.default_rng(seed)
    if source.transition is None:
        idx = rng.choice(source.k, size=n, p=np.asarray(source.dist))
    else:
        P = np.asarray(source.transition)
        cum = np.cumsum(P, axis=1)
        pi_cum = np.cumsum(stationary_distribution(P))
        u = rng.random(n)
        state = int(np.searchsorted(pi_cum, u[0], side="right"))
        # Every state's successor for every draw, computed up front as one
        # byte per draw (k <= 62): the walk then only indexes bytes, with
        # the same searchsorted result per step as a per-step search.
        successors = [
            np.searchsorted(cum[s], u, side="right").astype(np.uint8).tobytes()
            for s in range(source.k)
        ]
        walk = bytearray(n)
        walk[0] = state
        for t in range(1, n):
            state = successors[state][t]
            walk[t] = state
        idx = np.frombuffer(walk, dtype=np.uint8)
    symbols = np.frombuffer(
        STREAM_SYMBOLS[: source.k].encode("ascii"), dtype=np.uint8
    )
    return SymbolSequence(symbols[idx].tobytes().decode("ascii"))


@dataclass(frozen=True)
class ToyLanguageSpec:
    """Vocabulary and rendering style of a toy language.

    In ``positional`` mode every proposition is rendered as
    agent-verb-patient with bare roots; in ``affixal`` mode each
    constituent carries its role suffix (:data:`ROLE_SUFFIXES`) and the
    tokens of a verse are permuted. Roots must not end in any role
    suffix, otherwise the two styles would blur into each other.
    """

    agents: tuple[str, ...]
    verbs: tuple[str, ...]
    patients: tuple[str, ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in TOY_MODES:
            raise ValueError(f"unknown toy-language mode {self.mode!r}")
        if not (self.agents and self.verbs and self.patients):
            raise ValueError("vocabulary must be nonempty for every role")
        for root in self.agents + self.verbs + self.patients:
            if not root or " " in root:
                raise ValueError(f"bad root {root!r}")
            for suffix in ROLE_SUFFIXES:
                if root.endswith(suffix):
                    raise ValueError(
                        f"root {root!r} ends with role suffix {suffix!r}; "
                        "affixes must be disjoint from root-final substrings"
                    )


_CONSONANTS = "bdgklmnprst"
_VOWELS = "aeiou"


def default_toy_vocabulary(
    seed: int, n_agents: int = 10, n_verbs: int = 8, n_patients: int = 10
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Random pronounceable CVCV(+C) roots, unique and suffix-safe."""
    rng = np.random.default_rng([seed, 97])
    roots: list[str] = []
    seen: set[str] = set()
    while len(roots) < n_agents + n_verbs + n_patients:
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            parts.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
            parts.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
        root = "".join(parts)
        if root in seen or any(root.endswith(s) for s in ROLE_SUFFIXES):
            continue
        seen.add(root)
        roots.append(root)
    return (
        tuple(roots[:n_agents]),
        tuple(roots[n_agents : n_agents + n_verbs]),
        tuple(roots[n_agents + n_verbs :]),
    )


def toy_language_pair(
    seed: int, **vocab_kwargs
) -> tuple[ToyLanguageSpec, ToyLanguageSpec]:
    """Positional and affixal specs sharing one vocabulary."""
    agents, verbs, patients = default_toy_vocabulary(seed, **vocab_kwargs)
    make = lambda mode: ToyLanguageSpec(agents=agents, verbs=verbs, patients=patients, mode=mode)
    return make("positional"), make("affixal")


def render_toy_corpus(spec: ToyLanguageSpec, n_sentences: int, seed: int) -> Book:
    """Render ``n_sentences`` verses of book 1; one sentence of one to
    three propositions per verse.

    The message stream (which propositions occur) depends only on
    ``seed``, not on the mode, so a positional and an affixal corpus
    rendered with the same seed say the same thing.
    """
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    msg_rng = np.random.default_rng([seed, 0])
    order_rng = np.random.default_rng([seed, 1])
    verses = []
    for s_idx in range(1, n_sentences + 1):
        n_props = int(msg_rng.integers(1, 4))
        tokens: list[str] = []
        for _ in range(n_props):
            agent = spec.agents[int(msg_rng.integers(len(spec.agents)))]
            verb = spec.verbs[int(msg_rng.integers(len(spec.verbs)))]
            patient = spec.patients[int(msg_rng.integers(len(spec.patients)))]
            if spec.mode == "positional":
                tokens += [agent, verb, patient]
            else:
                tokens += [r + s for r, s in zip((agent, verb, patient), ROLE_SUFFIXES)]
        if spec.mode == "affixal":
            tokens = [tokens[i] for i in order_rng.permutation(len(tokens))]
        verses.append(Verse(VerseRef(1, 1, s_idx), " ".join(tokens)))
    return Book(
        book_id=1,
        verses=tuple(verses),
        translation_id=f"toy_{spec.mode}_{seed}",
        language=f"toy_{spec.mode}",
    )
