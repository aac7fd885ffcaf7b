"""Synthetic sources and the toy analytic/affixal language generator."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from wordtradeoff.corpus import flatten
from wordtradeoff.testkit import (
    ROLE_SUFFIXES,
    STREAM_SYMBOLS,
    SyntheticSource,
    ToyLanguageSpec,
    default_toy_vocabulary,
    generate,
    iid_source,
    markov_source,
    render_toy_corpus,
    stationary_distribution,
    toy_language_pair,
    uniform_iid,
)


def generate_markov_reference(source: SyntheticSource, n: int, seed: int) -> str:
    """The per-step searchsorted walk that ``generate`` replaced."""
    rng = np.random.default_rng(seed)
    P = np.asarray(source.transition)
    cum = np.cumsum(P, axis=1)
    pi_cum = np.cumsum(stationary_distribution(P))
    u = rng.random(n)
    idx = np.empty(n, dtype=np.int64)
    state = int(np.searchsorted(pi_cum, u[0], side="right"))
    idx[0] = state
    rows = [cum[i] for i in range(source.k)]
    for t in range(1, n):
        state = int(np.searchsorted(rows[state], u[t], side="right"))
        idx[t] = state
    return "".join(STREAM_SYMBOLS[i] for i in idx)


class TestSources:
    def test_uniform_iid_entropy(self):
        assert uniform_iid(4).h_true == pytest.approx(2.0, abs=1e-12)

    def test_single_symbol_source(self):
        src = uniform_iid(1)
        assert src.h_true == 0.0
        seq = generate(src, 200, seed=0)
        assert seq.chars == "a" * 200

    def test_markov_entropy_is_binary_entropy(self):
        # Symmetric chain: H = -p log2 p - (1-p) log2 (1-p) at p = 0.1.
        p = 0.1
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        src = markov_source([[0.9, 0.1], [0.1, 0.9]])
        assert src.h_true == pytest.approx(expected, abs=1e-9)
        assert src.h_true == pytest.approx(0.469, abs=5e-4)

    def test_h_true_matches_independent_recomputation(self):
        P = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        src = markov_source(P)
        pi = stationary_distribution(P)
        expected = 0.0
        for i in range(3):
            for j in range(3):
                if P[i, j] > 0:
                    expected -= pi[i] * P[i, j] * math.log2(P[i, j])
        assert src.h_true == pytest.approx(expected, abs=1e-9)

    def test_stationary_distribution_is_fixed_point(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(P)
        assert np.allclose(pi @ P, pi, atol=1e-11)
        assert pi.sum() == pytest.approx(1.0, abs=1e-11)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            iid_source([0.5, 0.4])
        with pytest.raises(ValueError):
            markov_source([[0.9, 0.2], [0.5, 0.5]])

    def test_empirical_frequencies_converge(self):
        seq = generate(uniform_iid(4), 100_000, seed=11)
        counts = Counter(seq.chars)
        for symbol in "abcd":
            assert counts[symbol] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_generation_deterministic(self):
        src = markov_source([[0.9, 0.1], [0.1, 0.9]])
        assert generate(src, 5000, seed=3).chars == generate(src, 5000, seed=3).chars
        assert generate(src, 5000, seed=3).chars != generate(src, 5000, seed=4).chars

    @pytest.mark.parametrize(
        "transition",
        [
            [[0.9, 0.1], [0.1, 0.9]],
            [[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
            [[1 / 7] * 7] * 7,
            [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.2, 0.0, 0.8]],
        ],
        ids=["binary", "three-state", "uniform-7", "zero-transitions"],
    )
    def test_markov_walk_equals_reference_loop(self, transition):
        src = markov_source(transition)
        for seed in range(4):
            assert generate(src, 20_000, seed).chars == generate_markov_reference(
                src, 20_000, seed
            )

    def test_markov_empirical_transitions(self):
        src = markov_source([[0.9, 0.1], [0.1, 0.9]])
        chars = generate(src, 100_000, seed=5).chars
        stays = sum(1 for a, b in zip(chars, chars[1:]) if a == b)
        assert stays / (len(chars) - 1) == pytest.approx(0.9, abs=0.01)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate(uniform_iid(2), 0, seed=0)


class TestToyLanguage:
    def test_positional_template_order(self):
        spec, _ = toy_language_pair(seed=0)
        book = render_toy_corpus(spec, 40, seed=1)
        for verse in book.verses:
            tokens = verse.text.split(" ")
            assert len(tokens) % 3 == 0
            for i in range(0, len(tokens), 3):
                assert tokens[i] in spec.agents
                assert tokens[i + 1] in spec.verbs
                assert tokens[i + 2] in spec.patients

    def test_affixal_tokens_carry_role_suffixes(self):
        _, spec = toy_language_pair(seed=0)
        book = render_toy_corpus(spec, 40, seed=1)
        for verse in book.verses:
            for token in verse.text.split(" "):
                assert any(token.endswith(s) for s in ROLE_SUFFIXES)

    def test_same_message_stream_across_modes(self):
        positional, affixal = toy_language_pair(seed=2)
        pos_book = render_toy_corpus(positional, 30, seed=9)
        aff_book = render_toy_corpus(affixal, 30, seed=9)
        for pv, av in zip(pos_book.verses, aff_book.verses):
            pos_roots = Counter(pv.text.split(" "))
            aff_roots = Counter()
            for token in av.text.split(" "):
                for suffix in ROLE_SUFFIXES:
                    if token.endswith(suffix):
                        aff_roots[token[: -len(suffix)]] += 1
                        break
            assert aff_roots == pos_roots

    def test_root_suffix_collision_rejected(self):
        with pytest.raises(ValueError, match="role suffix"):
            ToyLanguageSpec(
                agents=("banak",),  # ends with the agent suffix "ak"
                verbs=("tiri",),
                patients=("mopo",),
                mode="positional",
            )

    def test_vocabulary_deterministic_and_suffix_safe(self):
        a1, v1, p1 = default_toy_vocabulary(5)
        a2, v2, p2 = default_toy_vocabulary(5)
        assert (a1, v1, p1) == (a2, v2, p2)
        for root in a1 + v1 + p1:
            assert not any(root.endswith(s) for s in ("ak", "iz", "un"))

    def test_render_deterministic(self):
        spec, _ = toy_language_pair(seed=3)
        b1 = render_toy_corpus(spec, 20, seed=7)
        b2 = render_toy_corpus(spec, 20, seed=7)
        assert b1 == b2

    def test_comparable_sizes_across_modes(self):
        positional, affixal = toy_language_pair(seed=4)
        pos = flatten(render_toy_corpus(positional, 100, seed=0))
        aff = flatten(render_toy_corpus(affixal, 100, seed=0))
        assert len(pos.split(" ")) == len(aff.split(" "))
        assert 1.0 < len(aff) / len(pos) < 1.7  # suffixes add a bounded overhead

    def test_invalid_spec_params(self):
        with pytest.raises(ValueError):
            ToyLanguageSpec(agents=(), verbs=("a",), patients=("b",), mode="positional")
        with pytest.raises(ValueError, match="mode"):
            ToyLanguageSpec(agents=("ba",), verbs=("ti",), patients=("mo",), mode="free")
