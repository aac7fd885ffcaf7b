"""Seed derivation, the documented PRNG, and the destructive transforms."""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import random_book
from wordtradeoff.corpus import Book, Verse, VerseRef, flatten
from wordtradeoff.measures import MeasureConfig
from wordtradeoff.transforms import (
    MaskSpaceExhaustedError,
    Xorshift64Star,
    build_mask_table,
    derive_seed,
    destroy_word_order,
    mask_word_structure,
    shuffle_verses,
)

SONG_LINE = "i said i just dropped in to see what condition my condition was in"
SONG_SHUFFLED = "condition said was i in what dropped i my see to in condition just"


def one_verse_book(text, book_id=40):
    return Book(
        book_id=book_id,
        verses=(Verse(VerseRef(book_id, 1, 1), text),),
        translation_id="t",
        language="und",
    )


def verse_counts(book):
    """Per-verse token counts: the segments of the ``"verse"`` order scope."""
    return [len(v.text.split(" ")) for v in book.verses]


class TestSeedDerivation:
    BASE = (7, "deu_x", 40, 0, "verse_shuffle")

    def test_identical_specs_identical_seeds(self):
        assert derive_seed(*self.BASE) == derive_seed(7, "deu_x", 40, 0, "verse_shuffle")

    def test_replicates_all_distinct(self):
        seeds = {
            derive_seed(7, "deu_x", 40, r, "verse_shuffle")
            for r in range(1000)
        }
        assert len(seeds) == 1000

    def test_purpose_tags_distinct(self):
        seeds = {
            derive_seed(7, "deu_x", 40, 0, p)
            for p in ("verse_shuffle", "order_shuffle", "mask_draw")
        }
        assert len(seeds) == 3

    def test_translation_and_book_distinct(self):
        a = derive_seed(7, "deu_x", 40, 0, "verse_shuffle")
        b = derive_seed(7, "deu_y", 40, 0, "verse_shuffle")
        c = derive_seed(7, "deu_x", 41, 0, "verse_shuffle")
        assert len({a, b, c}) == 3

    def test_length_prefixing_prevents_field_bleed(self):
        # "ab" + book 1 vs "a" + ... must not collide via concatenation.
        a = derive_seed(0, "ab", 1, 0, "mask_draw")
        b = derive_seed(0, "a", 1, 0, "mask_draw")
        assert a != b

    def test_bad_purpose_rejected(self):
        with pytest.raises(ValueError, match="unknown purpose tag 'frobnicate'"):
            derive_seed(0, "t", 40, 0, "frobnicate")

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicate_index must be >= 0"):
            derive_seed(0, "t", 40, -1, "verse_shuffle")

    def test_result_is_64_bit(self):
        s = derive_seed(*self.BASE)
        assert 0 < s < 2**64


class TestXorshift:
    def test_deterministic_stream(self):
        a = Xorshift64Star(42)
        b = Xorshift64Star(42)
        assert a.draws(2**64 - 1, 20) == b.draws(2**64 - 1, 20)

    def test_zero_seed_is_usable(self):
        rng = Xorshift64Star(0)
        assert rng.state != 0
        assert 0 <= rng.draws(2**64 - 1, 1)[0] < 2**64

    def test_randbelow_bounds_and_determinism(self):
        draws = Xorshift64Star(9).draws(13, 500)
        assert all(0 <= d < 13 for d in draws)
        assert len(set(draws)) == 13  # all residues show up over 500 draws
        assert draws == Xorshift64Star(9).draws(13, 500)

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Xorshift64Star(1).draws(0, 1)

    def test_shuffle_is_permutation(self):
        perm = Xorshift64Star(5).permutation([50])
        assert sorted(perm) == list(range(50))
        assert perm != list(range(50))


def make_stream(kind, seed):
    """The Python reference stream or the package's compiled one."""
    return (reference.Xorshift64Star if kind == "python" else Xorshift64Star)(seed)


STREAM_KINDS = ("python", "compiled")


def reference_mask_table(types, seed):
    """``build_mask_table``'s recipe on the reference stream, one ``randbelow``
    per mask character, for types of maskable characters only."""
    alpha = sorted(set("".join(types)))
    rng = reference.Xorshift64Star(seed)
    table, used = {}, set()
    for word in sorted(t for t in set(types) if len(t) >= 2):
        while True:
            mask = "".join(alpha[rng.randbelow(len(alpha))] for _ in word)
            if mask not in used:
                break
        used.add(mask)
        table[word] = mask
    return table


class TestSeedVectors:
    """The test vectors of docs/seeds.md section 7, for both implementations."""

    SEED = 0x3366E93FE77FBAF5

    def test_derive_seed(self):
        # The task tuple by the names of section 1.
        assert derive_seed(
            master_seed=2016, translation_id="deu_x", book_id=40,
            replicate_index=1, purpose="order_shuffle",
        ) == self.SEED

    def test_first_outputs(self):
        rng = reference.Xorshift64Star(self.SEED)
        assert [rng.next_u64() for _ in range(5)] == [
            0xF3D485C3F9990637,
            0x55D7A99B9F329331,
            0xFDD95AA8A29D5557,
            0xF0BBE0648F7BC222,
            0x0D98D21730B1633F,
        ]

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_randbelow_power_of_two(self, kind):
        rng = make_stream(kind, self.SEED)
        assert rng.draws(16, 8) == [7, 1, 7, 2, 15, 6, 4, 6]
        assert rng.state == 0x17B17CACFCDEC91E

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_randbelow_half_rejected(self, kind):
        rng = make_stream(kind, self.SEED)
        assert rng.draws(2**63 + 1, 4) == [
            6185599099072582449,
            979763915996095295,
            1258537110820010022,
            3906334213700664500,
        ]
        assert rng.state == 0x38DB13A68E99B544

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_per_verse_permutation(self, kind):
        rng = make_stream(kind, self.SEED)
        assert rng.permutation([3, 1, 5]) == [0, 2, 1, 3, 5, 4, 7, 6, 8]
        assert rng.state == 0x7E2F06D314CA8DDE


class TestCompiledStream:
    """The compiled draws equal the Python reference, draw for draw."""

    LENGTHS = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257, 1000)

    def test_permutations_and_states_agree(self):
        rng = random.Random(11)
        for _ in range(200):
            seed = rng.getrandbits(64)
            counts = [rng.choice(self.LENGTHS) for _ in range(rng.randint(0, 12))]
            python, compiled = make_stream("python", seed), make_stream("compiled", seed)
            perm = python.permutation(counts)
            assert compiled.permutation(counts) == perm, (seed, counts)
            assert compiled.state == python.state, (seed, counts)
            assert sorted(perm) == list(range(sum(counts)))

    def test_draws_and_states_agree(self):
        rng = random.Random(12)
        bounds = [1, 2, 3, 7, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 2**64 - 1]
        for _ in range(200):
            seed = rng.getrandbits(64)
            bound = rng.choice(bounds + [rng.randint(1, 10**6)])
            count = rng.randint(0, 300)
            python, compiled = make_stream("python", seed), make_stream("compiled", seed)
            assert compiled.draws(bound, count) == python.draws(bound, count), (seed, bound)
            assert compiled.state == python.state, (seed, bound)

    def test_interleaves_with_python_draws(self):
        # The compiled stream resumes from any state the reference leaves.
        python, compiled = make_stream("python", 5), make_stream("compiled", 5)
        python.next_u64()
        compiled.state = python.state
        assert compiled.permutation([4, 7]) == python.permutation([4, 7])
        python.next_u64()
        compiled.state = python.state
        assert compiled.draws(10, 5) == python.draws(10, 5)
        assert compiled.state == python.state

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_bad_arguments_rejected(self, kind):
        rng = make_stream(kind, 1)
        with pytest.raises(ValueError):
            rng.permutation([2, -1])
        with pytest.raises(ValueError):
            rng.draws(0, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_transforms_agree_without_the_library(self, seed):
        # Each transform equals its recipe run on the Python reference stream.
        book = random_book(seed, max_verses=30)
        tokens = flatten(book).split(" ")
        perm = reference.Xorshift64Star(seed).permutation([len(book.verses)])
        assert shuffle_verses(book, seed).verses == tuple(book.verses[i] for i in perm)
        for counts in (verse_counts(book), [len(tokens)]):
            perm = reference.Xorshift64Star(seed).permutation(counts)
            assert destroy_word_order(tokens, counts, seed) == " ".join(tokens[i] for i in perm)
        table = build_mask_table(dict.fromkeys(tokens), seed)
        assert table.table == reference_mask_table(tokens, seed)


class TestShuffleVerses:
    def test_single_verse_unchanged(self):
        book = one_verse_book("hello there")
        assert shuffle_verses(book, 42).verses == book.verses

    def test_multiset_preserved_and_contents_identical(self):
        book = random_book(3, max_verses=10)
        out = shuffle_verses(book, 42)
        assert Counter(v.text for v in out.verses) == Counter(v.text for v in book.verses)
        assert set(out.verses) == set(book.verses)

    def test_fixed_seed_reproducible(self):
        book = random_book(4, max_verses=5)
        assert shuffle_verses(book, 42).verses == shuffle_verses(book, 42).verses

    def test_different_seeds_differ(self):
        book = random_book(5, max_verses=12)
        a = shuffle_verses(book, 1).verses
        b = shuffle_verses(book, 2).verses
        assert a != b


class TestDestroyWordOrder:
    def test_song_line_token_multiset(self):
        tokens = SONG_LINE.split(" ")
        variant = destroy_word_order(tokens, [len(tokens)], seed=123)
        out_tokens = variant.split(" ")
        assert len(out_tokens) == 14
        assert Counter(out_tokens) == Counter(SONG_LINE.split(" "))
        assert Counter(out_tokens) == Counter(SONG_SHUFFLED.split(" "))

    def test_single_token_verse_unchanged(self):
        assert destroy_word_order(["hello"], [1], 1) == "hello"

    def test_per_verse_counts_preserved(self):
        book = random_book(11, max_verses=8)
        variant = destroy_word_order(flatten(book).split(" "), verse_counts(book), 99)
        original = [v.text.split(" ") for v in book.verses]
        # Reconstruct per-verse token lists from the flattened output.
        out_iter = iter(variant.split(" "))
        for verse_tokens in original:
            got = [next(out_iter) for _ in verse_tokens]
            assert Counter(got) == Counter(verse_tokens)

    def test_per_book_scope_preserves_global_multiset_and_n(self):
        book = random_book(12, max_verses=8)
        before = flatten(book)
        tokens = before.split(" ")
        variant = destroy_word_order(tokens, [len(tokens)], 99)
        assert len(variant) == len(before)
        assert Counter(variant.split(" ")) == Counter(
            before.split(" ")
        )

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            MeasureConfig(order_scope="per_book")

    def test_counts_must_cover_the_tokens(self):
        for counts in ([1], [2, 2], [1, 1]):
            with pytest.raises(ValueError, match="segment counts"):
                destroy_word_order(["a", "b", "c"], counts, 0)

    def test_determinism(self):
        book = random_book(13)
        tokens = flatten(book).split(" ")
        a = destroy_word_order(tokens, verse_counts(book), 7)
        b = destroy_word_order(tokens, verse_counts(book), 7)
        assert a == b


class TestMaskTable:
    def test_single_char_types_absent(self):
        table = build_mask_table({"i": 2, "said": 1, "in": 2}, seed=1)
        assert "i" not in table.table
        assert set(table.table) == {"said", "in"}

    def test_masks_distinct_equal_length(self):
        table = build_mask_table(["ab", "cd"], seed=3)
        masks = list(table.table.values())
        assert len(masks) == 2 and masks[0] != masks[1]
        assert all(len(m) == 2 for m in masks)
        assert all(set(m) <= set("abcd") for m in masks)

    def test_pigeonhole_exhaustion(self):
        # 17 distinct length-2 types; \x01 is no mask character, so the
        # mask alphabet has 4 characters. Only unmaskable characters can
        # make more types of one length than there are masks.
        types = [a + b for a in "abcd" for b in "abcd"] + ["a\x01"]
        with pytest.raises(MaskSpaceExhaustedError) as err:
            build_mask_table(types, seed=0)
        assert str(err.value) == (
            "cannot assign 17 distinct masks of length 2 over a 4-character mask alphabet"
        )

    def test_exhaustion_error_survives_pickle(self):
        # A library caller's process pool sends the error back by pickle.
        with pytest.raises(MaskSpaceExhaustedError) as err:
            build_mask_table(["a\x01", "\x01a"], seed=0)
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is MaskSpaceExhaustedError
        assert str(copy) == str(err.value) == (
            "cannot assign 2 distinct masks of length 2 over a 1-character mask alphabet"
        )

    def test_space_excluded_from_mask_alphabet(self):
        # 16 length-2 types over 4 usable characters take all 16 masks, so
        # every usable character is drawn; with the whitespace and control
        # characters of the length-3 types usable too, some would be drawn
        # almost surely.
        types = [a + b for a in "abcd" for b in "abcd"]
        types += ["a b", "b\tc", "c\nd", "d\ra", "a\x01b"]
        table = build_mask_table(types, seed=0)
        assert set("".join(table.table.values())) == set("abcd")

    def test_assignment_independent_of_iteration_order(self):
        types_a = ["bb", "aa", "cc"]
        types_b = ["cc", "bb", "aa"]
        ta = build_mask_table(types_a, seed=5)
        tb = build_mask_table(types_b, seed=5)
        assert ta.table == tb.table

    def test_deterministic_under_seed(self):
        lex = {"alpha": 1, "beta": 2, "gamma": 1}
        a = build_mask_table(lex, seed=8)
        b = build_mask_table(lex, seed=8)
        assert a.table == b.table

    def test_tight_capacity_still_terminates(self):
        # Exactly as many length-2 types as the alphabet can express.
        types = [a + b for a in "ab" for b in "ab"]
        table = build_mask_table(types, seed=0)
        assert sorted(table.table.values()) == sorted(types)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_per_character_reference(self, seed):
        # Nearly full mask spaces force many whole-mask redraws. The types
        # hold every character of the alphabet.
        alpha = "abc"
        types = [a + b for a in alpha for b in alpha][seed % 3 :]
        types += [a + b + c for a in alpha for b in alpha for c in alpha][: 20 + seed]
        assert build_mask_table(types, seed).table == reference_mask_table(types, seed)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_maskable_types_always_masked_over_their_characters(self, data):
        # Types of maskable characters never outnumber the masks of their
        # length, since the mask alphabet holds all of their characters.
        chars = data.draw(
            st.lists(
                st.characters(exclude_categories=("Cc", "Cs"), exclude_characters=" "),
                min_size=1, max_size=4, unique=True,
            )
        )
        types = data.draw(st.lists(st.text(st.sampled_from(chars), min_size=1, max_size=3),
                                   unique=True))
        seed = data.draw(st.integers(0, 2**64 - 1))
        table = build_mask_table(types, seed).table
        assert set(table) == {t for t in types if len(t) >= 2}
        assert len(set(table.values())) == len(table)
        for word, mask in table.items():
            assert len(mask) == len(word)
            assert set(mask) <= set("".join(types))


class TestMaskWordStructure:
    def test_repeated_type_same_mask_everywhere(self):
        tokens = SONG_LINE.split(" ")
        table = build_mask_table(dict.fromkeys(tokens), seed=77)
        variant = mask_word_structure(tokens, table)
        out = variant.split(" ")
        src = SONG_LINE.split(" ")
        cond_positions = [i for i, t in enumerate(src) if t == "condition"]
        assert len(cond_positions) == 2
        assert out[cond_positions[0]] == out[cond_positions[1]]
        assert len(out[cond_positions[0]]) == len("condition")
        # "i" is one character long, hence never masked
        for i, t in enumerate(src):
            if t == "i":
                assert out[i] == "i"

    def test_all_single_char_book_identical(self):
        tokens = "a b c a".split(" ")
        table = build_mask_table(dict.fromkeys(tokens), seed=1)
        assert mask_word_structure(tokens, table) == "a b c a"

    def test_word_length_histogram_preserved(self):
        book = random_book(21)
        text = flatten(book)
        tokens = text.split(" ")
        table = build_mask_table(dict.fromkeys(tokens), seed=2)
        out = mask_word_structure(tokens, table)
        assert Counter(map(len, out.split(" "))) == Counter(
            map(len, text.split(" "))
        )

    def test_frequency_spectrum_preserved(self):
        book = random_book(22)
        text = flatten(book)
        tokens = text.split(" ")
        table = build_mask_table(dict.fromkeys(tokens), seed=3)
        out = mask_word_structure(tokens, table)
        assert sorted(Counter(out.split(" ")).values()) == sorted(
            Counter(text.split(" ")).values()
        )

    def test_inverse_recovers_original(self):
        book = random_book(23)
        text = flatten(book)
        tokens = text.split(" ")
        table = build_mask_table(dict.fromkeys(tokens), seed=4)
        masked = mask_word_structure(tokens, table)
        inverse = {mask: word for word, mask in table.table.items()}
        restored = " ".join(
            inverse.get(t, t) if len(t) >= 2 else t for t in masked.split(" ")
        )
        assert restored == text

    def test_token_outside_table_is_error(self):
        table = build_mask_table({"known": 1}, seed=0)
        with pytest.raises(ValueError, match="not covered"):
            mask_word_structure("known words here".split(" "), table)


class TestVariantInvariants:
    @given(st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=120, deadline=None)
    def test_n_token_count_and_lengths_invariant(self, seed):
        book = random_book(seed)
        text = flatten(book)
        token_lengths = [len(t) for t in text.split(" ")]

        shuffled = shuffle_verses(book, seed)
        base = flatten(shuffled)
        tokens = base.split(" ")
        order = destroy_word_order(tokens, verse_counts(shuffled), seed + 1)
        table = build_mask_table(dict.fromkeys(text.split(" ")), seed + 2)
        masked = mask_word_structure(tokens, table)

        for variant in (base, order, masked):
            assert len(variant) == len(text)
            out_lengths = [len(t) for t in variant.split(" ")]
            assert len(out_lengths) == len(token_lengths)
            assert sorted(out_lengths) == sorted(token_lengths)
