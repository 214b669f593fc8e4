import pytest

from charnmt.errors import ConfigError
from charnmt.synth import (
    CIPHER,
    COPY_LINES,
    SOURCE_ALPHABET,
    TARGET_ALPHABET,
    copy_corpus,
    make_lexicon,
    split_pairs,
    transliterate,
    transliteration_corpus,
)

from conftest import copy_task_corpus


class TestCopyTask:
    def test_fixed_corpus_is_identity(self):
        pairs = copy_corpus()
        assert len(pairs) == len(COPY_LINES)
        assert all(src == tgt for src, tgt in pairs)

    def test_random_corpus_deterministic(self):
        assert copy_task_corpus(50, seed=3) == copy_task_corpus(50, seed=3)
        assert copy_task_corpus(50, seed=3) != copy_task_corpus(50, seed=4)

    def test_random_corpus_distinct_identity_pairs(self):
        pairs = copy_task_corpus(200)
        assert len({src for src, _ in pairs}) == 200
        assert all(src == tgt for src, tgt in pairs)

    def test_word_count_range_respected(self):
        for src, _ in copy_task_corpus(100, words_per_sentence=(2, 4)):
            assert 2 <= len(src.split()) <= 4

    def test_size_validated(self):
        with pytest.raises(ConfigError):
            copy_task_corpus(0)


class TestTransliteration:
    def test_cipher_is_a_bijection(self):
        assert sorted(CIPHER) == sorted(SOURCE_ALPHABET)
        assert sorted(CIPHER.values()) == sorted(TARGET_ALPHABET)
        assert len(set(CIPHER.values())) == len(CIPHER)

    def test_reference_transform(self):
        assert transliterate("ab cd") == "pq no"
        assert transliterate("j") == "w"

    def test_corpus_pairs_obey_transform(self):
        pairs = transliteration_corpus(100)
        assert all(tgt == transliterate(src) for src, tgt in pairs)
        # word reversal round trips
        for src, tgt in pairs[:10]:
            back = " ".join(reversed(tgt.split()))
            fwd = " ".join("".join(CIPHER[c] for c in w) for w in src.split())
            assert back == fwd

    def test_corpus_deterministic(self):
        assert transliteration_corpus(64) == transliteration_corpus(64)

    def test_lexicon_distinct_and_in_range(self):
        words = make_lexicon(30, 4, 6, seed=1)
        assert len(set(words)) == 30
        assert all(4 <= len(w) <= 6 for w in words)
        assert all(set(w) <= set(SOURCE_ALPHABET) for w in words)


class TestSplit:
    def test_tail_becomes_dev(self):
        pairs = [(str(i), str(i)) for i in range(10)]
        train, dev = split_pairs(pairs, 3)
        assert train == pairs[:7] and dev == pairs[7:]

    @pytest.mark.parametrize("held", [0, 10, 11])
    def test_bounds_rejected(self, held):
        pairs = [(str(i), str(i)) for i in range(10)]
        with pytest.raises(ConfigError):
            split_pairs(pairs, held)
