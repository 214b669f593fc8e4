"""Synthetic corpora: a tiny copy task and a transliteration task.

The copy task is eight fixed sentence pairs whose target equals the source;
a working model should drive its NLL to near zero and reproduce every line.
The transliteration task maps each source character through a fixed cipher
and reverses the word order, so correct output demands character-exact
spelling over sequences several times longer than the subword source.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

COPY_LINES = (
    "ab ba",
    "abc cab",
    "ba ab ba",
    "cab abc",
    "bc cb ab",
    "ac ca",
    "cba bac",
    "ab cb ba ca",
)

SOURCE_ALPHABET = "abcdefghij"
TARGET_ALPHABET = "nopqrstuvw"
CIPHER = dict(zip(SOURCE_ALPHABET, TARGET_ALPHABET))


def copy_corpus() -> list[tuple[str, str]]:
    return [(line, line) for line in COPY_LINES]


def make_lexicon(n_words: int = 40, min_len: int = 5, max_len: int = 8,
                 seed: int = 7) -> list[str]:
    """Distinct random words over the source alphabet."""
    rng = np.random.default_rng(seed)
    letters = np.array(list(SOURCE_ALPHABET))
    words: list[str] = []
    seen = set()
    while len(words) < n_words:
        length = int(rng.integers(min_len, max_len + 1))
        word = "".join(letters[rng.integers(0, len(letters), size=length)])
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def transliterate(line: str) -> str:
    """Reference transform: cipher every character, reverse the word order."""
    words = ["".join(CIPHER[c] for c in w) for w in line.split()]
    return " ".join(reversed(words))


def transliteration_corpus(n_pairs: int = 5000, seed: int = 13,
                           lexicon: list[str] | None = None,
                           words_per_sentence: tuple[int, int] = (3, 6),
                           ) -> list[tuple[str, str]]:
    if n_pairs < 1:
        raise ConfigError("n_pairs must be positive")
    words = lexicon if lexicon is not None else make_lexicon()
    rng = np.random.default_rng(seed)
    lo, hi = words_per_sentence
    pairs = []
    for _ in range(n_pairs):
        count = int(rng.integers(lo, hi + 1))
        picks = [words[i] for i in rng.integers(0, len(words), size=count)]
        source = " ".join(picks)
        pairs.append((source, transliterate(source)))
    return pairs


def split_pairs(pairs, held_out: int):
    """Deterministic split: the last `held_out` pairs become the dev set."""
    if not 0 < held_out < len(pairs):
        raise ConfigError(
            f"held_out must lie strictly between 0 and {len(pairs)}")
    return pairs[:-held_out], pairs[-held_out:]
