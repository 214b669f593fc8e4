"""Corpus ingestion: BPE learning/application, vocabularies, length-filtered batching.

Source sentences are whitespace-tokenized words segmented into BPE subwords;
target sentences are either BPE subwords or raw character sequences (spaces
are ordinary symbols in character mode). All text is UTF-8 and a "character"
means a Unicode scalar value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorpusError, DomainError

BOS, EOS, UNK, PAD = "<s>", "</s>", "<unk>", "<pad>"
RESERVED = (BOS, EOS, UNK, PAD)
BOS_ID, EOS_ID, UNK_ID, PAD_ID = 0, 1, 2, 3

# Batches' worth of pairs make_batches sorts together by target length (the
# "maxibatch" of Nematus, Sennrich et al. 2017). Two batches' worth halves a
# window into a shorter and a longer batch. Wider windows pad less but make
# each batch one length band, and on the benchmark's 200-step trainings those
# learned less per step: at 3, 4 and 20 batches many more seeds ended below
# dev BLEU 0.99, and one fell below 0.8.
BUCKET_WINDOW = 2

MARKER = "@@"  # continuation marker carried by non-final subword pieces

MERGE_FILE_VERSION = "#version: charnmt-bpe 1"


@dataclass
class MergeTable:
    """Ordered BPE merge rules; earlier rules have higher priority."""

    rules: list[tuple[str, str]] = field(default_factory=list)
    marker: str = MARKER
    _priority: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _word_cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._priority = {pair: i for i, pair in enumerate(self.rules)}

    def __len__(self):
        return len(self.rules)

    def save(self, path):
        lines = [MERGE_FILE_VERSION]
        lines += [f"{a} {b}" for a, b in self.rules]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "MergeTable":
        return cls.parse(Path(path).read_bytes(), path)

    @classmethod
    def parse(cls, data: bytes, origin) -> "MergeTable":
        """The table a merge file's UTF-8 `data` holds; errors name `origin`."""
        raw = decode_text(data, origin).splitlines()
        if not raw or not raw[0].startswith("#"):
            raise CorpusError(f"merge file {origin} missing version comment")
        rules = []
        for lineno, line in enumerate(raw[1:], start=2):
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2 or "" in parts:
                raise CorpusError(f"merge file {origin}:{lineno}: expected two symbols")
            rules.append((parts[0], parts[1]))
        return cls(rules=rules)


def _pair_counts(word_freqs: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for word, freq in word_freqs.items():
        for a, b in zip(word, word[1:]):
            counts[(a, b)] += freq
    return counts


def _merge_word(word: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Merge all non-overlapping occurrences of `pair`, left to right."""
    a, b = pair
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == a and word[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def learn_bpe(lines, num_merges: int) -> MergeTable:
    """Greedy pair-merge learning over a word-frequency table.

    Repeatedly merges the most frequent adjacent symbol pair within words,
    `num_merges` times or until no pair occurs at least twice. Ties break on
    the lexicographically smallest pair so learning is deterministic.
    """
    token_freqs = Counter()
    for line in lines:
        token_freqs.update(line.split())
    if not token_freqs:
        raise DomainError("learn_bpe: empty corpus")

    word_freqs = {tuple(word): freq for word, freq in token_freqs.items()}
    rules: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts = _pair_counts(word_freqs)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in counts.items() if c == best_count)
        rules.append(best)
        word_freqs = {_merge_word(w, best): f for w, f in word_freqs.items()}
    return MergeTable(rules=rules)


def split_word(word: str, merges: MergeTable) -> list[str]:
    """Segment one word into subword pieces (without continuation markers).

    Starts from characters and repeatedly applies the highest-priority rule
    among currently adjacent pairs, so the result is a fixpoint: re-applying
    the table changes nothing.
    """
    cached = merges._word_cache.get(word)
    if cached is not None:
        return list(cached)
    symbols = list(word)
    priority = merges._priority
    while len(symbols) > 1:
        ranked = [
            (priority[p], p)
            for p in set(zip(symbols, symbols[1:]))
            if p in priority
        ]
        if not ranked:
            break
        _, pair = min(ranked)
        symbols = list(_merge_word(tuple(symbols), pair))
    merges._word_cache[word] = tuple(symbols)
    return symbols


def apply_bpe(tokens, merges: MergeTable) -> list[str]:
    """Segment a token sequence; non-final pieces of a word carry the marker."""
    out = []
    for word in tokens:
        pieces = split_word(word, merges)
        out += [p + merges.marker for p in pieces[:-1]]
        out.append(pieces[-1])
    return out


def detokenize_subwords(tokens, marker: str = MARKER) -> str:
    """Invert apply_bpe on a decoded stream: strip markers, join words."""
    words, current = [], ""
    for tok in tokens:
        if tok.endswith(marker):
            current += tok[: -len(marker)]
        else:
            words.append(current + tok)
            current = ""
    if current:
        words.append(current)
    return " ".join(words)


class Vocabulary:
    """Bidirectional symbol<->index map with reserved symbols at indices 0-3."""

    def __init__(self, unit: str, symbols):
        if unit not in ("subword", "character"):
            raise ConfigError(f"unknown vocabulary unit {unit!r}")
        self.unit = unit
        self.symbols = list(symbols)
        if tuple(self.symbols[:4]) != RESERVED:
            raise CorpusError(f"vocabulary must start with the reserved symbols {RESERVED}, "
                              f"not {tuple(self.symbols[:4])}")
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise CorpusError("vocabulary contains duplicate symbols")

    def __len__(self):
        return len(self.symbols)

    def encode(self, tokens) -> list[int]:
        idx = self.index
        return [idx.get(t, UNK_ID) for t in tokens]

    def save(self, path):
        Path(path).write_text("\n".join(self.symbols) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path, unit: str) -> "Vocabulary":
        return cls.parse(Path(path).read_bytes(), unit, path)

    @classmethod
    def parse(cls, data: bytes, unit: str, origin) -> "Vocabulary":
        """The vocabulary in a vocabulary file's UTF-8 `data`, one symbol to
        a line that "\\n" ends (a CRLF file's symbols keep their "\\r");
        errors name `origin`."""
        symbols = decode_text(data, origin).split("\n")
        if symbols and symbols[-1] == "":
            symbols.pop()
        try:
            return cls(unit, symbols)
        except CorpusError as exc:
            raise CorpusError(f"{origin}: {exc}") from None


def segment_line(line: str, unit: str, merges: MergeTable | None = None) -> list[str]:
    """Turn a raw sentence into model units for the given representation."""
    if unit == "character":
        return list(line)
    if merges is None:
        raise ConfigError("subword segmentation requires a merge table")
    return apply_bpe(line.split(), merges)


def build_vocab(lines, unit: str, max_size: int) -> Vocabulary:
    """Frequency-ranked vocabulary truncated to `max_size` (reserved included)."""
    if max_size < 5:
        raise ConfigError(f"max_size must be at least 5, got {max_size}")
    counts = Counter()
    nonempty = False
    for line in lines:
        nonempty = True
        counts.update(list(line) if unit == "character" else line.split())
    if not nonempty:
        raise DomainError("build_vocab: empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    symbols = list(RESERVED) + [s for s, _ in ranked[: max_size - len(RESERVED)]]
    return Vocabulary(unit, symbols)


@dataclass
class Batch:
    """Padded index matrices for one minibatch.

    Source rows are `tokens + EOS`, target rows `BOS + tokens + EOS`, both
    right-padded with PAD; `*_lengths` count the real entries per row.
    """

    source: np.ndarray
    target: np.ndarray
    source_lengths: np.ndarray
    target_lengths: np.ndarray

    def label_mask(self) -> np.ndarray:
        """Mask over target positions 1..T-1 (the prediction targets)."""
        t = np.arange(1, self.target.shape[1])
        return (t[None, :] < self.target_lengths[:, None]).astype(np.float64)


def decode_text(data: bytes, origin) -> str:
    """`data` decoded as UTF-8; a byte that is not UTF-8 raises a
    CorpusError naming ORIGIN:LINE."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise CorpusError(f"{origin}:{line}: not UTF-8") from None


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as `Path.read_text().splitlines()`
    gives them; see `decode_text`."""
    return decode_text(Path(path).read_bytes(), path).splitlines()


def load_parallel(src_path, tgt_path) -> list[tuple[str, str]]:
    src_lines, tgt_lines = read_lines(src_path), read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    return list(zip(src_lines, tgt_lines))


def pad_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id rows with PAD into one matrix; returns it and the row lengths."""
    lengths = np.array([len(row) for row in rows])
    mat = np.full((len(rows), lengths.max()), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        mat[i, : len(row)] = row
    return mat, lengths


def within_limits(pairs, max_source_len: int, max_target_len: int) -> list:
    """The (source_tokens, target_tokens) pairs within the length limits,
    counted before BOS/EOS; `make_batches` drops the others."""
    return [(src, tgt) for src, tgt in pairs
            if len(src) <= max_source_len and len(tgt) <= max_target_len]


def make_batches(
    pairs,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_source_len: int,
    max_target_len: int,
    batch_size: int,
    seed: int,
) -> list[Batch]:
    """Filter, encode, bucket and pad token-sequence pairs into batches.

    `pairs` holds (source_tokens, target_tokens) sequences. Pairs longer than
    the limits (counted before BOS/EOS) are dropped. The survivors, in a
    permutation drawn from `seed`, are stably sorted by target length within
    windows of `BUCKET_WINDOW` batches and cut into ceil(kept / batch_size)
    batches of similar lengths, whose order the same generator permutes. No
    other split of a window into batches of at most `batch_size` pads fewer
    target positions.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    kept = within_limits(pairs, max_source_len, max_target_len)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    window = BUCKET_WINDOW * batch_size
    chunks = []
    for start in range(0, len(kept), window):
        part = sorted(order[start : start + window], key=lambda i: len(kept[i][1]))
        # cut from the long end: a short batch then takes the shortest targets
        chunks += [part[max(0, end - batch_size) : end]
                   for end in range(len(part), 0, -batch_size)]
    batches = []
    for c in rng.permutation(len(chunks)):
        chunk = [kept[i] for i in chunks[c]]
        src_rows = [src_vocab.encode(s) + [EOS_ID] for s, _ in chunk]
        tgt_rows = [[BOS_ID] + tgt_vocab.encode(t) + [EOS_ID] for _, t in chunk]
        source, source_lengths = pad_rows(src_rows)
        target, target_lengths = pad_rows(tgt_rows)
        batches.append(Batch(source, target, source_lengths, target_lengths))
    return batches
