"""Text pipeline tests: BPE learning/application, vocabularies, batching."""

import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnmt.errors import ConfigError, CorpusError, DomainError
from charnmt.synth import make_lexicon, transliteration_corpus
from charnmt.textpipe import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Batch,
    MergeTable,
    Vocabulary,
    apply_bpe,
    build_vocab,
    detokenize_subwords,
    learn_bpe,
    load_parallel,
    make_batches,
    read_lines,
    segment_line,
    split_word,
)

# ---------------------------------------------------------------------------
# Oracle: replay learned merges over the corpus as a flat list of word
# occurrences (not a frequency table) and verify every rule was the most
# frequent adjacent pair at its point, with lexicographic tie-break, and that
# learning stopped exactly when no pair occurred twice.


def _occurrence_pairs(words):
    counts = Counter()
    for w in words:
        for i in range(len(w) - 1):
            counts[(w[i], w[i + 1])] += 1
    return counts


def _merge_occurrences(words, pair):
    a, b = pair
    merged = []
    for w in words:
        out, i = [], 0
        while i < len(w):
            if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(w[i])
                i += 1
        merged.append(out)
    return merged


def check_merge_sequence(lines, table: MergeTable, num_merges: int):
    words = [list(w) for line in lines for w in line.split()]
    for rule in table.rules:
        counts = _occurrence_pairs(words)
        assert counts, "rule learned but no adjacent pairs exist"
        best_count = max(counts.values())
        assert best_count >= 2, f"rule {rule} learned from unrepeated pair"
        expected = min(p for p, c in counts.items() if c == best_count)
        assert rule == expected, f"expected {expected}, learned {rule}"
        words = _merge_occurrences(words, rule)
    if len(table.rules) < num_merges:
        counts = _occurrence_pairs(words)
        assert not counts or max(counts.values()) < 2, "stopped early with work left"


SPEC_CORPUS = (
    ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
)


class TestLearnBpe:
    def test_first_merge_on_reference_corpus(self):
        table = learn_bpe([" ".join(SPEC_CORPUS)], num_merges=1)
        assert table.rules == [("e", "s")]
        check_merge_sequence([" ".join(SPEC_CORPUS)], table, 1)

    def test_full_run_against_oracle(self):
        lines = [" ".join(SPEC_CORPUS)]
        table = learn_bpe(lines, num_merges=10)
        check_merge_sequence(lines, table, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora_against_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        alphabet = "abcde"
        words = [
            "".join(rng.choice(list(alphabet), size=rng.integers(1, 9)))
            for _ in range(rng.integers(5, 40))
        ]
        lines = [" ".join(words[i::3]) for i in range(3) if words[i::3]]
        num_merges = int(rng.integers(0, 15))
        table = learn_bpe(lines, num_merges)
        check_merge_sequence(lines, table, num_merges)

    def test_zero_merges(self):
        assert len(learn_bpe(["some words here"], 0)) == 0

    def test_single_character_word(self):
        assert len(learn_bpe(["a"], 50)) == 0

    def test_unrepeated_pairs_learn_nothing(self):
        assert len(learn_bpe(["ab cd ef"], 50)) == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            learn_bpe([], 5)
        with pytest.raises(DomainError):
            learn_bpe(["", "   "], 5)

    def test_rules_unique(self):
        table = learn_bpe([" ".join(SPEC_CORPUS)], 30)
        assert len(set(table.rules)) == len(table.rules)


class TestApplyBpe:
    def test_character_fallback_with_marker(self):
        assert apply_bpe(["ab"], MergeTable()) == ["a@@", "b"]

    def test_single_full_merge(self):
        table = MergeTable(rules=[("a", "b")])
        assert apply_bpe(["ab"], table) == ["ab"]

    def test_rule_priority_order(self):
        # ('b','c') learned first so it wins inside "abc"
        table = MergeTable(rules=[("b", "c"), ("a", "b")])
        assert apply_bpe(["abc"], table) == ["a@@", "bc"]

    def test_unknown_characters_pass_through(self):
        table = learn_bpe([" ".join(SPEC_CORPUS)], 10)
        pieces = apply_bpe(["lowxyz"], table)
        assert "".join(p.rstrip("@") for p in pieces) == "lowxyz"

    def test_round_trip_1000_random_words(self):
        rng = np.random.default_rng(7)
        alphabet = list(string.ascii_lowercase)
        words = [
            "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
            for _ in range(1000)
        ]
        table = learn_bpe([" ".join(words[:400])], 60)
        for w in words:
            assert detokenize_subwords(apply_bpe([w], table)) == w

    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=10),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_stream_round_trip(self, words):
        table = learn_bpe(["abab abab cdcd cdcd effe effe"], 8)
        assert detokenize_subwords(apply_bpe(words, table)) == " ".join(words)

    def test_idempotent_fixpoint(self):
        # output pieces contain no adjacent pair that any rule could merge
        table = learn_bpe([" ".join(SPEC_CORPUS)], 20)
        rules = set(table.rules)
        for word in {"low", "lower", "newest", "widest", "lowest", "news"}:
            pieces = split_word(word, table)
            for pair in zip(pieces, pieces[1:]):
                assert pair not in rules

    def test_multi_word_sentence(self):
        table = MergeTable(rules=[("l", "o"), ("lo", "w")])
        assert apply_bpe(["low", "lower"], table) == ["low", "low@@", "e@@", "r"]


class TestMergeFile:
    def test_save_load_round_trip(self, tmp_path):
        table = learn_bpe([" ".join(SPEC_CORPUS)], 10)
        path = tmp_path / "merges.txt"
        table.save(path)
        assert MergeTable.load(path).rules == table.rules

    def test_version_comment_first_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        MergeTable(rules=[("a", "b")]).save(path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("#")

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            MergeTable.load(path)

    def test_malformed_rule_rejected(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("#version: x\na b c\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            MergeTable.load(path)

    @pytest.mark.parametrize("rule", [b"a ", b" b", b" "])
    def test_rule_with_an_empty_symbol_rejected(self, rule):
        # such a rule can never apply, so a truncated line would load silently
        with pytest.raises(CorpusError, match=r"^merge file x:3: expected two symbols$"):
            MergeTable.parse(b"#version: charnmt-bpe 1\na b\n" + rule + b"\n", "x")


class TestVocabulary:
    def test_character_unit_includes_space(self):
        vocab = build_vocab(["a a b"], "character", 50)
        for sym in RESERVED + ("a", "b", " "):
            assert sym in vocab.index

    def test_reserved_at_fixed_indices(self):
        vocab = build_vocab(["x y"], "subword", 50)
        assert vocab.symbols[:4] == list(RESERVED)
        assert (vocab.index["<s>"], vocab.index["</s>"]) == (BOS_ID, EOS_ID)
        assert (vocab.index["<unk>"], vocab.index["<pad>"]) == (UNK_ID, PAD_ID)

    def test_encode_decode_identity(self):
        vocab = build_vocab(["the cat sat"], "subword", 50)
        tokens = ["the", "sat", "cat"]
        assert [vocab.symbols[i] for i in vocab.encode(tokens)] == tokens

    def test_oov_encodes_to_unk(self):
        vocab = build_vocab(["the cat"], "subword", 50)
        assert vocab.encode(["dog"]) == [UNK_ID]

    def test_frequency_ranking_and_truncation(self):
        vocab = build_vocab(["c c c b b a"], "subword", 6)
        assert vocab.symbols == list(RESERVED) + ["c", "b"]

    def test_frequency_tie_breaks_lexicographic(self):
        vocab = build_vocab(["b a b a"], "subword", 10)
        assert vocab.symbols[4:] == ["a", "b"]

    def test_max_size_below_reserved_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], "subword", 4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            build_vocab([], "character", 10)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary("word", list(RESERVED))

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(CorpusError):
            Vocabulary("subword", list(RESERVED) + ["a", "a"])

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab(["a b c a"], "character", 20)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path, "character")
        assert loaded.symbols == vocab.symbols
        assert loaded.index == vocab.index

    def test_file_is_one_symbol_per_line(self, tmp_path):
        vocab = build_vocab(["x y"], "subword", 10)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == vocab.symbols

    def test_load_requires_reserved_prefix(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            Vocabulary.load(path, "subword")


class TestSegmentLine:
    def test_character_mode_keeps_spaces(self):
        assert segment_line("ab c", "character") == ["a", "b", " ", "c"]

    def test_subword_mode_needs_merges(self):
        with pytest.raises(ConfigError):
            segment_line("ab", "subword")

    def test_subword_mode(self):
        table = MergeTable(rules=[("a", "b")])
        assert segment_line("ab cd", "subword", table) == ["ab", "c@@", "d"]


class TestReadLines:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab \n\r\x0b\x1c\x85\u2028\u00e9"))
    def test_valid_text_splits_as_read_text_does(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        assert read_lines(path) == path.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("data, line", [(b"ab\xffc", 1), (b"ab\n\xff\n", 2),
                                            (b"a\rb\r\n\xe9\n", 3), (b"a\n\n\xc3", 3)])
    def test_non_utf8_byte_names_path_and_line(self, tmp_path, data, line):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(CorpusError) as exc:
            read_lines(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8"


class TestLoadParallel:
    def test_aligned(self, tmp_path):
        (tmp_path / "a.txt").write_text("x\ny\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("u\nv\n", encoding="utf-8")
        pairs = load_parallel(tmp_path / "a.txt", tmp_path / "b.txt")
        assert pairs == [("x", "u"), ("y", "v")]

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        (tmp_path / "a.txt").write_text("x\ny\n", encoding="utf-8")
        (tmp_path / "b.txt").write_bytes(b"u\r\nv\xffw\n")
        with pytest.raises(CorpusError, match=r"b\.txt:2: not UTF-8$"):
            load_parallel(tmp_path / "a.txt", tmp_path / "b.txt")

    def test_mismatch_names_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("x\ny\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("u\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_parallel(tmp_path / "a.txt", tmp_path / "b.txt")
        assert "a.txt" in str(exc.value) and "b.txt" in str(exc.value)


def _vocabs():
    syms = list(string.ascii_lowercase)
    src = Vocabulary("subword", list(RESERVED) + syms)
    tgt = Vocabulary("character", list(RESERVED) + syms)
    return src, tgt


def _random_pairs(rng, n, src_max=8, tgt_max=12):
    pairs = []
    for _ in range(n):
        s = [rng.choice(list("abcde")) for _ in range(rng.integers(1, src_max + 1))]
        t = [rng.choice(list("uvwxy")) for _ in range(rng.integers(1, tgt_max + 1))]
        pairs.append((s, t))
    return pairs


class TestMakeBatches:
    def test_overlong_source_dropped(self):
        src, tgt = _vocabs()
        pairs = [(["a"] * 51, ["b"]), (["a"] * 50, ["b"])]
        batches = make_batches(pairs, src, tgt, 50, 100, 8, seed=0)
        assert sum(len(b.source) for b in batches) == 1
        assert batches[0].source_lengths[0] == 51  # 50 subwords + EOS

    def test_overlong_target_dropped(self):
        src, tgt = _vocabs()
        pairs = [(["a"], ["b"] * 101), (["a"], ["b"] * 100)]
        batches = make_batches(pairs, src, tgt, 50, 100, 8, seed=0)
        assert sum(len(b.source) for b in batches) == 1

    def test_eos_and_bos_placement(self):
        src, tgt = _vocabs()
        batches = make_batches([(["a", "b"], ["c"])], src, tgt, 50, 100, 4, seed=0)
        b = batches[0]
        assert b.source[0].tolist() == [src.index["a"], src.index["b"], EOS_ID]
        assert b.target[0].tolist() == [BOS_ID, tgt.index["c"], EOS_ID]

    def test_batch_size_one_is_pad_free(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(3)
        pairs = _random_pairs(rng, 9)
        batches = make_batches(pairs, src, tgt, 50, 100, 1, seed=5)
        assert len(batches) == 9
        for b in batches:
            assert len(b.source) == 1
            assert not np.any(b.source == PAD_ID)
            # BOS shares no index with PAD; target holds exactly one BOS
            assert np.count_nonzero(b.target == PAD_ID) == 0

    def test_pad_only_after_true_length(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(11)
        batches = make_batches(_random_pairs(rng, 40), src, tgt, 50, 100, 8, seed=2)
        for b in batches:
            for i in range(len(b.source)):
                row = b.source[i]
                n = b.source_lengths[i]
                assert np.all(row[:n] != PAD_ID)
                assert np.all(row[n:] == PAD_ID)
                trow, tn = b.target[i], b.target_lengths[i]
                assert np.all(trow[:tn] != PAD_ID)
                assert np.all(trow[tn:] == PAD_ID)

    def test_indices_within_vocab(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(4)
        batches = make_batches(_random_pairs(rng, 30), src, tgt, 50, 100, 7, seed=1)
        for b in batches:
            assert b.source.max() < len(src)
            assert b.target.max() < len(tgt)

    def test_same_seed_same_order(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(9)
        pairs = _random_pairs(rng, 50)
        a = make_batches(pairs, src, tgt, 50, 100, 8, seed=13)
        b = make_batches(pairs, src, tgt, 50, 100, 8, seed=13)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.source, y.source)
            assert np.array_equal(x.target, y.target)

    def test_different_seed_different_order(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(10)
        pairs = _random_pairs(rng, 60)
        a = make_batches(pairs, src, tgt, 50, 100, 60, seed=1)
        b = make_batches(pairs, src, tgt, 50, 100, 60, seed=2)
        assert not np.array_equal(a[0].source, b[0].source)

    def test_filter_monotone_in_limits(self):
        src, tgt = _vocabs()
        rng = np.random.default_rng(21)
        pairs = _random_pairs(rng, 80, src_max=12, tgt_max=16)
        kept_small = {
            tuple(map(tuple, p))
            for p in pairs
            if len(p[0]) <= 6 and len(p[1]) <= 8
        }
        low = make_batches(pairs, src, tgt, 6, 8, 4, seed=0)
        high = make_batches(pairs, src, tgt, 12, 16, 4, seed=0)
        assert sum(len(b.source) for b in low) == len(kept_small)
        assert sum(len(b.source) for b in high) == len(pairs)

    def test_everything_filtered_yields_no_batches(self):
        src, tgt = _vocabs()
        assert make_batches([(["a"] * 9, ["b"])], src, tgt, 5, 100, 4, seed=0) == []

    def test_bad_batch_size(self):
        src, tgt = _vocabs()
        with pytest.raises(ConfigError):
            make_batches([], src, tgt, 50, 100, 0, seed=0)

    def test_masks(self):
        src, tgt = _vocabs()
        b = make_batches(
            [(["a", "b"], ["c"]), (["a"], ["c", "d", "e"])],
            src, tgt, 50, 100, 2, seed=0,
        )[0]
        sm = np.arange(b.source.shape[1])[None, :] < b.source_lengths[:, None]
        assert sm.shape == b.source.shape
        assert sm.sum() == b.source_lengths.sum()
        lm = b.label_mask()
        assert lm.shape == (len(b.source), b.target.shape[1] - 1)
        # one label per real target token plus EOS (BOS is input only)
        assert lm.sum() == (b.target_lengths - 1).sum()


def _numbered_pairs(rng, n, tgt_max=28):
    """Pairs whose source spells their index, so a batch row names its pair."""
    return [([str(i)], ["x"] * int(rng.integers(1, tgt_max + 1))) for i in range(n)]


def _row_ids(batch, vocab):
    return [int(vocab.symbols[row[0]]) for row in batch.source]


def _padded_widths(pairs, chunks):
    return sum(max(len(pairs[i][1]) for i in chunk) + 2 for chunk in chunks)


class TestLengthBuckets:
    def _vocabs(self, n):
        src = Vocabulary("subword", list(RESERVED) + [str(i) for i in range(n)])
        tgt = Vocabulary("character", list(RESERVED) + ["x"])
        return src, tgt

    @pytest.mark.parametrize("n,batch_size", [(1, 4), (37, 4), (400, 8), (453, 7), (960, 16)])
    def test_each_kept_pair_once_per_epoch(self, n, batch_size):
        pairs = _numbered_pairs(np.random.default_rng(n), n)
        src, tgt = self._vocabs(n)
        batches = make_batches(pairs, src, tgt, 50, 20, batch_size, seed=3)
        kept = sorted(i for i, (_, t) in enumerate(pairs) if len(t) <= 20)
        assert len(batches) == -(-len(kept) // batch_size)
        assert sorted(i for b in batches for i in _row_ids(b, src)) == kept
        assert all(len(b.source) <= batch_size for b in batches)

    def test_ties_follow_the_seeded_permutation(self):
        """With every target of one length, batches are runs of the permutation."""
        n, batch_size = 300, 8
        pairs = [([str(i)], ["x"] * 5) for i in range(n)]
        src, tgt = self._vocabs(n)
        for seed in (0, 1):
            where = np.argsort(np.random.default_rng(seed).permutation(n))
            for batch in make_batches(pairs, src, tgt, 50, 100, batch_size, seed=seed):
                places = where[_row_ids(batch, src)]
                assert places.tolist() == list(range(places[0], places[0] + len(places)))

    @pytest.mark.parametrize("seed", range(5))
    def test_pads_no_more_than_unsorted_chunks(self, seed):
        """Against batches cut straight from the same permutation."""
        n, batch_size = 700, 8
        pairs = _numbered_pairs(np.random.default_rng(100 + seed), n)
        src, tgt = self._vocabs(n)
        batches = make_batches(pairs, src, tgt, 50, 100, batch_size, seed=seed)
        order = np.random.default_rng(seed).permutation(n)
        unsorted = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        assert sum(b.target.shape[1] for b in batches) <= _padded_widths(pairs, unsorted)

    def test_benchmark_sized_corpus_steps_fall_an_eighth(self):
        """Recurrence steps per batch on the benchmark's corpus: 27.0 unsorted,
        23.1 in windows of two batches (seeds 5-11)."""
        lexicon = make_lexicon(40, 4, 6, seed=7)
        raw = transliteration_corpus(2000, seed=5, lexicon=lexicon, words_per_sentence=(2, 4))
        merges = learn_bpe([s for s, _ in raw], 150)
        pairs = [(segment_line(s, "subword", merges), list(t)) for s, t in raw]
        src = build_vocab([" ".join(s) for s, _ in pairs], "subword", 400)
        tgt = build_vocab([t for _, t in raw], "character", 60)
        for seed in (5, 6):
            batches = make_batches(pairs, src, tgt, 50, 500, 32, seed=seed)
            order = np.random.default_rng(seed).permutation(len(pairs))
            unsorted = [order[i : i + 32] for i in range(0, len(pairs), 32)]
            steps = np.mean([b.target.shape[1] - 1 for b in batches])
            unsorted_steps = _padded_widths(pairs, unsorted) / len(unsorted) - 1
            assert steps <= 0.875 * unsorted_steps
