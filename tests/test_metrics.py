"""Metrics tests: BLEU hand cases, reference-script agreement, analyses."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnmt.errors import ContractError, CorpusError
from charnmt.metrics import (
    System,
    bleu,
    bleu_by_source_length,
    length_bleu_tsv,
    word_nll_by_frequency,
    word_nll_tsv,
)
from charnmt.model import score_pairs
from charnmt.textpipe import EOS_ID, RESERVED, MergeTable, Vocabulary, apply_bpe

from conftest import small_model

REF_SCRIPT = Path(__file__).parent / "ref_bleu.pl"


class TestBleuHandCases:
    def test_perfect_match(self):
        report = bleu(["a b c d", "e f g h"], ["a b c d", "e f g h"])
        assert report.bleu == 1.0
        assert report.brevity_penalty == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_no_trigrams_scores_zero(self):
        report = bleu(["a b"], ["a b c d"])
        assert report.bleu == 0.0
        assert report.precisions[:2] == (1.0, 1.0)
        assert report.precisions[2:] == (0.0, 0.0)

    def test_brevity_penalty_quarter(self):
        report = bleu(["a b c d"], ["a b c d e"])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(report.brevity_penalty, math.exp(-0.25))
        np.testing.assert_allclose(report.bleu, math.exp(-0.25))

    def test_clipping(self):
        report = bleu(["the the the the"], ["the cat"])
        assert report.precisions[0] == 0.25  # one clipped unigram out of four

    def test_long_hypothesis_no_penalty(self):
        report = bleu(["a b c d e f"], ["a b c d"])
        assert report.brevity_penalty == 1.0

    def test_two_line_aggregation(self):
        report = bleu(["a b c d", "a b c d"], ["a b c d", "a b c e"])
        assert report.precisions == (7 / 8, 5 / 6, 3 / 4, 1 / 2)
        expected = math.exp(
            (math.log(7 / 8) + math.log(5 / 6) + math.log(3 / 4) + math.log(1 / 2)) / 4
        )
        np.testing.assert_allclose(report.bleu, expected)

    def test_empty_hypothesis_corpus(self):
        report = bleu([""], ["a b"])
        assert report.bleu == 0.0 and report.brevity_penalty == 0.0

    def test_line_count_mismatch(self):
        with pytest.raises(CorpusError):
            bleu(["a"], ["a", "b"])

    def test_summary_line_format(self):
        line = bleu(["a b c d"], ["a b c d e"]).summary_line()
        assert line == (
            "BLEU = 77.88, 100.0/100.0/100.0/100.0 "
            "(BP=0.779, ratio=0.800, hyp_len=4, ref_len=5)"
        )


token = st.sampled_from("a b c d e".split())
line = st.lists(token, min_size=1, max_size=8).map(" ".join)
corpus = st.lists(line, min_size=1, max_size=6)
# unsmoothed BLEU-4 needs at least one 4-gram in the corpus to avoid a 0/0 p4
long_line = st.lists(token, min_size=4, max_size=8).map(" ".join)
corpus_with_4gram = st.tuples(corpus, long_line).map(lambda t: t[0] + [t[1]])


class TestBleuProperties:
    @given(corpus_with_4gram)
    @settings(max_examples=100, deadline=None)
    def test_self_bleu_is_one(self, lines):
        assert bleu(lines, lines).bleu == 1.0

    @given(corpus, corpus.map(list), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_range_and_permutation_invariance(self, hyps, refs, rnd):
        refs = (refs * ((len(hyps) // len(refs)) + 1))[: len(hyps)]
        report = bleu(hyps, refs)
        assert 0.0 <= report.bleu <= 1.0
        assert report.brevity_penalty <= 1.0
        order = list(range(len(hyps)))
        rnd.shuffle(order)
        shuffled = bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert math.isclose(report.bleu, shuffled.bleu, abs_tol=1e-12)


def _noisy_corpus(seed, n_lines=100):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    refs, hyps = [], []
    for _ in range(n_lines):
        ref = [words[i] for i in rng.integers(0, len(words), size=rng.integers(4, 12))]
        hyp = list(ref)
        for i in range(len(hyp)):
            r = rng.random()
            if r < 0.12:
                hyp[i] = words[rng.integers(0, len(words))]
        if rng.random() < 0.3 and len(hyp) > 4:
            hyp = hyp[:-1]
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
    return hyps, refs


class TestReferenceScript:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_matches_perl_reference_to_4_decimals(self, seed, tmp_path):
        hyps, refs = _noisy_corpus(seed)
        hyp_file = tmp_path / "hyp.txt"
        ref_file = tmp_path / "ref.txt"
        hyp_file.write_text("\n".join(hyps) + "\n", encoding="utf-8")
        ref_file.write_text("\n".join(refs) + "\n", encoding="utf-8")
        proc = subprocess.run(
            ["perl", str(REF_SCRIPT), str(hyp_file), str(ref_file)],
            capture_output=True, text=True, check=True,
        )
        expected = float(proc.stdout.strip())
        got = bleu(hyps, refs).bleu
        assert 0.0 < got < 1.0
        assert round(got, 4) == round(expected, 4)


class TestBleuBySourceLength:
    def test_single_bucket_equals_corpus(self):
        hyps, refs = _noisy_corpus(3, n_lines=20)
        sources = refs
        results = bleu_by_source_length(hyps, refs, sources, edges=[1000])
        assert len(results) == 1
        label, count, report = results[0]
        assert count == 20
        assert report.bleu == bleu(hyps, refs).bleu

    def test_partition_correctness(self):
        hyps = ["x" * 0 or "h short", "h long is here now"]
        hyps = ["short hyp", "much longer hypothesis here"]
        refs = ["short ref", "much longer reference here"]
        sources = ["a b c d e", "a b c d e f g h i j k l m n o"]
        results = bleu_by_source_length(hyps, refs, sources, edges=[10, 20])
        assert [label for label, _, _ in results] == ["1-10", "11-20"]
        assert results[0][2].bleu == bleu([hyps[0]], [refs[0]]).bleu
        assert results[1][2].bleu == bleu([hyps[1]], [refs[1]]).bleu

    def test_empty_buckets_absent_and_open_tail(self):
        hyps, refs = ["a"], ["a"]
        sources = ["w " * 25]
        results = bleu_by_source_length(hyps, refs, sources, edges=[10, 20])
        assert [label for label, _, _ in results] == [">20"]

    def test_permutation_invariant(self):
        hyps, refs = _noisy_corpus(4, n_lines=30)
        sources = refs
        forward = bleu_by_source_length(hyps, refs, sources, edges=[6, 9])
        order = np.random.default_rng(0).permutation(30)
        backward = bleu_by_source_length(
            [hyps[i] for i in order], [refs[i] for i in order],
            [sources[i] for i in order], edges=[6, 9],
        )
        assert [(l, c, r.bleu) for l, c, r in forward] == \
               [(l, c, r.bleu) for l, c, r in backward]

    def test_misaligned_inputs(self):
        with pytest.raises(CorpusError):
            bleu_by_source_length(["a"], ["a"], [], edges=[5])
        with pytest.raises(ContractError):
            bleu_by_source_length(["a"], ["a"], ["a"], edges=[])

    def test_tsv_format(self):
        text = length_bleu_tsv([("1-10", 3, bleu(["a b c d"], ["a b c d"]))])
        assert text == "1-10\t3\t1.0000\n"


def _systems():
    src_vocab = Vocabulary("subword", list(RESERVED) + list("abcde"))
    char_vocab = Vocabulary("character", list(RESERVED) + list("uvw "))
    sub_vocab = Vocabulary("subword", list(RESERVED) + ["u@@", "v", "w", "uv"])
    merges = MergeTable()
    a = System(small_model(0, src_vocab=9, tgt_vocab=8), char_vocab, "character")
    b = System(small_model(1, src_vocab=9, tgt_vocab=8), char_vocab, "character")
    c = System(small_model(2, src_vocab=9, tgt_vocab=8), sub_vocab, "subword")
    return src_vocab, merges, a, b, c


class TestWordNll:
    def test_identical_systems_diff_zero(self):
        src_vocab, merges, a, _, _ = _systems()
        pairs = [("a b", "uv w"), ("c", "w uv")]
        freq = {"uv": 3, "w": 1}
        results = word_nll_by_frequency(a, a, pairs, src_vocab, merges, freq)
        assert results
        assert all(value == 0.0 for _, _, value in results)

    def test_antisymmetric(self):
        src_vocab, merges, a, b, _ = _systems()
        pairs = [("a b", "uv w"), ("c d", "w")]
        freq = {"uv": 4, "w": 2}
        fwd = word_nll_by_frequency(a, b, pairs, src_vocab, merges, freq)
        rev = word_nll_by_frequency(b, a, pairs, src_vocab, merges, freq)
        for (la, ca, va), (lb, cb, vb) in zip(fwd, rev):
            assert (la, ca) == (lb, cb)
            np.testing.assert_allclose(va, -vb, atol=1e-9)

    def test_single_sentence_hand_oracle_char_vs_subword(self):
        src_vocab, merges, a, _, c = _systems()
        line = "uv w"
        src_ids = np.array(src_vocab.encode(apply_bpe(["a"], merges)) + [EOS_ID])

        # character system: "uv w" -> u v (space) w + EOS; spans uv=[0:3], w=[3:5]
        char_ids = np.array(a.tgt_vocab.encode(list(line)) + [EOS_ID])
        [(char_pos, _)] = score_pairs(a.model, [src_ids], [char_ids])
        # subword system: pieces u@@ v | w; spans uv=[0:2], w=[2:3]
        sub_ids = np.array(c.tgt_vocab.encode(["u@@", "v", "w"]) + [EOS_ID])
        [(sub_pos, _)] = score_pairs(c.model, [src_ids], [sub_ids])

        expected_uv = -char_pos[0:3].sum() + sub_pos[0:2].sum()
        expected_w = -char_pos[3:5].sum() + sub_pos[2:3].sum()
        results = word_nll_by_frequency(
            a, c, [("a", line)], src_vocab, merges, {"uv": 1, "w": 1})
        assert len(results) == 1
        label, count, value = results[0]
        assert (label, count) == ("1", 2)
        np.testing.assert_allclose(value, (expected_uv + expected_w) / 2, atol=1e-9)

    def test_power_of_two_buckets_and_unseen(self):
        src_vocab, merges, a, b, _ = _systems()
        pairs = [("a", "uv w v")]
        freq = {"uv": 5, "w": 1}  # "v" unseen
        results = word_nll_by_frequency(a, b, pairs, src_vocab, merges, freq)
        assert [label for label, _, _ in results] == ["0", "1", "4"]
        assert [count for _, count, _ in results] == [1, 1, 1]

    def test_tsv_format(self):
        assert word_nll_tsv([("4", 2, 0.125)]) == "4\t2\t0.125000\n"
