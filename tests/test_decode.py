"""Decoding tests: ensembles, beam search contracts, greedy, rendering."""

import numpy as np
import pytest

from charnmt import decode
from charnmt.decode import (
    Hypothesis,
    alignment_blocks,
    beam_search,
    default_max_len,
    ensemble_log_probs,
    format_alignment_block,
    greedy_decode,
    hypothesis_text,
    translate_corpus,
)
from charnmt.errors import ConfigError, ConsistencyError, EnsembleError
from charnmt.model import score_pairs
from charnmt.textpipe import BOS_ID, EOS_ID, RESERVED, MergeTable, Vocabulary, pad_rows

from conftest import random_source, reference_beam_search, small_model


class TestEnsembleLogProbs:
    def test_single_model_identity(self):
        logp = np.log(np.array([[0.2, 0.3, 0.5]]))
        assert np.array_equal(ensemble_log_probs([logp]), logp)

    def test_two_identical_models(self):
        logp = np.log(np.array([[0.2, 0.3, 0.5]]))
        np.testing.assert_allclose(ensemble_log_probs([logp, logp]), logp, atol=1e-9)

    def test_disjoint_certainties_average(self):
        with np.errstate(divide="ignore"):
            a = np.log(np.array([[1.0, 0.0]]))
            b = np.log(np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(
            np.exp(ensemble_log_probs([a, b])), [[0.5, 0.5]], atol=1e-12
        )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(EnsembleError):
            ensemble_log_probs([])
        with pytest.raises(EnsembleError):
            ensemble_log_probs([np.zeros((1, 3)), np.zeros((1, 4))])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        logps = [np.log(rng.dirichlet(np.ones(6), size=2)) for _ in range(3)]
        fwd = ensemble_log_probs(logps)
        rev = ensemble_log_probs(logps[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-9)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        logps = [np.log(rng.dirichlet(np.ones(5), size=3)) for _ in range(2)]
        total = np.exp(ensemble_log_probs(logps)).sum(axis=1)
        np.testing.assert_allclose(total, np.ones(3), atol=1e-9)


def test_default_max_len():
    assert default_max_len(20, "subword") == 50
    assert default_max_len(20, "character") == 250


class TestBeamContracts:
    def test_width_below_one_rejected(self):
        m = small_model(0)
        with pytest.raises(ConfigError):
            beam_search([m], np.array([4, 1]), width=0, max_len=5)[0]

    def test_vocab_mismatch_rejected(self):
        a = small_model(0, tgt_vocab=9)
        b = small_model(1, tgt_vocab=10)
        with pytest.raises(EnsembleError):
            beam_search([a, b], np.array([4, 1]), width=2, max_len=5)[0]

    def test_immediate_eos_gives_empty_translation(self):
        m = small_model(2)
        bias = np.full(9, -5.0)
        bias[EOS_ID] = 5.0
        m.store.assign("out.W_logit", np.zeros_like(m.store["out.W_logit"].data))
        m.store.assign("out.b_logit", bias)
        hyps = beam_search([m], np.array([4, 5, 1]), width=3, max_len=10)[0]
        best = hyps[0]
        assert best.tokens == [EOS_ID]
        expected = 5.0 - np.log(np.exp(bias).sum())
        np.testing.assert_allclose(best.score, expected, atol=1e-6)

    def test_max_len_forces_truncated_finish(self):
        m = small_model(3)
        bias = np.zeros(9)
        bias[EOS_ID] = -1e6  # EOS effectively unreachable
        m.store.assign("out.b_logit", bias)
        hyps = beam_search([m], np.array([4, 5, 1]), width=2, max_len=4)[0]
        for h in hyps:
            assert h.truncated
            assert len(h.tokens) == 5 and h.tokens[-1] == EOS_ID

    @pytest.mark.parametrize("seed", range(20))
    def test_width_one_equals_greedy(self, seed):
        rng = np.random.default_rng(seed)
        m = small_model(seed, decoder="biscale" if seed % 2 else "base")
        src = random_source(rng)
        greedy = greedy_decode([m], src, max_len=12)[0]
        beam = beam_search([m], src, width=1, max_len=12)[0][0]
        assert beam.tokens == greedy.tokens
        np.testing.assert_allclose(beam.score, greedy.score, atol=1e-9)

    @pytest.mark.parametrize("block", range(10))
    def test_beam_never_below_greedy_100_instances(self, block):
        # 10 instances per case keeps failures attributable; 100 total
        for inner in range(10):
            seed = block * 10 + inner
            rng = np.random.default_rng(seed)
            m = small_model(seed % 7, decoder="biscale" if seed % 3 == 0 else "base")
            src = random_source(rng)
            greedy = greedy_decode([m], src, max_len=10)[0]
            wide = beam_search([m], src, width=5, max_len=10)[0]
            assert wide[0].score >= greedy.score - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_wider_beam_never_worse(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = small_model(seed)
        src = random_source(rng)
        narrow = beam_search([m], src, width=2, max_len=10)[0]
        wide = beam_search([m], src, width=6, max_len=10)[0]
        assert wide[0].score >= narrow[0].score - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_score_matches_rescoring(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = small_model(seed, decoder="biscale" if seed % 2 else "base")
        src = random_source(rng)
        pool = beam_search([m], src, width=3, max_len=10)[0]
        for hyp, (per_pos, _) in zip(pool, score_pairs(m, [src] * len(pool),
                                                       [hyp.tokens for hyp in pool])):
            np.testing.assert_allclose(hyp.score, per_pos.sum(), atol=1e-5)

    def test_scores_sorted_and_finished(self):
        m = small_model(5)
        hyps = beam_search([m], np.array([4, 5, 6, 1]), width=4, max_len=12)[0]
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert all(h.tokens[-1] == EOS_ID for h in hyps)

    def test_ensemble_of_clones_matches_single(self):
        m = small_model(6)
        src = np.array([4, 5, 1])
        solo = beam_search([m], src, width=3, max_len=8)[0]
        duo = beam_search([m, m], src, width=3, max_len=8)[0]
        assert [h.tokens for h in duo] == [h.tokens for h in solo]
        np.testing.assert_allclose(
            [h.score for h in duo], [h.score for h in solo], atol=1e-9
        )

    def test_length_normalize_changes_ranking_key_only(self):
        m = small_model(7)
        src = np.array([4, 5, 6, 1])
        plain = beam_search([m], src, width=4, max_len=10)[0]
        normed = beam_search([m], src, width=4, max_len=10, length_normalize=True)[0]
        assert {tuple(h.tokens) for h in plain} == {tuple(h.tokens) for h in normed}
        key = lambda h: h.score / len(h.tokens)
        assert [key(h) for h in normed] == sorted((key(h) for h in normed), reverse=True)


def mixed_sources(seed, count=7, vocab_size=11):
    """Sources of several lengths, so a padded batch of them has padding."""
    rng = np.random.default_rng(seed)
    sources = [random_source(rng, vocab_size) for _ in range(count)]
    sources[0] = np.array([5, EOS_ID])
    sources[1] = np.concatenate([rng.integers(4, vocab_size, size=8), [EOS_ID]])
    return sources


def assert_matches_reference(models, sources, width, caps, length_normalize=False):
    """The batched search over `sources` returns, for every row, exactly the
    per-sentence reference's ranked pool; returns the batched pools."""
    source, lengths = pad_rows(sources)
    pools = beam_search(models, source, width, np.array(caps), lengths, length_normalize)
    # float64 agrees to summation order. In float32 a batch of another shape
    # may round each step's log-probabilities differently by about one ulp,
    # and a score sums one per token, so that bound is relative to the score.
    wide = models[0].config.precision == "wide"
    atol, rtol = (1e-10, 0) if wide else (1e-6, 1e-6)
    assert len(pools) == len(sources)
    for pool, src, cap in zip(pools, sources, caps):
        want = reference_beam_search(models, src, width, cap, length_normalize)
        assert [h.tokens for h in pool] == [h.tokens for h in want]
        assert [h.truncated for h in pool] == [h.truncated for h in want]
        np.testing.assert_allclose([h.score for h in pool], [h.score for h in want],
                                   rtol=rtol, atol=atol)
        for got, ref in zip(pool, want):
            assert got.tokens[-1] == EOS_ID
            np.testing.assert_allclose(got.alignments, ref.alignments, rtol=0, atol=atol)
    return pools


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("width", [1, 3, 5])
    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_single_model(self, width, decoder, precision):
        m = small_model(width, decoder=decoder, precision=precision)
        sources = mixed_sources(width)
        assert_matches_reference([m], sources, width, [10] * len(sources))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_ensemble_of_different_models(self, width):
        models = [small_model(21), small_model(22, decoder="biscale")]
        sources = mixed_sources(20 + width)
        assert_matches_reference(models, sources, width, [10] * len(sources))

    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_length_normalize(self, precision):
        m = small_model(31, precision=precision)
        sources = mixed_sources(31)
        assert_matches_reference([m], sources, 4, [10] * len(sources), length_normalize=True)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_per_row_caps_close_some_rows(self, decoder):
        # seed 47 has, for both decoders, rows that finish and rows the cap closes
        m = small_model(47, decoder=decoder)
        sources = mixed_sources(47, count=8)
        caps = [1, 12, 2, 12, 1, 12, 3, 12]
        pools = assert_matches_reference([m], sources, 3, caps)
        truncated = [pool[0].truncated for pool in pools]
        assert any(truncated) and not all(truncated)
        for pool, cap in zip(pools, caps):
            assert all(len(h.tokens) <= cap + 1 for h in pool)

    @pytest.mark.parametrize("width", [2, 5])
    def test_exact_ties_break_like_the_reference(self, width):
        # a constant output layer ties every extension; EOS comes only at the
        # cap, which then closes `width` hypotheses of one score per sentence
        m = small_model(52)
        bias = np.zeros(9)
        bias[EOS_ID] = -30.0
        m.store.assign("out.W_logit", np.zeros_like(m.store["out.W_logit"].data))
        m.store.assign("out.b_logit", bias)
        sources = mixed_sources(52, count=4)
        pools = assert_matches_reference([m], sources, width, [3, 5, 4, 6])
        assert all(len({h.score for h in pool}) < len(pool) for pool in pools)

    @pytest.mark.parametrize("width", [2, 5])
    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_eos_takes_some_slots_and_the_search_goes_on(self, monkeypatch, width, decoder,
                                                         precision):
        # token 4 is near certain and EOS the runner-up, so at each step the
        # best chain's EOS extension retires while the chain itself goes on
        m = small_model(53, decoder=decoder, precision=precision)
        bias = np.zeros(9)
        bias[4], bias[EOS_ID] = 5.0, 2.0
        m.store.assign("out.b_logit", bias)
        fed = []
        step = decode._ensemble_step

        def spy(models, ctxs, states, y_prev):
            fed.append(np.asarray(y_prev).reshape(-1, 1 if not fed else width))
            return step(models, ctxs, states, y_prev)

        monkeypatch.setattr(decode, "_ensemble_step", spy)
        sources = mixed_sources(53, count=6)
        pools = assert_matches_reference([m], sources, width, [8, 12, 5, 12, 9, 12])
        # a slot whose extension ended is fed EOS: some step ran such a dead
        # slot beside a live one of the same sentence
        assert any(((y == EOS_ID).any(axis=1) & (y != EOS_ID).any(axis=1)).any() for y in fed)
        assert all(len(pool) > 1 for pool in pools)

    def test_width_beyond_first_step_candidates(self):
        m = small_model(51)
        sources = mixed_sources(51, count=3)
        assert_matches_reference([m], sources, 12, [6] * len(sources))


class TestBatchedLaws:
    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_width_one_equals_batched_greedy(self, decoder):
        m = small_model(61, decoder=decoder)
        source, lengths = pad_rows(mixed_sources(61))
        beams = beam_search([m], source, 1, 12, lengths)
        greedy = greedy_decode([m], source, lengths, max_len=12)
        assert [p[0].tokens for p in beams] == [g.tokens for g in greedy]
        np.testing.assert_allclose([p[0].score for p in beams], [g.score for g in greedy],
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_greedy_chain_never_pruned(self, decoder):
        m = small_model(62, decoder=decoder)
        source, lengths = pad_rows(mixed_sources(62, count=9))
        pools = beam_search([m], source, 3, 10, lengths)
        greedy = greedy_decode([m], source, lengths, max_len=10)
        for pool, g in zip(pools, greedy):
            # the chain either finished into the pool or was outscored there
            assert g.tokens in [h.tokens for h in pool] or pool[0].score > g.score
            assert pool[0].score >= g.score - 1e-9

    def test_duplicate_ensemble_equals_single(self):
        m = small_model(63)
        source, lengths = pad_rows(mixed_sources(63))
        solo = beam_search([m], source, 3, 10, lengths)
        duo = beam_search([m, m], source, 3, 10, lengths)
        for a, b in zip(solo, duo):
            assert [h.tokens for h in a] == [h.tokens for h in b]
            np.testing.assert_allclose([h.score for h in a], [h.score for h in b], atol=1e-9)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_score_equals_rescored_sum(self, decoder):
        m = small_model(64, decoder=decoder)
        sources = mixed_sources(64)
        source, lengths = pad_rows(sources)
        for pool, src in zip(beam_search([m], source, 3, 10, lengths), sources):
            for hyp, (per_pos, _) in zip(pool, score_pairs(m, [src] * len(pool),
                                                           [hyp.tokens for hyp in pool])):
                np.testing.assert_allclose(hyp.score, per_pos.sum(), rtol=0, atol=1e-10)

    def test_bad_caps_rejected(self):
        m = small_model(65)
        source, lengths = pad_rows(mixed_sources(65, count=3))
        with pytest.raises(ConfigError):
            beam_search([m], source, 2, np.array([4, 0, 4]), lengths)
        with pytest.raises(ConfigError):
            greedy_decode([m], source, lengths, np.array([4, 0, 4]))


class TestGreedy:
    def test_batched_matches_single(self):
        m = small_model(8)
        rng = np.random.default_rng(8)
        sources = [random_source(rng) for _ in range(5)]
        width = max(len(s) for s in sources)
        mat = np.full((5, width), 3)
        for i, s in enumerate(sources):
            mat[i, : len(s)] = s
        lengths = np.array([len(s) for s in sources])
        batched = greedy_decode([m], mat, lengths, max_len=12)
        for i, s in enumerate(sources):
            solo = greedy_decode([m], s, max_len=12)[0]
            assert batched[i].tokens == solo.tokens
            np.testing.assert_allclose(batched[i].score, solo.score, atol=1e-9)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_per_row_caps_match_width_one_reference(self, decoder):
        m = small_model(47, decoder=decoder)
        sources = mixed_sources(47, count=8)
        caps = [1, 12, 2, 12, 1, 12, 3, 12]
        source, lengths = pad_rows(sources)
        hyps = greedy_decode([m], source, lengths, np.array(caps))
        assert any(h.truncated for h in hyps) and not all(h.truncated for h in hyps)
        for hyp, src, cap in zip(hyps, sources, caps):
            want = reference_beam_search([m], src, 1, cap)[0]
            assert hyp.tokens == want.tokens and hyp.truncated == want.truncated
            np.testing.assert_allclose(hyp.score, want.score, rtol=0, atol=1e-10)
            np.testing.assert_allclose(hyp.alignments, want.alignments, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_one_model_alignments_are_its_own_alpha_rows(self, decoder, precision):
        # one sentence at width 1 steps one row at a time, as the re-stepping
        # below does, so the rows must agree bit for bit
        m = small_model(72, decoder=decoder, precision=precision)
        for src in mixed_sources(72):
            hyp = beam_search([m], src, 1, 10)[0][0]
            ctx, state = m.encode(src)
            rows, y_prev = [], BOS_ID
            for tok in hyp.tokens:
                _, state, alpha = m.step_log_probs(np.array([y_prev]), state, ctx)
                rows.append(alpha.data[0])
                y_prev = tok
            assert hyp.alignments.dtype == m.store.dtype
            assert np.array_equal(hyp.alignments, np.array(rows))

    def test_batched_alignments_cover_own_source_only(self):
        m = small_model(61)
        sources = mixed_sources(61)
        source, lengths = pad_rows(sources)
        for hyp, src in zip(greedy_decode([m], source, lengths, max_len=12), sources):
            assert hyp.alignments.shape == (len(hyp.tokens), len(src))

    def test_alignment_row_per_token(self):
        m = small_model(9)
        hyp = greedy_decode([m], np.array([4, 5, 6, 1]), max_len=10)[0]
        assert len(hyp.alignments) == len(hyp.tokens)
        assert hyp.alignments.shape == (len(hyp.tokens), 4)
        np.testing.assert_allclose(hyp.alignments.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("search", ["greedy", "width5", "ensemble"])
    def test_alignment_arrays_per_search(self, search):
        models = [small_model(61)] + ([small_model(62)] if search == "ensemble" else [])
        sources = mixed_sources(61)
        source, lengths = pad_rows(sources)
        if search == "greedy":
            hyps = greedy_decode(models, source, lengths, max_len=12)
        else:
            hyps = [pool[0] for pool in beam_search(models, source, 5, 12, lengths)]
        for hyp, src in zip(hyps, sources):
            assert isinstance(hyp.alignments, np.ndarray)
            assert hyp.alignments.shape == (len(hyp.tokens), len(src))
            np.testing.assert_allclose(hyp.alignments.sum(axis=1), 1.0, atol=1e-6)


def _toy_vocabs():
    src = Vocabulary("subword", list(RESERVED) + list("abcde"))
    tgt = Vocabulary("character", list(RESERVED) + list("uvwxy "))
    return src, tgt


class TestTranslateCorpus:
    def test_empty_input(self):
        m = small_model(10, src_vocab=9, tgt_vocab=10)
        src, tgt = _toy_vocabs()
        result = translate_corpus([m], [], src, tgt, MergeTable(), "character", width=2)
        assert result.texts == [] and result.hypotheses == []

    def _count_searches(self, monkeypatch):
        calls = []
        search = decode.beam_search
        monkeypatch.setattr(decode, "beam_search",
                            lambda models, source, *a: calls.append(len(source))
                            or search(models, source, *a))
        return calls

    @pytest.mark.parametrize("count", [0, 1, 70])
    def test_one_search_per_chunk_in_input_order(self, monkeypatch, count):
        models = [small_model(14, src_vocab=9, tgt_vocab=10),
                  small_model(15, decoder="biscale", src_vocab=9, tgt_vocab=10)]
        src, tgt = _toy_vocabs()
        rng = np.random.default_rng(count)
        lines = [" ".join(rng.choice(list("abcde"), size=rng.integers(1, 6)))
                 for _ in range(count)]
        calls = self._count_searches(monkeypatch)
        result = translate_corpus(models, lines, src, tgt, MergeTable(), "character", width=3)
        assert calls == [min(64, count - start) for start in range(0, count, 64)]
        assert len(result.hypotheses) == len(result.texts) == count
        for line, hyp, symbols in zip(lines, result.hypotheses, result.source_symbols):
            assert symbols == line.split() + ["</s>"]
            ids = np.array(src.encode(line.split()) + [EOS_ID])
            cap = default_max_len(len(line.split()), "character")
            want = reference_beam_search(models, ids, 3, cap)[0]
            assert hyp.tokens == want.tokens
            np.testing.assert_allclose(hyp.score, want.score, rtol=0, atol=1e-6)

    def test_vocab_size_mismatch_rejected(self):
        m = small_model(11)
        src = Vocabulary("subword", list(RESERVED) + list("abcdefgh"))
        _, tgt = _toy_vocabs()
        with pytest.raises(ConsistencyError):
            translate_corpus([m], ["a b"], src, tgt, MergeTable(), "character", width=1)

    def test_produces_one_line_per_input(self):
        m = small_model(12, src_vocab=9, tgt_vocab=10)
        src, tgt = _toy_vocabs()
        result = translate_corpus([m], ["a b", "c", "d e a"], src, tgt,
                                  MergeTable(), "character", width=2)
        assert len(result.texts) == 3
        assert all(isinstance(t, str) for t in result.texts)
        assert result.source_symbols[0] == ["a", "b", "</s>"]


class TestRendering:
    def test_character_text_verbatim(self):
        _, tgt = _toy_vocabs()
        hyp = Hypothesis(tokens=[tgt.index["u"], tgt.index[" "], tgt.index["v"], EOS_ID],
                         score=0.0, alignments=[])
        assert hypothesis_text(hyp, tgt, "character") == "u v"

    def test_subword_text_strips_markers(self):
        vocab = Vocabulary("subword", list(RESERVED) + ["ab@@", "cd", "e"])
        hyp = Hypothesis(tokens=[4, 5, 6, EOS_ID], score=0.0, alignments=[])
        assert hypothesis_text(hyp, vocab, "subword") == "abcd e"

    def test_unfinished_tokens_render_fully(self):
        vocab = Vocabulary("subword", list(RESERVED) + ["xy"])
        hyp = Hypothesis(tokens=[4, 4], score=0.0, alignments=[])
        assert hypothesis_text(hyp, vocab, "subword") == "xy xy"

    def test_alignment_block_layout(self):
        block = format_alignment_block(
            ["ab", "</s>"], ["u", "</s>"],
            np.array([[0.75, 0.25], [0.5, 0.5]]),
        )
        lines = block.splitlines()
        assert lines[0] == "\tab\t</s>"
        assert lines[1] == "u\t0.750000\t0.250000"
        assert lines[2] == "</s>\t0.500000\t0.500000"

    def test_alignment_block_escapes_tabs(self):
        block = format_alignment_block(["a\tb"], ["u"], np.array([[1.0]]))
        assert block.splitlines()[0] == "\ta\\tb"

    def test_alignment_blocks_blank_line_separated(self):
        m = small_model(13, src_vocab=9, tgt_vocab=10)
        src, tgt = _toy_vocabs()
        result = translate_corpus([m], ["a b", "c"], src, tgt, MergeTable(),
                                  "character", width=1)
        text = alignment_blocks((s, [tgt.symbols[t] for t in h.tokens], h.alignments)
                                for h, s in zip(result.hypotheses, result.source_symbols))
        assert text.endswith("\n")
        assert "\n\n" in text
        assert len(text.strip().split("\n\n")) == 2
