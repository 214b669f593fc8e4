"""Model tests: encoder, attention, both decoders, output layer, scoring."""

from dataclasses import fields, replace

import numpy as np
import pytest

from charnmt import model as model_mod
from charnmt.errors import ConfigError, ContractError, VocabularyError
from charnmt.model import (
    BaseDecoderState,
    ContextSet,
    Model,
    ModelConfig,
    attend,
    encode,
    gru_cell,
    init_params,
    label_log_probs,
    param_spec,
    score_pairs,
)
from charnmt.numerics import (
    Graph, ParameterStore, backward, embed, scale, sum_all, tensor,
)
from charnmt.textpipe import BOS_ID, EOS_ID

from conftest import (
    add, assert_arrays_close, composite_biscale_step, composite_gru_cell, forced_log_probs,
    mul_const, random_source,
)
from fdcheck import assert_grads_close, finite_difference_grads

WIDE = dict(precision="wide")


def tiny_config(**kw):
    base = dict(src_vocab_size=11, tgt_vocab_size=9, d_emb=4, d_enc=5, d_dec=6, **WIDE)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, **kw):
    cfg = tiny_config(**kw)
    return Model(cfg, init_params(cfg, seed))


def decoder_step(m, y_prev, state, c):
    """One step of the model's decoder on previous symbols `y_prev`."""
    return m.decoder.step(m.store, embed(m.store["tgt_emb"], np.asarray(y_prev)), state, c)


def output_log_probs(m, y_prev, dec_out, c):
    """The output layer alone, fed previous symbols `y_prev`."""
    y_emb = embed(m.store["tgt_emb"], np.asarray(y_prev))
    return model_mod._output_log_probs(m.store, [y_emb, dec_out, c])


def zero_params(store):
    for name, t in store.items():
        store.assign(name, np.zeros_like(t.data))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def ref_gru(store, prefix, x, h):
    """Independent numpy evaluation of the GRU cell."""
    w = lambda n: store[f"{prefix}.{n}"].data
    r = _sigmoid(x @ w("W_reset") + h @ w("U_reset") + w("b_reset"))
    u = _sigmoid(x @ w("W_update") + h @ w("U_update") + w("b_update"))
    cand = np.tanh(x @ w("W_cand") + (r * h) @ w("U_cand") + w("b_cand"))
    return (1.0 - u) * h + u * cand


class TestGruCell:
    def test_zero_weights_halve_state(self):
        store = ParameterStore("wide")
        for gate in ("reset", "update", "cand"):
            store.add(f"g.W_{gate}", np.zeros((1, 1)))
            store.add(f"g.U_{gate}", np.zeros((1, 1)))
            store.add(f"g.b_{gate}", np.zeros(1))
        h = gru_cell(store, "g", tensor([[0.0]], "wide"), tensor([[0.8]], "wide"))
        np.testing.assert_allclose(h.data, [[0.4]])

    def _random_cell(self, seed, d_in=3, d=4):
        rng = np.random.default_rng(seed)
        store = ParameterStore("wide")
        for gate in ("reset", "update", "cand"):
            store.add(f"g.W_{gate}", rng.normal(size=(d_in, d)))
            store.add(f"g.U_{gate}", rng.normal(size=(d, d)))
            store.add(f"g.b_{gate}", rng.normal(size=d))
        x = rng.normal(size=(2, d_in))
        h = rng.normal(size=(2, d))
        return store, x, h

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_reference(self, seed):
        store, x, h = self._random_cell(seed)
        out = gru_cell(store, "g", tensor(x, "wide"), tensor(h, "wide"))
        np.testing.assert_allclose(out.data, ref_gru(store, "g", x, h), atol=1e-12)

    def test_update_gate_forced_closed_keeps_state(self):
        store, x, h = self._random_cell(1)
        store.assign("g.W_update", np.zeros((3, 4)))
        store.assign("g.U_update", np.zeros((4, 4)))
        store.assign("g.b_update", np.full(4, -1000.0))
        out = gru_cell(store, "g", tensor(x, "wide"), tensor(h, "wide"))
        assert np.array_equal(out.data, h)

    def test_masked_rows_keep_state_bit_for_bit(self):
        store, x, h = self._random_cell(3)
        free = gru_cell(store, "g", tensor(x, "wide"), tensor(h, "wide"))
        out = gru_cell(store, "g", tensor(x, "wide"), tensor(h, "wide"), np.array([[1.0], [0.0]]))
        assert np.array_equal(out.data[0], free.data[0])
        assert np.array_equal(out.data[1], h[1]) and not np.array_equal(free.data[1], h[1])

    def test_update_gate_forced_open_gives_candidate(self):
        store, x, h = self._random_cell(2)
        store.assign("g.W_update", np.zeros((3, 4)))
        store.assign("g.U_update", np.zeros((4, 4)))
        store.assign("g.b_update", np.full(4, 1000.0))
        w = lambda n: store[f"g.{n}"].data
        r = _sigmoid(x @ w("W_reset") + h @ w("U_reset") + w("b_reset"))
        cand = np.tanh(x @ w("W_cand") + (r * h) @ w("U_cand") + w("b_cand"))
        out = gru_cell(store, "g", tensor(x, "wide"), tensor(h, "wide"))
        np.testing.assert_allclose(out.data, cand, atol=1e-15)


class TestFusedGruMatchesComposite:
    """float64 agreement of the fused cell with the composite oracle."""

    @staticmethod
    def _store(rng, batch, d_in, d):
        store = ParameterStore("wide")
        for gate in ("reset", "update", "cand"):
            store.add(f"g.W_{gate}", rng.normal(size=(d_in, d)))
            store.add(f"g.U_{gate}", rng.normal(size=(d, d)) / np.sqrt(d))
            store.add(f"g.b_{gate}", rng.normal(size=d))
        store.add("x", rng.normal(size=(batch, d_in)))
        store.add("h", np.tanh(rng.normal(size=(batch, d))))
        return store

    @staticmethod
    def _run(cell, store, probe):
        with Graph(store) as g:
            out = cell(store, "g", store["x"], store["h"])
            loss = sum_all(mul_const(out, probe))
        return out.data, {k: t.data for k, t in backward(g, loss).items()}, g

    @pytest.mark.parametrize("batch,d_in,d", [(1, 7, 5), (32, 7, 5), (32, 48, 64)])
    def test_output_and_every_gradient(self, batch, d_in, d):
        rng = np.random.default_rng(batch * 100 + d_in)
        store = self._store(rng, batch, d_in, d)
        probe = rng.normal(size=(batch, d))
        out, grads, graph = self._run(gru_cell, store, probe)
        ref_out, ref_grads, _ = self._run(composite_gru_cell, store, probe)
        assert [node.op for node in graph.nodes] == ["gru", "mul_const", "sum"]
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
        assert len(ref_grads) == 11 and all(np.any(g != 0.0) for g in ref_grads.values())
        assert_arrays_close(grads, ref_grads)

    def test_masked_encoder_chain(self, monkeypatch):
        m = tiny_model(21)  # d_emb 4 != d_enc 5
        rng = np.random.default_rng(21)
        source = rng.integers(4, 11, size=(3, 6))
        lengths = np.array([6, 3, 1])
        probe_ann = rng.normal(size=(3, 6, 10))
        probe_head = rng.normal(size=(3, 5))

        def run():
            with Graph(m.store) as g:
                ctx, head = encode(m.store, m.config, source, lengths)
                loss = add(sum_all(mul_const(ctx.annotations, probe_ann)),
                           sum_all(mul_const(head, probe_head)))
            grads = {k: t.data for k, t in backward(g, loss).items()}
            return ctx.annotations.data, head.data, grads

        ann, head, grads = run()
        monkeypatch.setattr(model_mod, "gru_cell", composite_gru_cell)
        ref_ann, ref_head, ref_grads = run()
        np.testing.assert_allclose(ann, ref_ann, rtol=0, atol=1e-10)
        np.testing.assert_allclose(head, ref_head, rtol=0, atol=1e-10)
        assert np.any(ref_grads["enc_bw.U_reset"] != 0.0)
        assert_arrays_close(grads, ref_grads)


class TestEncode:
    def test_single_position_matches_one_gru_step(self):
        m = tiny_model(3)
        src = np.array([[7]])
        ctx, head = encode(m.store, m.config, src)
        x = m.store["src_emb"].data[[7]]
        zero = np.zeros((1, 5))
        fw = ref_gru(m.store, "enc_fw", x, zero)
        bw = ref_gru(m.store, "enc_bw", x, zero)
        np.testing.assert_allclose(ctx.annotations.data[0, 0, :5], fw[0], atol=1e-12)
        np.testing.assert_allclose(ctx.annotations.data[0, 0, 5:], bw[0], atol=1e-12)
        np.testing.assert_allclose(head.data, bw, atol=1e-12)

    @pytest.mark.parametrize("t_x", [1, 2, 7, 23, 50])
    def test_row_count_matches_length(self, t_x):
        m = tiny_model(4)
        src = np.random.default_rng(t_x).integers(0, 11, size=(1, t_x))
        ctx, _ = m.encode(src)
        assert ctx.annotations.shape == (1, t_x, 10)
        assert ctx.mask.shape == (1, t_x) and ctx.mask.sum() == t_x

    def test_zero_weights_fixed_point(self):
        m = tiny_model(5)
        zero_params(m.store)
        ctx, _ = m.encode(np.array([[1, 2, 3, 4]]))
        assert np.all(ctx.annotations.data == 0.0)

    def test_padding_matches_unpadded_encode(self):
        m = tiny_model(6)
        full = np.array([[4, 5, 6, 1]])
        padded = np.array([[4, 5, 6, 1, 3, 3]])
        a, a_head = encode(m.store, m.config, full)
        b, b_head = encode(m.store, m.config, padded, lengths=np.array([4]))
        np.testing.assert_allclose(
            a.annotations.data, b.annotations.data[:, :4], atol=1e-12
        )
        np.testing.assert_allclose(a_head.data, b_head.data, atol=1e-12)

    def test_out_of_range_index(self):
        m = tiny_model(7)
        with pytest.raises(VocabularyError, match="found 11..11, vocabulary size 11"):
            m.encode(np.array([[11]]))

    def test_empty_source(self):
        m = tiny_model(8)
        with pytest.raises(ContractError):
            m.encode(np.zeros((1, 0), dtype=int))


class TestAttend:
    def test_singleton_source(self):
        m = tiny_model(9)
        ctx, _ = m.encode(np.array([[4]]))
        y_emb = tensor(np.zeros((1, 4)), "wide")
        q = tensor(np.zeros((1, 12)), "wide")
        context, alpha = attend(m.store, y_emb, q, ctx)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_allclose(context.data, ctx.annotations.data[:, 0], atol=1e-12)

    def test_zero_scoring_weights_give_uniform(self):
        m = tiny_model(10)
        for name in ("att.W_emb", "att.W_query", "att.W_key", "att.b", "att.v"):
            m.store.assign(name, np.zeros_like(m.store[name].data))
        ctx, _ = m.encode(np.array([[4, 5, 6, 7, 1]]))
        rng = np.random.default_rng(0)
        _, alpha = attend(m.store, tensor(rng.normal(size=(1, 4)), "wide"),
                          tensor(rng.normal(size=(1, 12)), "wide"), ctx)
        np.testing.assert_allclose(alpha.data, np.full((1, 5), 0.2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_context_in_convex_hull(self, seed):
        m = tiny_model(seed)
        rng = np.random.default_rng(seed)
        ctx, _ = m.encode(rng.integers(0, 11, size=(2, 6)))
        context, alpha = attend(m.store, tensor(rng.normal(size=(2, 4)), "wide"),
                                tensor(rng.normal(size=(2, 12)), "wide"), ctx)
        lo = ctx.annotations.data.min(axis=1) - 1e-12
        hi = ctx.annotations.data.max(axis=1) + 1e-12
        assert np.all(context.data >= lo) and np.all(context.data <= hi)
        np.testing.assert_allclose(alpha.data.sum(axis=1), [1.0, 1.0], atol=1e-6)

    def test_padded_positions_get_zero_weight(self):
        m = tiny_model(11)
        src = np.array([[4, 5, 1, 3, 3], [4, 5, 6, 7, 1]])
        ctx, _ = m.encode(src, lengths=np.array([3, 5]))
        rng = np.random.default_rng(1)
        _, alpha = attend(m.store, tensor(rng.normal(size=(2, 4)), "wide"),
                          tensor(rng.normal(size=(2, 12)), "wide"), ctx)
        assert np.all(alpha.data[0, 3:] == 0.0)
        np.testing.assert_allclose(alpha.data.sum(axis=1), [1.0, 1.0], atol=1e-6)

    def test_empty_context_rejected(self):
        m = tiny_model(12)
        empty = ContextSet(
            annotations=tensor(np.zeros((1, 0, 10)), "wide"),
            keys=tensor(np.zeros((1, 0, 6)), "wide"),
            mask=np.zeros((1, 0)),
        )
        with pytest.raises(ContractError):
            attend(m.store, tensor(np.zeros((1, 4)), "wide"),
                   tensor(np.zeros((1, 12)), "wide"), empty)


class TestBaseStep:
    def test_deterministic(self):
        m = tiny_model(13)
        ctx, state = m.encode(np.array([[4, 1]]))
        c = tensor(np.ones((1, 10)), "wide")
        a = decoder_step(m, [5], state, c)
        b = decoder_step(m, [5], state, c)
        assert np.array_equal(a.h1.data, b.h1.data)
        assert np.array_equal(a.h2.data, b.h2.data)

    def test_zero_weights_stay_zero(self):
        m = tiny_model(14)
        zero_params(m.store)
        ctx, state = m.encode(np.array([[4, 1]]))
        for tok in (BOS_ID, 5, 6):
            state = decoder_step(m, [tok], state, tensor(np.zeros((1, 10)), "wide"))
        assert np.all(state.h1.data == 0.0) and np.all(state.h2.data == 0.0)

    def test_out_of_range_symbol(self):
        m = tiny_model(15)
        ctx, state = m.encode(np.array([[4, 1]]))
        with pytest.raises(VocabularyError, match="found 9..9, vocabulary size 9"):
            m.step_log_probs([9], state, ctx)


def _force_gate(store, name, value):
    """Zero a bi-scale gate's weight matrix and pin its bias to +/-1000."""
    store.assign(f"bi.W_{name}", np.zeros_like(store[f"bi.W_{name}"].data))
    store.assign(f"bi.b_{name}", np.full_like(store[f"bi.b_{name}"].data, value))


def _arrays(state):
    return [getattr(state, f.name).data for f in fields(state)]


class TestBiscaleStep:
    def _setup(self, seed):
        m = tiny_model(seed, decoder="biscale")
        ctx, state = m.encode(np.array([[4, 5, 1]]))
        return m, ctx, state

    def test_g1_closed_freezes_slower_layer(self):
        m, ctx, state = self._setup(16)
        _force_gate(m.store, "g1", -1000.0)
        h2_start = state.h2.data.copy()
        c = tensor(np.ones((1, 10)), "wide")
        for tok in (BOS_ID, 5, 6, 7, 5):
            state = decoder_step(m, [tok], state, c)
            assert np.all(state.g1.data == 0.0)
            assert np.array_equal(state.h2.data, h2_start)

    def test_g1_open_resets_faster_and_updates_slower(self):
        m, ctx, state = self._setup(17)
        _force_gate(m.store, "g1", 1000.0)
        c = tensor(np.ones((1, 10)), "wide")
        w = lambda name: m.store[f"bi.{name}"].data
        for tok in (BOS_ID, 5, 6):
            prev, state = state, decoder_step(m, [tok], state, c)
            assert np.all(state.g1.data == 1.0)
            # the faster layer resets: the next step never reads its h1
            nudged = replace(state, h1=tensor(state.h1.data + 0.5, "wide"))
            after, after_nudged = (_arrays(decoder_step(m, [7], s, c)) for s in (state, nudged))
            assert all(map(np.array_equal, after, after_nudged))
            # the slower layer takes the candidate of this step's inputs whole
            ins2 = np.concatenate([state.h1.data, (1.0 - prev.g2.data) * prev.h2.data, c.data],
                                  axis=1)
            assert np.array_equal(state.h2.data, np.tanh(ins2 @ w("W_h2") + w("b_h2")))

    @pytest.mark.parametrize("seed", range(4))
    def test_state_identities_and_gate_range(self, seed):
        """Each step forms (1-g1)*h1, g1*h2 and (1-g2)*h2 from the previous
        state as the composite oracle spells them out, and both gates stay
        strictly inside (0, 1)."""
        m, ctx, state = self._setup(seed)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            c = tensor(rng.normal(size=(1, 10)), "wide")
            y_emb = embed(m.store["tgt_emb"], [int(rng.integers(0, 9))])
            want = composite_biscale_step(m.store, y_emb, state, c)
            state = m.decoder.step(m.store, y_emb, state, c)
            assert np.all((state.g1.data > 0.0) & (state.g1.data < 1.0))
            assert np.all((state.g2.data > 0.0) & (state.g2.data < 1.0))
            for got, ref in zip(_arrays(state), _arrays(want)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_widths_shared(self):
        m, ctx, state = self._setup(18)
        state = decoder_step(m, [5], state, tensor(np.ones((1, 10)), "wide"))
        assert state.h1.shape == state.h2.shape


class TestOutputLogProbs:
    def test_exp_sums_to_one(self):
        m = tiny_model(19)
        rng = np.random.default_rng(0)
        logp = output_log_probs(m, [4],
                                tensor(rng.normal(size=(1, 6)), "wide"),
                                tensor(rng.normal(size=(1, 10)), "wide"))
        np.testing.assert_allclose(np.exp(logp.data).sum(), 1.0, atol=1e-6)

    def test_zero_weights_uniform(self):
        m = tiny_model(20)
        zero_params(m.store)
        logp = output_log_probs(m, [4],
                                tensor(np.zeros((1, 6)), "wide"),
                                tensor(np.zeros((1, 10)), "wide"))
        np.testing.assert_allclose(logp.data, -np.log(9.0), atol=1e-12)

    def test_logit_shift_invariance(self):
        m = tiny_model(21)
        rng = np.random.default_rng(2)
        dec_out = tensor(rng.normal(size=(1, 6)), "wide")
        c = tensor(rng.normal(size=(1, 10)), "wide")
        before = output_log_probs(m, [4], dec_out, c)
        m.store.assign("out.b_logit", m.store["out.b_logit"].data + 7.5)
        after = output_log_probs(m, [4], dec_out, c)
        np.testing.assert_allclose(before.data, after.data, atol=1e-9)
        assert before.data.argmax() == after.data.argmax()


class TestSequenceLogProb:
    """Sequence scores: `score_pairs`, the batched teacher-forced scorer."""

    def test_total_is_sum_and_rows_normalized(self):
        m = tiny_model(22)
        src = np.array([4, 5, 6, EOS_ID])
        tgt = np.array([5, 7, 4, EOS_ID])
        [(per_pos, align)] = score_pairs(m, [src], [tgt])
        assert per_pos.shape == (4,) and per_pos.dtype == np.float64
        assert align.shape == (4, 4)
        np.testing.assert_allclose(align.sum(axis=1), np.ones(4), atol=1e-6)
        assert per_pos.sum() < 0.0

    def test_singleton_vocabulary_certain(self):
        m = tiny_model(23, tgt_vocab_size=1)
        [(per_pos, _)] = score_pairs(m, [np.array([4, 1])], [np.array([0, 0, 0])])
        assert per_pos.sum() == 0.0
        assert np.all(per_pos == 0.0)

    def test_no_pairs_no_scores(self):
        assert score_pairs(tiny_model(24), [], []) == []

    def test_empty_rejected(self):
        m = tiny_model(24)
        for sources, targets in (([np.array([], dtype=int)], [np.array([1])]),
                                 ([np.array([4, 1])], [np.array([], dtype=int)]),
                                 ([np.array([4, 1]), np.array([1])], [np.array([1])])):
            with pytest.raises(ContractError):
                score_pairs(m, sources, targets)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_equals_the_padded_pass(self, decoder, precision):
        """One unpadded row: the packed pass does the padded pass's arithmetic."""
        m = tiny_model(24, decoder=decoder, precision=precision)
        rng = np.random.default_rng(24)
        for _ in range(5):
            src = random_source(rng)
            tgt = np.append(rng.integers(4, 9, size=int(rng.integers(0, 7))), EOS_ID)
            [(per_pos, align)] = score_pairs(m, [src], [tgt])
            picked, alphas = forced_log_probs(m, src[None, :], None,
                                              np.concatenate([[BOS_ID], tgt])[None, :])
            assert np.array_equal(per_pos, picked.data[0].astype(float))
            assert np.array_equal(align, np.stack([a.data[0].astype(float) for a in alphas]))

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_batched_pairs_equal_their_one_row_passes(self, decoder, precision, monkeypatch):
        """Ragged pairs out of length order, several chunks: every pair's
        scores and alignment equal its own one-row `label_log_probs` pass,
        up to the summation order of the batched GEMMs. Float32 allows 16
        eps times the larger of 1 and the largest |log p| (a confident
        model's log p near 0 still carries its logits' rounding), and 16
        eps on an alignment weight."""
        monkeypatch.setattr(model_mod, "SEARCH_CHUNK", 5)
        cfg = tiny_config(decoder=decoder, precision=precision, d_emb=32, d_enc=48,
                          d_dec=64, d_att=48, tgt_vocab_size=60)
        m = Model(cfg, init_params(cfg, 77))
        rng = np.random.default_rng(77)
        for _ in range(20):
            count = int(rng.integers(1, 13))
            sources = [np.append(rng.integers(4, 11, size=int(rng.integers(0, 12))), EOS_ID)
                       for _ in range(count)]
            targets = [np.append(rng.integers(4, 60, size=int(rng.integers(0, 12))), EOS_ID)
                       for _ in range(count)]
            for src, tgt, (per_pos, align) in zip(sources, targets,
                                                   score_pairs(m, sources, targets)):
                picked, alphas = label_log_probs(m, src[None, :], [len(src)],
                                                 np.concatenate([[BOS_ID], tgt])[None, :],
                                                 [len(tgt) + 1])
                ref = picked.data.astype(float)
                ref_align = np.stack([a.data[0] for a in alphas]).astype(float)
                eps = np.finfo(picked.data.dtype).eps
                atol = 1e-12 if precision == "wide" else 16 * eps * max(1, np.abs(ref).max())
                assert per_pos.shape == ref.shape and align.shape == ref_align.shape
                np.testing.assert_allclose(per_pos, ref, rtol=0, atol=atol)
                np.testing.assert_allclose(align, ref_align, rtol=0,
                                           atol=1e-12 if precision == "wide" else 16 * eps)


class TestBatchingConsistency:
    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_forced_batch_matches_single_sentences(self, decoder):
        m = tiny_model(25, decoder=decoder)
        pairs = [
            (np.array([4, 5, 1]), np.array([6, 1])),
            (np.array([7, 1]), np.array([5, 8, 4, 1])),
            (np.array([9, 8, 7, 6, 1]), np.array([4, 1])),
        ]
        t_s = max(len(s) for s, _ in pairs)
        t_t = max(len(t) for _, t in pairs) + 1
        src = np.full((3, t_s), 3)
        tgt = np.full((3, t_t), 3)
        src_len = np.array([len(s) for s, _ in pairs])
        for i, (s, t) in enumerate(pairs):
            src[i, : len(s)] = s
            tgt[i, 0] = BOS_ID
            tgt[i, 1 : 1 + len(t)] = t
        picked, _ = forced_log_probs(m, src, src_len, tgt)
        for i, (s, t) in enumerate(pairs):
            [(per_pos, _)] = score_pairs(m, [s], [t])
            np.testing.assert_allclose(picked.data[i, : len(t)], per_pos, atol=1e-9)


    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("precision", ["wide", "narrow"])
    def test_batched_output_layer_matches_per_step(self, decoder, precision):
        """Training scores every position in one output-layer call; decoding
        scores one position per call. Float32 may differ by summation order
        only: a few ulps of the largest log-probability."""
        cfg = tiny_config(decoder=decoder, precision=precision, d_emb=32, d_enc=48,
                          d_dec=64, d_att=48, tgt_vocab_size=60)
        m = Model(cfg, init_params(cfg, 31))
        rng = np.random.default_rng(31)
        src = rng.integers(4, 11, size=(7, 6))
        src_len = rng.integers(1, 7, size=7)
        tgt = rng.integers(4, 60, size=(7, 9))
        tgt[:, 0] = BOS_ID
        picked, alphas = forced_log_probs(m, src, src_len, tgt)
        (ctx, state), rows = m.encode(src, src_len), np.arange(7)
        for t in range(8):
            logp, state, alpha = m.step_log_probs(tgt[:, t], state, ctx)
            ref = logp.data[rows, tgt[:, t + 1]]
            eps = np.finfo(logp.data.dtype).eps
            np.testing.assert_allclose(picked.data[:, t], ref, rtol=0,
                                       atol=16 * eps * np.abs(ref).max())
            assert np.array_equal(alpha.data, alphas[t].data)


class TestLabelLogProbs:
    # rows out of length order; target lengths (BOS + symbols + EOS) 3, 6, 2, 6
    SRC = np.array([[4, 5, 1, 3], [7, 1, 3, 3], [9, 8, 7, 1], [6, 1, 3, 3]])
    SRC_LEN = np.array([3, 2, 4, 2])
    TGT = np.array([[0, 5, 1, 3, 3, 3], [0, 7, 4, 6, 8, 1], [0, 1, 3, 3, 3, 3],
                    [0, 6, 6, 5, 2, 1]])
    TGT_LEN = np.array([3, 6, 2, 6])

    def _run(self, m, packed):
        mask = (np.arange(1, 6)[None, :] < self.TGT_LEN[:, None]).astype(float)
        with Graph(m.store) as graph:
            if packed:
                picked, _ = label_log_probs(m, self.SRC, self.SRC_LEN, self.TGT, self.TGT_LEN)
                loss = sum_all(picked)
            else:
                picked, _ = forced_log_probs(m, self.SRC, self.SRC_LEN, self.TGT)
                loss = sum_all(mul_const(picked, mask))
        grads = {k: t.data for k, t in backward(graph, loss).items()}
        return picked.data[mask > 0] if not packed else picked.data, loss, grads, graph

    @pytest.mark.parametrize("decoder,query", [("base", "both"), ("base", "faster"),
                                               ("biscale", "slower"), ("biscale", "both")])
    def test_matches_masked_forced_scores(self, decoder, query):
        """Same labels, loss and gradients as the padded pass (float64)."""
        m = tiny_model(41, decoder=decoder, attention_query=query)
        ref, ref_loss, ref_grads, _ = self._run(m, packed=False)
        got, loss, grads, graph = self._run(m, packed=True)
        np.testing.assert_allclose(np.sort(got), np.sort(ref), rtol=0, atol=1e-12)
        assert abs(float(loss.data) - float(ref_loss.data)) < 1e-10
        assert_arrays_close(grads, ref_grads)
        assert all(np.any(g != 0) for g in grads.values())

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_steps_only_the_rows_still_running(self, decoder):
        _, _, _, graph = self._run(tiny_model(41, decoder=decoder), packed=True)
        rows = [node.output[0].shape[0] for node in graph.nodes if node.op == "attention"]
        assert rows == [4, 3, 2, 2, 2]  # one label per row and position: 13 in all
        assert sum(node.op == "take_rows" for node in graph.nodes) == 2

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_alignment_rows_match_the_padded_pass(self, decoder):
        """Position t's rows are the live rows, longest target first."""
        m = tiny_model(41, decoder=decoder)
        _, alphas = label_log_probs(m, self.SRC, self.SRC_LEN, self.TGT, self.TGT_LEN)
        _, ref = forced_log_probs(m, self.SRC, self.SRC_LEN, self.TGT)
        order = np.argsort(-self.TGT_LEN, kind="stable")
        assert list(order) == [1, 3, 0, 2] and len(alphas) == len(ref) == 5
        for t, (got, want) in enumerate(zip(alphas, ref)):
            live = order[self.TGT_LEN[order] > t + 1]
            np.testing.assert_allclose(got.data, want.data[live], rtol=0, atol=1e-12)


class TestGradients:
    def _nll(self, m, src, src_len, tgt, mask):
        def loss_fn():
            with Graph(m.store) as g:
                picked, _ = forced_log_probs(m, src, src_len, tgt)
                loss = scale(sum_all(mul_const(picked, mask)), -1.0)
            return loss, g
        return loss_fn

    @pytest.mark.parametrize("decoder,query", [("base", "both"), ("biscale", "slower")])
    def test_nll_gradient_matches_finite_differences(self, decoder, query):
        m = tiny_model(26, decoder=decoder, attention_query=query)
        src = np.array([[4, 5, 6, 1], [7, 8, 1, 3]])
        src_len = np.array([4, 3])
        tgt = np.array([[0, 5, 6, 1, 3], [0, 7, 1, 3, 3]])
        mask = np.array([[1, 1, 1, 0.0], [1, 1, 0, 0.0]])
        loss_fn = self._nll(m, src, src_len, tgt, mask)
        loss, graph = loss_fn()
        from charnmt.numerics import backward

        analytic = backward(graph, loss)
        numeric = finite_difference_grads(lambda: float(loss_fn()[0].data), m.store)
        assert_grads_close(analytic, numeric)

    def test_five_unrolled_biscale_steps(self):
        m = tiny_model(27, decoder="biscale")
        src = np.array([[4, 5, 1]])
        tgt = np.array([[0, 5, 6, 7, 8, 1]])
        mask = np.ones((1, 5))
        loss_fn = self._nll(m, src, np.array([3]), tgt, mask)
        loss, graph = loss_fn()
        from charnmt.numerics import backward

        analytic = backward(graph, loss)
        numeric = finite_difference_grads(lambda: float(loss_fn()[0].data), m.store)
        assert_grads_close(analytic, numeric)


class TestConfigAndInit:
    def test_defaults(self):
        cfg = ModelConfig(src_vocab_size=10, tgt_vocab_size=10)
        assert (cfg.d_emb, cfg.d_enc, cfg.d_dec) == (64, 64, 128)
        assert cfg.attention_query == "both"
        cfg2 = ModelConfig(src_vocab_size=10, tgt_vocab_size=10, decoder="biscale")
        assert cfg2.attention_query == "slower"

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(src_vocab_size=10, tgt_vocab_size=10, decoder="lstm")
        with pytest.raises(ConfigError):
            ModelConfig(src_vocab_size=10, tgt_vocab_size=10, attention_query="top")
        with pytest.raises(ConfigError):
            ModelConfig(src_vocab_size=0, tgt_vocab_size=10)

    def test_init_deterministic_per_seed(self):
        cfg = tiny_config()
        a = init_params(cfg, 42)
        b = init_params(cfg, 42)
        c = init_params(cfg, 43)
        assert all(np.array_equal(a[n].data, b[n].data) for n, _ in a.items())
        assert any(not np.array_equal(a[n].data, c[n].data) for n, _ in a.items())

    def test_orthogonal_recurrent_matrices(self):
        store = init_params(tiny_config(), 0)
        u = store["enc_fw.U_cand"].data
        np.testing.assert_allclose(u @ u.T, np.eye(5), atol=1e-10)

    def test_precision_mismatch_rejected(self):
        cfg = tiny_config()
        store = ParameterStore("narrow")
        store.add("x", np.ones(1))
        with pytest.raises(ContractError):
            Model(cfg, store)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("query", ["slower", "faster", "both"])
    def test_init_follows_param_spec(self, decoder, query):
        cfg = tiny_config(decoder=decoder, attention_query=query, d_att=7)
        store = init_params(cfg, 0)
        spec = param_spec(cfg)
        assert [n for n, _ in store.items()] == [name for name, _, _ in spec]
        assert [store[name].shape for name, _, _ in spec] == [shape for _, shape, _ in spec]

    def test_biscale_store_has_no_base_matrices(self):
        store = init_params(tiny_config(decoder="biscale"), 0)
        assert "bi.W_h1" in store and "dec1.W_cand" not in store
