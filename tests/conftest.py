"""Shared helpers for building small models and corpora in tests."""

import dataclasses

import numpy as np

from charnmt.decode import Hypothesis, _check_ensemble, ensemble_log_probs
from charnmt.errors import ConfigError
from charnmt.model import ContextSet, Model, ModelConfig, init_params
from charnmt.numerics import Tensor, add, affine, linear, mul, one_minus, sigmoid, tanh
from charnmt.textpipe import BOS_ID, EOS_ID

COPY_WORDS = ("abc", "bca", "cab", "acb", "bac", "cba", "aab", "bcc", "caa", "abb")


def small_model(seed=0, decoder="base", precision="wide", src_vocab=11, tgt_vocab=9, **kw):
    cfg = ModelConfig(
        src_vocab_size=src_vocab, tgt_vocab_size=tgt_vocab,
        d_emb=4, d_enc=5, d_dec=6, decoder=decoder, precision=precision, **kw,
    )
    return Model(cfg, init_params(cfg, seed))


def random_source(rng, vocab_size=11, max_len=8):
    n = int(rng.integers(1, max_len))
    body = rng.integers(4, vocab_size, size=n)
    return np.concatenate([body, [EOS_ID]])


def copy_task_corpus(n_pairs: int = 400, seed: int = 5,
                     words_per_sentence: tuple[int, int] = (3, 6),
                     ) -> list[tuple[str, str]]:
    """Distinct random copy pairs; variety makes attention track position."""
    if n_pairs < 1:
        raise ConfigError("n_pairs must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = words_per_sentence
    lines: list[str] = []
    seen = set()
    while len(lines) < n_pairs:
        count = int(rng.integers(lo, hi + 1))
        line = " ".join(COPY_WORDS[i]
                        for i in rng.integers(0, len(COPY_WORDS), size=count))
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return [(line, line) for line in lines]


def composite_gru_cell(store, prefix, x, h_prev):
    """The GRU cell built from tape primitives, one node per operation.

    Same signature as `charnmt.model.gru_cell`; the oracle that the fused
    `numerics.gru` primitive and its hand-written backward must agree with.
    """
    r = sigmoid(add(linear(x, store[f"{prefix}.W_reset"]),
                    affine(h_prev, store[f"{prefix}.U_reset"], store[f"{prefix}.b_reset"])))
    u = sigmoid(add(linear(x, store[f"{prefix}.W_update"]),
                    affine(h_prev, store[f"{prefix}.U_update"], store[f"{prefix}.b_update"])))
    cand = tanh(add(linear(x, store[f"{prefix}.W_cand"]),
                    affine(mul(r, h_prev), store[f"{prefix}.U_cand"], store[f"{prefix}.b_cand"])))
    return add(mul(one_minus(u), h_prev), mul(u, cand))


def assert_arrays_close(got, want, atol=1e-10):
    """Same keys, and every array within `atol` of its counterpart."""
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=atol, err_msg=name)


def _select_state_rows(state, rows):
    vals = {
        f.name: Tensor(getattr(state, f.name).data[rows])
        for f in dataclasses.fields(state)
    }
    return type(state)(**vals)


def _tile_ctx(ctx: ContextSet, n: int) -> ContextSet:
    if ctx.annotations.shape[0] == n:
        return ctx
    rep = lambda a: np.repeat(a, n, axis=0)
    return ContextSet(
        annotations=Tensor(rep(ctx.annotations.data)),
        keys=Tensor(rep(ctx.keys.data)),
        mask=rep(ctx.mask),
        lengths=np.repeat(ctx.lengths, n),
        backward_head=Tensor(rep(ctx.backward_head.data)),
    )


def _ensemble_step(models, ctxs, states, y_prev, n):
    logps, alphas, new_states = [], [], []
    for model, ctx, st in zip(models, ctxs, states):
        logp, ns, alpha = model.step_log_probs(y_prev, st, _tile_ctx(ctx, n))
        logps.append(logp.data)
        alphas.append(alpha.data)
        new_states.append(ns)
    return ensemble_log_probs(logps), np.mean(alphas, axis=0), new_states


def reference_beam_search(models, source, width: int, max_len: int,
                          length_normalize: bool = False) -> list[Hypothesis]:
    """Likelihood beam search over one unpadded sentence, one hypothesis
    list per step: the oracle that the batched `charnmt.decode.beam_search`
    must agree with, row by row.

    Each step expands every live hypothesis over the full vocabulary and
    keeps the `width` best extensions by accumulated log-probability (ties:
    lower token index, then lower parent index). The chain of per-step argmax
    continuations is never pruned: if it falls outside the top `width` it
    takes the worst slot. Extensions ending in EOS retire to a completed
    pool. The search stops when every live hypothesis scores below the
    pool's best or at `max_len`, where survivors are force-finished with a
    scored EOS. Returns the pool ranked by score (mean per-token score if
    `length_normalize`).
    """
    if width < 1:
        raise ConfigError(f"beam width must be at least 1, got {width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be positive, got {max_len}")
    _check_ensemble(models)
    source = np.asarray(source)
    if source.ndim == 1:
        source = source[None, :]
    V = models[0].config.tgt_vocab_size
    ctxs = [m.encode(source) for m in models]
    states = [m.initial_state(ctx) for m, ctx in zip(models, ctxs)]
    live_tokens: list[list[int]] = [[]]
    live_aligns: list[list[np.ndarray]] = [[]]
    live_scores = np.zeros(1)
    pool: list[Hypothesis] = []
    chain = 0  # live row tracing the greedy path; None once it retires

    for _ in range(max_len):
        n = len(live_tokens)
        y_prev = np.array([t[-1] if t else BOS_ID for t in live_tokens])
        avg, alpha, stepped = _ensemble_step(models, ctxs, states, y_prev, n)
        flat = (live_scores[:, None] + avg).ravel()
        hyp_of = np.repeat(np.arange(n), V)
        tok_of = np.tile(np.arange(V), n)
        order = np.lexsort((hyp_of, tok_of, -flat))[:width]
        g_tok = None
        if chain is not None:
            g_tok = int(avg[chain].argmax())
            g_flat = chain * V + g_tok
            if g_flat not in order:
                order[-1] = g_flat
                order = order[np.lexsort((hyp_of[order], tok_of[order], -flat[order]))]

        keep_rows, keep_tokens, keep_aligns, keep_scores = [], [], [], []
        next_chain = None
        for cand in order:
            h, tok = int(hyp_of[cand]), int(tok_of[cand])
            score = float(flat[cand])
            toks = live_tokens[h] + [tok]
            als = live_aligns[h] + [alpha[h].copy()]
            if tok == EOS_ID:
                pool.append(Hypothesis(
                    tokens=toks, score=score,
                    alignments=als, finished=True,
                ))
            else:
                keep_rows.append(h)
                keep_tokens.append(toks)
                keep_aligns.append(als)
                keep_scores.append(score)
                if h == chain and tok == g_tok:
                    next_chain = len(keep_rows) - 1
        chain = next_chain

        if not keep_rows:
            live_tokens = []
            break
        if pool and max(keep_scores) < max(p.score for p in pool):
            live_tokens = []
            break
        states = [_select_state_rows(s, keep_rows) for s in stepped]
        live_tokens, live_aligns = keep_tokens, keep_aligns
        live_scores = np.array(keep_scores)

    if live_tokens:
        n = len(live_tokens)
        y_prev = np.array([t[-1] for t in live_tokens])
        avg, alpha, _ = _ensemble_step(models, ctxs, states, y_prev, n)
        for i in range(n):
            pool.append(Hypothesis(
                tokens=live_tokens[i] + [EOS_ID],
                score=float(live_scores[i] + avg[i, EOS_ID]),
                alignments=live_aligns[i] + [alpha[i].copy()],
                finished=True, truncated=True,
            ))

    rank = (lambda h: h.score / len(h.tokens)) if length_normalize else (lambda h: h.score)
    return sorted(pool, key=rank, reverse=True)
