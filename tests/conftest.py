"""Shared helpers for building small models and corpora in tests, and the
oracles the fast paths are checked against: the model's layers built from
single-operation tape primitives, the padded teacher-forced pass, and the
per-sentence beam search."""

import os
import sys

# Before numpy loads: one BLAS thread unless the environment sets a count, as
# the CLI pins it. A plugin that imported numpy first would void the pin.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
if "numpy" in sys.modules:
    import warnings

    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

import charnmt.model as model_mod
from charnmt.decode import Hypothesis, _check_ensemble, ensemble_log_probs
from charnmt.errors import ConfigError, DimensionError, DomainError
from charnmt.model import (
    BiScaleState, ContextSet, Model, ModelConfig, _output_log_probs, init_params,
)
from charnmt.numerics import Tensor, _record, _sigmoid, affine, concat, linear, stack_time, tanh
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


# --- single-operation primitives: the composite layers below are built from
# them, one tape node per operation ---


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after a broadcasting forward op."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_shapes(op, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not match") from None


def mul_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Multiply by a non-differentiable constant (masks, scaling arrays)."""
    c = np.asarray(const, dtype=x.data.dtype)
    _broadcast_shapes("multiply", x, Tensor(c))
    y = x.data * c
    return _record("mul_const", (x,), y, lambda dy: (_unbroadcast(dy * c, x.shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("add", a, b)
    y = a.data + b.data
    return _record(
        "add", (a, b), y,
        lambda dy: (_unbroadcast(dy, a.shape), _unbroadcast(dy, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("multiply", a, b)
    y = a.data * b.data
    return _record(
        "multiply", (a, b), y,
        lambda dy: (_unbroadcast(dy * b.data, a.shape), _unbroadcast(dy * a.data, b.shape)),
    )


def one_minus(x: Tensor) -> Tensor:
    """1 - x, the (1 - g) form used by gates."""
    return _record("subtract_from_one", (x,), 1.0 - x.data, lambda dy: (-dy,))


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _record("sigmoid", (x,), y, lambda dy: (dy * y * (1.0 - y),))


def softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Probabilities along the last axis, max-subtracted for stability.

    `mask` (same shape, nonzero = valid) zeroes out invalid positions; each
    row must keep at least one valid entry.
    """
    x = logits.data
    if x.size == 0:
        raise DomainError("softmax of an empty tensor")
    if mask is not None:
        valid = np.asarray(mask, dtype=bool)
        shifted = x - np.max(np.where(valid, x, -np.inf), axis=-1, keepdims=True)
        e = np.exp(shifted) * valid
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(dy):
        inner = (dy * y).sum(axis=-1, keepdims=True)
        return (y * (dy - inner),)

    return _record("softmax", (logits,), y, grad)


def log_softmax(logits: Tensor) -> Tensor:
    x = logits.data
    if x.size == 0:
        raise DomainError("log_softmax of an empty tensor")
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    y = x - lse

    def grad(dy):
        return (dy - np.exp(y) * dy.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (logits,), y, grad)


def attn_mix(alpha: Tensor, ctx: Tensor) -> Tensor:
    """Weighted sum of context rows: (B,T) x (B,T,D) -> (B,D)."""
    if alpha.shape != ctx.shape[:2]:
        raise DimensionError(f"attn_mix: weights {alpha.shape} vs context {ctx.shape}")
    y = np.einsum("bt,btd->bd", alpha.data, ctx.data)

    def grad(dy):
        dalpha = np.einsum("bd,btd->bt", dy, ctx.data)
        dctx = alpha.data[:, :, None] * dy[:, None, :]
        return dalpha, dctx

    return _record("attn_mix", (alpha, ctx), y, grad)


def pick(x: Tensor, ids: np.ndarray) -> Tensor:
    """Per-row element selection: (B, V), (B,) -> (B,)."""
    ids = np.asarray(ids)
    if x.ndim != 2 or ids.shape != (x.shape[0],):
        raise DimensionError(f"pick: x {x.shape} vs ids {ids.shape}")
    rows = np.arange(x.shape[0])
    y = x.data[rows, ids]

    def grad(dy):
        dx = np.zeros_like(x.data)
        dx[rows, ids] = dy
        return (dx,)

    return _record("pick", (x,), y, grad)


def reshape(x: Tensor, shape) -> Tensor:
    y = x.data.reshape(shape)
    return _record("reshape", (x,), y, lambda dy: (dy.reshape(x.shape),))


# --- composite layers: the oracles of the fused primitives ---


def composite_gru_cell(store, prefix, x, h_prev, mask=None):
    """The GRU cell built from tape primitives, one node per operation.

    Same signature as `charnmt.model.gru_cell`; the oracle that the fused
    `numerics.gru` primitive and its hand-written backward must agree with.
    Rows where `mask` is 0 keep h_prev through the blend the encoder used.
    """
    r = sigmoid(add(linear(x, store[f"{prefix}.W_reset"]),
                    affine(h_prev, store[f"{prefix}.U_reset"], store[f"{prefix}.b_reset"])))
    u = sigmoid(add(linear(x, store[f"{prefix}.W_update"]),
                    affine(h_prev, store[f"{prefix}.U_update"], store[f"{prefix}.b_update"])))
    cand = tanh(add(linear(x, store[f"{prefix}.W_cand"]),
                    affine(mul(r, h_prev), store[f"{prefix}.U_cand"], store[f"{prefix}.b_cand"])))
    h = add(mul(one_minus(u), h_prev), mul(u, cand))
    if mask is None:
        return h
    return add(mul_const(h, mask), mul_const(h_prev, 1.0 - np.asarray(mask)))


def composite_attend(store, y_emb, query, ctx):
    """`charnmt.model.attend` from single operations: the oracle of
    `numerics.attention`."""
    step_part = add(affine(y_emb, store["att.W_emb"], store["att.b"]),
                    linear(query, store["att.W_query"]))
    B = step_part.shape[0]
    hidden = tanh(add(ctx.keys, reshape(step_part, (B, 1, step_part.shape[-1]))))
    scores = reshape(linear(hidden, store["att.v"]), (B, ctx.max_len))
    alpha = softmax(scores, mask=ctx.mask)
    return attn_mix(alpha, ctx.annotations), alpha


def composite_biscale_step(store, y_emb, state, c):
    """The bi-scale decoder step from single operations: the oracle of
    `numerics.biscale`."""
    ins1 = concat([y_emb, mul(one_minus(state.g1), state.h1), mul(state.g1, state.h2), c])
    h1 = tanh(affine(ins1, store["bi.W_h1"], store["bi.b_h1"]))
    g1 = sigmoid(affine(ins1, store["bi.W_g1"], store["bi.b_g1"]))
    ins2 = concat([mul(g1, h1), mul(one_minus(state.g2), state.h2), c])
    cand = tanh(affine(ins2, store["bi.W_h2"], store["bi.b_h2"]))
    h2 = add(mul(one_minus(g1), state.h2), mul(g1, cand))
    g2 = sigmoid(affine(ins2, store["bi.W_g2"], store["bi.b_g2"]))
    return BiScaleState(h1=h1, h2=h2, g1=g1, g2=g2)


def composite_output_log_probs(store, parts, targets=None):
    """The output layer from single operations (with `targets`: picked
    position by position): the oracle of `numerics.output_layer`."""
    hidden = tanh(affine(concat(parts), store["out.W_hidden"], store["out.b_hidden"]))
    logp = log_softmax(affine(hidden, store["out.W_logit"], store["out.b_logit"]))
    if targets is None:
        return logp
    targets = np.asarray(targets)
    flat = reshape(logp, (targets.size, logp.shape[-1]))
    return reshape(pick(flat, targets.reshape(-1)), targets.shape)


def use_composite_layers(monkeypatch):
    """Make `charnmt.model` run every fused layer through its oracle."""
    monkeypatch.setattr(model_mod, "gru_cell", composite_gru_cell)
    monkeypatch.setattr(model_mod, "attend", composite_attend)
    monkeypatch.setattr(model_mod, "_output_log_probs", composite_output_log_probs)
    monkeypatch.setattr(model_mod._BiScaleDecoder, "step",
                        lambda self, *args: composite_biscale_step(*args))


def forced_log_probs(model: Model, source, src_lengths, target):
    """Teacher-forced pass over a batch.

    `target` is (B, T) holding BOS + symbols + EOS (+ PAD). The recurrence
    runs position by position; the output layer then runs once over all
    positions, since under teacher forcing it never feeds the recurrence.
    Returns the picked log-probability Tensor of shape (B, T-1) — position
    j scores target[:, j+1] — and the list of T-1 alignment Tensors.
    """
    target = np.asarray(target)
    ctx, state = model.encode(source, src_lengths)
    steps, alphas = [], []
    for t in range(target.shape[1] - 1):
        parts, state, alpha = model.advance(target[:, t], state, ctx)
        steps.append(parts)
        alphas.append(alpha)
    stacked = [stack_time(list(column)) for column in zip(*steps)]
    return _output_log_probs(model.store, stacked, target[:, 1:]), alphas


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
    ctxs, states = map(list, zip(*(m.encode(source) for m in models)))
    live_tokens: list[list[int]] = [[]]
    live_aligns = [np.zeros((0, source.shape[1]), dtype=models[0].store.dtype)]
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
            als = np.vstack([live_aligns[h], alpha[h]])
            if tok == EOS_ID:
                pool.append(Hypothesis(tokens=toks, score=score, alignments=als))
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
                alignments=np.vstack([live_aligns[i], alpha[i]]),
                truncated=True,
            ))

    rank = (lambda h: h.score / len(h.tokens)) if length_normalize else (lambda h: h.score)
    return sorted(pool, key=rank, reverse=True)
