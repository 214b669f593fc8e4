"""The conditional translation model p(Y|X).

A bidirectional GRU encoder turns the source into per-position annotation
vectors; a soft-alignment network mixes them into a context vector each
output step; one of two decoders (a 2-layer stacked GRU, or a two-timescale
"bi-scale" network with faster and slower units) advances the target state;
a one-hidden-layer output network yields log-probabilities over the target
vocabulary.

All step functions are batched: index arrays have shape (B,) or (B, T) and
hidden states (B, width). Run under an active numerics.Graph to record
gradients; without one they compute forward values only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ContractError, VocabularyError
from .textpipe import BOS_ID
from .numerics import (
    ParameterStore,
    Tensor,
    add,
    affine,
    attn_mix,
    concat,
    embed,
    gru,
    linear,
    log_softmax,
    mul,
    mul_const,
    one_minus,
    pick,
    reshape,
    sigmoid,
    softmax,
    stack_time,
    tanh,
    tensor,
)

DECODER_KINDS = ("base", "biscale")
QUERY_MODES = ("slower", "faster", "both")
DEFAULT_QUERY = {"base": "both", "biscale": "slower"}


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    d_emb: int = 64
    d_enc: int = 64
    d_dec: int = 128
    d_att: int | None = None
    decoder: str = "base"
    attention_query: str | None = None
    precision: str = "narrow"

    def __post_init__(self):
        if self.decoder not in DECODER_KINDS:
            raise ConfigError(f"unknown decoder kind {self.decoder!r}")
        if self.attention_query is None:
            self.attention_query = DEFAULT_QUERY[self.decoder]
        if self.attention_query not in QUERY_MODES:
            raise ConfigError(f"unknown attention query {self.attention_query!r}")
        if self.d_att is None:
            self.d_att = self.d_dec
        for name in ("src_vocab_size", "tgt_vocab_size", "d_emb", "d_enc", "d_dec", "d_att"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.precision not in ("wide", "narrow"):
            raise ConfigError(f"unknown precision {self.precision!r}")

    def query_width(self) -> int:
        return self.d_dec * (2 if self.attention_query == "both" else 1)

    def output_width(self) -> int:
        return self.d_dec * (2 if self.decoder == "biscale" else 1)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _uniform(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _add_gru(store, rng, prefix, d_in, d_state):
    for gate in ("reset", "update", "cand"):
        store.add(f"{prefix}.W_{gate}", _uniform(rng, (d_in, d_state)))
        store.add(f"{prefix}.U_{gate}", _orthogonal(rng, d_state))
        store.add(f"{prefix}.b_{gate}", np.zeros(d_state))


def init_params(config: ModelConfig, seed: int) -> ParameterStore:
    """Seed-deterministic parameter construction for one model."""
    rng = np.random.default_rng(seed)
    store = ParameterStore(config.precision)
    c = config
    store.add("src_emb", _uniform(rng, (c.src_vocab_size, c.d_emb)))
    store.add("tgt_emb", _uniform(rng, (c.tgt_vocab_size, c.d_emb)))
    _add_gru(store, rng, "enc_fw", c.d_emb, c.d_enc)
    _add_gru(store, rng, "enc_bw", c.d_emb, c.d_enc)
    store.add("dec_init.W", _uniform(rng, (c.d_enc, c.d_dec)))
    store.add("dec_init.b", np.zeros(c.d_dec))
    store.add("att.W_emb", _uniform(rng, (c.d_emb, c.d_att)))
    store.add("att.W_query", _uniform(rng, (c.query_width(), c.d_att)))
    store.add("att.W_key", _uniform(rng, (2 * c.d_enc, c.d_att)))
    store.add("att.b", np.zeros(c.d_att))
    store.add("att.v", _uniform(rng, (c.d_att, 1)))
    if c.decoder == "base":
        _add_gru(store, rng, "dec1", c.d_emb + 2 * c.d_enc, c.d_dec)
        _add_gru(store, rng, "dec2", c.d_dec, c.d_dec)
    else:
        d_in1 = c.d_emb + 2 * c.d_dec + 2 * c.d_enc
        d_in2 = 2 * c.d_dec + 2 * c.d_enc
        for name, d_in in (("h1", d_in1), ("g1", d_in1), ("h2", d_in2), ("g2", d_in2)):
            store.add(f"bi.W_{name}", _uniform(rng, (d_in, c.d_dec)))
            store.add(f"bi.b_{name}", np.zeros(c.d_dec))
    store.add("out.W_hidden", _uniform(rng, (c.d_emb + c.output_width() + 2 * c.d_enc, c.d_dec)))
    store.add("out.b_hidden", np.zeros(c.d_dec))
    store.add("out.W_logit", _uniform(rng, (c.d_dec, c.tgt_vocab_size)))
    store.add("out.b_logit", np.zeros(c.tgt_vocab_size))
    return store


def _check_ids(ids, size, side):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise VocabularyError(
            f"{side} index out of range: found {int(ids.min())}..{int(ids.max())}, "
            f"vocabulary size {size}"
        )


def _zeros(shape, store):
    return tensor(np.zeros(shape), store.precision)


def gru_cell(store: ParameterStore, prefix: str, x: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU update, reset gate applied to h_prev inside the candidate."""
    return gru(x, h_prev, *(store[f"{prefix}.{kind}_{gate}"]
                            for kind in ("W", "U", "b") for gate in ("reset", "update", "cand")))


@dataclass
class ContextSet:
    """Per-source-position annotations z_t = [forward; backward] plus their
    cached projection through the alignment net's key matrix."""

    annotations: Tensor  # (B, T_x, 2*d_enc)
    keys: Tensor  # (B, T_x, d_att)
    mask: np.ndarray  # (B, T_x), 1.0 at real positions
    lengths: np.ndarray  # (B,)
    backward_head: Tensor  # (B, d_enc): backward state at the first position

    @property
    def max_len(self) -> int:
        return self.annotations.shape[1]


def encode(store: ParameterStore, config: ModelConfig, source, lengths=None) -> ContextSet:
    """Run both encoder directions over a (B, T_x) index matrix.

    Positions at or past a row's length are padding: they advance neither
    direction's state and are masked out of later alignment weights.
    """
    source = np.asarray(source)
    if source.ndim == 1:
        source = source[None, :]
    B, T = source.shape
    if T < 1:
        raise ContractError("encode: empty source")
    _check_ids(source, config.src_vocab_size, "source")
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)

    emb_table = store["src_emb"]
    xs = [embed(emb_table, source[:, t]) for t in range(T)]

    def masked_chain(prefix, order):
        h = _zeros((B, config.d_enc), store)
        states = {}
        for t in order:
            h_new = gru_cell(store, prefix, xs[t], h)
            m = mask[:, t : t + 1]
            h = add(mul_const(h_new, m), mul_const(h, 1.0 - m))
            states[t] = h
        return states, h

    fw, _ = masked_chain("enc_fw", range(T))
    bw, backward_head = masked_chain("enc_bw", range(T - 1, -1, -1))
    rows = [concat([fw[t], bw[t]]) for t in range(T)]
    annotations = stack_time(rows)
    keys = linear(annotations, store["att.W_key"])
    return ContextSet(annotations, keys, mask, lengths, backward_head)


@dataclass
class AttentionOutput:
    context: Tensor  # (B, 2*d_enc)
    alpha: Tensor  # (B, T_x), rows sum to 1 over real positions


def attend(store: ParameterStore, y_emb: Tensor, query: Tensor, ctx: ContextSet) -> AttentionOutput:
    """Score every source annotation against (prev-symbol embedding, query
    state), softmax into alignment weights, and mix the annotations."""
    if ctx.max_len == 0:
        raise ContractError("attend: empty context set")
    step_part = add(affine(y_emb, store["att.W_emb"], store["att.b"]),
                    linear(query, store["att.W_query"]))
    B = step_part.shape[0]
    hidden = tanh(add(ctx.keys, reshape(step_part, (B, 1, step_part.shape[-1]))))
    scores = reshape(linear(hidden, store["att.v"]), (B, ctx.max_len))
    alpha = softmax(scores, mask=ctx.mask)
    return AttentionOutput(context=attn_mix(alpha, ctx.annotations), alpha=alpha)


@dataclass
class BaseDecoderState:
    h1: Tensor
    h2: Tensor


@dataclass
class BiScaleState:
    """Faster/slower hidden units with the gated variants one step carries.

    `h1_carried` = (1-g1)*h1 feeds the next faster update; `h2_feedback` =
    g1*h2 is the slower layer's top-down signal to the faster layer;
    `h2_carried` = (1-g2)*h2 enters the next candidate and gate inputs.
    """

    h1: Tensor
    h2: Tensor
    g1: Tensor
    g2: Tensor
    cand: Tensor
    h1_carried: Tensor
    h2_feedback: Tensor
    h2_carried: Tensor


def _base_step(store, y_emb, state, c):
    h1 = gru_cell(store, "dec1", concat([y_emb, c]), state.h1)
    h2 = gru_cell(store, "dec2", h1, state.h2)
    return BaseDecoderState(h1, h2)


def _biscale_step(store, y_emb, state, c):
    ins1 = concat([y_emb, state.h1_carried, state.h2_feedback, c])
    h1 = tanh(affine(ins1, store["bi.W_h1"], store["bi.b_h1"]))
    g1 = sigmoid(affine(ins1, store["bi.W_g1"], store["bi.b_g1"]))
    reset = mul(g1, h1)
    ins2 = concat([reset, state.h2_carried, c])
    cand = tanh(affine(ins2, store["bi.W_h2"], store["bi.b_h2"]))
    h2 = add(mul(one_minus(g1), state.h2), mul(g1, cand))
    g2 = sigmoid(affine(ins2, store["bi.W_g2"], store["bi.b_g2"]))
    return BiScaleState(
        h1=h1, h2=h2, g1=g1, g2=g2, cand=cand,
        h1_carried=mul(one_minus(g1), h1),
        h2_feedback=mul(g1, h2),
        h2_carried=mul(one_minus(g2), h2),
    )


def base_step(store: ParameterStore, config: ModelConfig, y_prev, state: BaseDecoderState,
              c: Tensor) -> BaseDecoderState:
    """Stacked update: layer 1 reads [e_y(y_prev); c], layer 2 reads layer 1."""
    _check_ids(y_prev, config.tgt_vocab_size, "target")
    return _base_step(store, embed(store["tgt_emb"], np.asarray(y_prev)), state, c)


def biscale_step(store: ParameterStore, config: ModelConfig, y_prev, state: BiScaleState,
                 c: Tensor) -> BiScaleState:
    """Two-timescale update.

    The faster layer h1 reads the previous symbol, its own reset-gated past,
    the slower layer's gated feedback, and the context. The slower layer h2
    leak-integrates a candidate, moving only where the faster layer's gate
    g1 opens (i.e. where the faster layer is about to reset itself).
    """
    _check_ids(y_prev, config.tgt_vocab_size, "target")
    return _biscale_step(store, embed(store["tgt_emb"], np.asarray(y_prev)), state, c)


def output_log_probs(store: ParameterStore, config: ModelConfig, y_prev, dec_out: Tensor,
                     c: Tensor) -> Tensor:
    """Log-probabilities over the target vocabulary for the next symbol."""
    _check_ids(y_prev, config.tgt_vocab_size, "target")
    y_emb = embed(store["tgt_emb"], np.asarray(y_prev))
    return _output_log_probs(store, y_emb, dec_out, c)


def _output_log_probs(store, y_emb, dec_out, c):
    hidden = tanh(affine(concat([y_emb, dec_out, c]), store["out.W_hidden"], store["out.b_hidden"]))
    return log_softmax(affine(hidden, store["out.W_logit"], store["out.b_logit"]))


class _BaseDecoder:
    kind = "base"

    def initial_state(self, store, ctx):
        h1 = tanh(affine(ctx.backward_head, store["dec_init.W"], store["dec_init.b"]))
        return BaseDecoderState(h1=h1, h2=_zeros(h1.shape, store))

    def query(self, state, mode):
        if mode == "faster":
            return state.h1
        if mode == "slower":
            return state.h2
        return concat([state.h1, state.h2])

    def step(self, store, y_emb, state, c):
        return _base_step(store, y_emb, state, c)

    def output_vector(self, state):
        return state.h2


class _BiScaleDecoder:
    kind = "biscale"

    def initial_state(self, store, ctx):
        h2 = tanh(affine(ctx.backward_head, store["dec_init.W"], store["dec_init.b"]))
        zero = _zeros(h2.shape, store)
        return BiScaleState(
            h1=zero, h2=h2, g1=zero, g2=zero, cand=zero,
            h1_carried=zero, h2_feedback=zero, h2_carried=h2,
        )

    def query(self, state, mode):
        if mode == "faster":
            return state.h1
        if mode == "slower":
            return state.h2
        return concat([state.h1, state.h2])

    def step(self, store, y_emb, state, c):
        return _biscale_step(store, y_emb, state, c)

    def output_vector(self, state):
        return concat([state.h1, state.h2])


def make_decoder(kind: str):
    if kind == "base":
        return _BaseDecoder()
    if kind == "biscale":
        return _BiScaleDecoder()
    raise ConfigError(f"unknown decoder kind {kind!r}")


@dataclass
class Model:
    """Config + parameters + decoder bundled behind a stepwise API."""

    config: ModelConfig
    store: ParameterStore
    decoder: object = field(init=False)

    def __post_init__(self):
        if self.config.precision != self.store.precision:
            raise ContractError(
                f"config precision {self.config.precision!r} != "
                f"store precision {self.store.precision!r}"
            )
        self.decoder = make_decoder(self.config.decoder)

    def encode(self, source, lengths=None) -> ContextSet:
        return encode(self.store, self.config, source, lengths)

    def initial_state(self, ctx: ContextSet):
        return self.decoder.initial_state(self.store, ctx)

    def step_log_probs(self, y_prev, state, ctx: ContextSet):
        """Advance one target position.

        Attends with the previous state as query, steps the decoder on the
        resulting context, scores the next symbol. Returns (log-probability
        Tensor (B, |V_y|), new state, alignment row Tensor (B, T_x)).
        """
        _check_ids(y_prev, self.config.tgt_vocab_size, "target")
        y_emb = embed(self.store["tgt_emb"], np.asarray(y_prev))
        att = attend(self.store, y_emb, self.decoder.query(state, self.config.attention_query), ctx)
        new_state = self.decoder.step(self.store, y_emb, state, att.context)
        logp = _output_log_probs(self.store, y_emb, self.decoder.output_vector(new_state), att.context)
        return logp, new_state, att.alpha


def forced_log_probs(model: Model, source, src_lengths, target):
    """Teacher-forced pass over a batch.

    `target` is (B, T) holding BOS + symbols + EOS (+ PAD). Returns the
    picked log-probability Tensor of shape (B, T-1) — position j scores
    target[:, j+1] — and the list of T-1 alignment Tensors.
    """
    target = np.asarray(target)
    ctx = model.encode(source, src_lengths)
    state = model.initial_state(ctx)
    picks, alphas = [], []
    for t in range(target.shape[1] - 1):
        logp, state, alpha = model.step_log_probs(target[:, t], state, ctx)
        picks.append(reshape(pick(logp, target[:, t + 1]), (target.shape[0], 1)))
        alphas.append(alpha)
    return concat(picks), alphas


def sequence_log_prob(model: Model, source, target):
    """Score one EOS-terminated sentence pair (no BOS in `target`).

    Returns (total log-probability, per-position log-probabilities (T_y,),
    alignment matrix (T_y, T_x)) as plain floats/arrays.
    """
    source = np.asarray(source)
    target = np.asarray(target)
    if source.size == 0 or target.size == 0:
        raise ContractError("sequence_log_prob: empty sequence")
    inputs = np.concatenate([[BOS_ID], target[:-1]])
    ctx = model.encode(source[None, :])
    state = model.initial_state(ctx)
    per_pos, align = [], []
    for t in range(target.size):
        logp, state, alpha = model.step_log_probs(inputs[t : t + 1], state, ctx)
        per_pos.append(float(logp.data[0, target[t]]))
        align.append(alpha.data[0].astype(float))
    return float(np.sum(per_pos)), np.array(per_pos), np.stack(align)
