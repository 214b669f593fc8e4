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

from .errors import ConfigError, ConsistencyError, ContractError
from .textpipe import BOS_ID, pad_rows
from .numerics import (
    PRECISIONS,
    ParameterStore,
    Tensor,
    affine,
    attention,
    biscale,
    concat,
    concat_rows,
    embed,
    gru,
    linear,
    output_layer,
    stack_time,
    take_rows,
    tanh,
    tensor,
)

QUERY_MODES = ("slower", "faster", "both")
DEFAULT_QUERY = {"base": "both", "biscale": "slower"}
SEARCH_CHUNK = 64  # sentences per search or scoring call


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
        if self.decoder not in DECODERS:
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
        if self.precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {self.precision!r}")

    def query_width(self) -> int:
        return self.d_dec * (2 if self.attention_query == "both" else 1)

    def output_width(self) -> int:
        return self.d_dec * (2 if self.decoder == "biscale" else 1)

    def check_vocab_sizes(self, src_size: int, tgt_size: int, where: str) -> None:
        """Raise ConsistencyError unless vocabularies of `src_size` and
        `tgt_size` symbols, read from `where`, fit this architecture."""
        if (src_size, tgt_size) != (self.src_vocab_size, self.tgt_vocab_size):
            raise ConsistencyError(
                f"{where} hold {src_size}/{tgt_size} source/target symbols, but the model has "
                f"src_vocab_size={self.src_vocab_size}, tgt_vocab_size={self.tgt_vocab_size}")


def _orthogonal(rng, shape):
    q, r = np.linalg.qr(rng.standard_normal(shape))
    return q * np.sign(np.diag(r))


def _uniform(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _zero(rng, shape):
    return np.zeros(shape)


def _gru_spec(prefix, d_in, d_state):
    return [entry for gate in ("reset", "update", "cand") for entry in (
        (f"{prefix}.W_{gate}", (d_in, d_state), _uniform),
        (f"{prefix}.U_{gate}", (d_state, d_state), _orthogonal),
        (f"{prefix}.b_{gate}", (d_state,), _zero),
    )]


def param_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """Every parameter of one model as (name, shape, init), in creation order.

    `init(rng, shape)` draws the initial array; the order fixes which random
    numbers each parameter receives, so it is part of the seed contract.
    """
    c = config
    spec = [
        ("src_emb", (c.src_vocab_size, c.d_emb), _uniform),
        ("tgt_emb", (c.tgt_vocab_size, c.d_emb), _uniform),
        *_gru_spec("enc_fw", c.d_emb, c.d_enc),
        *_gru_spec("enc_bw", c.d_emb, c.d_enc),
        ("dec_init.W", (c.d_enc, c.d_dec), _uniform),
        ("dec_init.b", (c.d_dec,), _zero),
        ("att.W_emb", (c.d_emb, c.d_att), _uniform),
        ("att.W_query", (c.query_width(), c.d_att), _uniform),
        ("att.W_key", (2 * c.d_enc, c.d_att), _uniform),
        ("att.b", (c.d_att,), _zero),
        ("att.v", (c.d_att, 1), _uniform),
    ]
    if c.decoder == "base":
        spec += _gru_spec("dec1", c.d_emb + 2 * c.d_enc, c.d_dec)
        spec += _gru_spec("dec2", c.d_dec, c.d_dec)
    else:
        d_in1 = c.d_emb + 2 * c.d_dec + 2 * c.d_enc
        d_in2 = 2 * c.d_dec + 2 * c.d_enc
        for name, d_in in (("h1", d_in1), ("g1", d_in1), ("h2", d_in2), ("g2", d_in2)):
            spec += [(f"bi.W_{name}", (d_in, c.d_dec), _uniform),
                     (f"bi.b_{name}", (c.d_dec,), _zero)]
    return spec + [
        ("out.W_hidden", (c.d_emb + c.output_width() + 2 * c.d_enc, c.d_dec), _uniform),
        ("out.b_hidden", (c.d_dec,), _zero),
        ("out.W_logit", (c.d_dec, c.tgt_vocab_size), _uniform),
        ("out.b_logit", (c.tgt_vocab_size,), _zero),
    ]


def init_params(config: ModelConfig, seed: int) -> ParameterStore:
    """Seed-deterministic parameter construction for one model."""
    rng = np.random.default_rng(seed)
    store = ParameterStore(config.precision)
    for name, shape, init in param_spec(config):
        store.add(name, init(rng, shape))
    return store


def _zeros(shape, store):
    return tensor(np.zeros(shape), store.precision)


def gru_cell(store: ParameterStore, prefix: str, x: Tensor, h_prev: Tensor,
             mask=None) -> Tensor:
    """One GRU update, reset gate applied to h_prev inside the candidate;
    rows where `mask` (B, 1) is 0 keep h_prev."""
    return gru(x, h_prev, *(store[f"{prefix}.{kind}_{gate}"]
                            for kind in "WUb" for gate in ("reset", "update", "cand")), mask)


@dataclass
class ContextSet:
    """Per-source-position annotations z_t = [forward; backward] plus their
    cached projection through the alignment net's key matrix."""

    annotations: Tensor  # (B, T_x, 2*d_enc)
    keys: Tensor  # (B, T_x, d_att)
    mask: np.ndarray  # (B, T_x), 1.0 at real positions

    @property
    def max_len(self) -> int:
        return self.annotations.shape[1]


def encode(store: ParameterStore, config: ModelConfig, source, lengths=None):
    """Run both encoder directions over a (B, T_x) index matrix. Returns
    the ContextSet and the backward state at the first position (B, d_enc),
    which the decoder's initial state reads.

    Positions at or past a row's length are padding: they advance neither
    direction's state and are masked out of later alignment weights.
    """
    source = np.asarray(source)
    if source.ndim == 1:
        source = source[None, :]
    B, T = source.shape
    if T < 1:
        raise ContractError("encode: empty source")
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)

    xs = [embed(store["src_emb"], source[:, t]) for t in range(T)]

    def masked_chain(prefix, order):
        h, states = _zeros((B, config.d_enc), store), [None] * T
        for t in order:
            h = states[t] = gru_cell(store, prefix, xs[t], h, mask[:, t : t + 1])
        return stack_time(states), h

    fw, _ = masked_chain("enc_fw", range(T))
    bw, head = masked_chain("enc_bw", range(T - 1, -1, -1))
    annotations = concat([fw, bw])
    keys = linear(annotations, store["att.W_key"])
    return ContextSet(annotations, keys, mask), head


def attend(store: ParameterStore, y_emb: Tensor, query: Tensor, ctx: ContextSet):
    """Score every source annotation against (prev-symbol embedding, query
    state), softmax into alignment weights, and mix the annotations.
    Returns (context (B, 2*d_enc), alpha (B, T_x)); alpha's rows sum to 1
    over real positions."""
    if ctx.max_len == 0:
        raise ContractError("attend: empty context set")
    return attention(y_emb, query, ctx.keys, ctx.annotations, ctx.mask,
                     *(store[f"att.{name}"] for name in ("W_emb", "W_query", "b", "v")))


@dataclass
class BaseDecoderState:
    h1: Tensor
    h2: Tensor


@dataclass
class BiScaleState:
    """Faster/slower hidden units h1, h2 and the gates g1, g2 that produced
    them. The next step carries (1-g1)*h1 in the faster layer, feeds g1*h2
    down to it and carries (1-g2)*h2 in the slower layer; `numerics.biscale`
    forms those products from these four."""

    h1: Tensor
    h2: Tensor
    g1: Tensor
    g2: Tensor


def _output_log_probs(store, parts, targets=None):
    """Log-probabilities of the next symbol from [previous-symbol embedding,
    *decoder output, context]; with `targets`, only the targets' entries."""
    return output_layer(parts, store["out.W_hidden"], store["out.b_hidden"],
                        store["out.W_logit"], store["out.b_logit"], targets)


class _Decoder:
    """Both decoder kinds keep a faster state h1 and a slower state h2."""

    def query(self, state, mode):
        if mode == "faster":
            return state.h1
        if mode == "slower":
            return state.h2
        return concat([state.h1, state.h2])


class _BaseDecoder(_Decoder):
    def initial_state(self, store, head):
        h1 = tanh(affine(head, store["dec_init.W"], store["dec_init.b"]))
        return BaseDecoderState(h1=h1, h2=_zeros(h1.shape, store))

    def step(self, store, y_emb, state, c):
        """Stacked update: layer 1 reads [e_y(y_prev); c], layer 2 reads layer 1."""
        h1 = gru_cell(store, "dec1", concat([y_emb, c]), state.h1)
        h2 = gru_cell(store, "dec2", h1, state.h2)
        return BaseDecoderState(h1, h2)

    def output_parts(self, state):
        return [state.h2]


class _BiScaleDecoder(_Decoder):
    def initial_state(self, store, head):
        h2 = tanh(affine(head, store["dec_init.W"], store["dec_init.b"]))
        zero = _zeros(h2.shape, store)
        return BiScaleState(h1=zero, h2=h2, g1=zero, g2=zero)

    def step(self, store, y_emb, state, c):
        """Two-timescale update.

        The faster layer h1 reads the previous symbol, its own reset-gated
        past, the slower layer's gated feedback, and the context. The slower
        layer h2 leak-integrates a candidate, moving only where the faster
        layer's gate g1 opens (i.e. where the faster layer is about to reset
        itself).
        """
        return BiScaleState(*biscale(
            y_emb, state.h1, state.g1, state.h2, state.g2, c,
            *(store[f"bi.{kind}_{name}"] for name in ("h1", "g1", "h2", "g2") for kind in "Wb")))

    def output_parts(self, state):
        return [state.h1, state.h2]


DECODERS = {"base": _BaseDecoder, "biscale": _BiScaleDecoder}


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
        self.decoder = DECODERS[self.config.decoder]()

    def encode(self, source, lengths=None):
        """(ContextSet, initial decoder state) of a (B, T_x) source batch."""
        ctx, head = encode(self.store, self.config, source, lengths)
        return ctx, self.decoder.initial_state(self.store, head)

    def advance(self, y_prev, state, ctx: ContextSet):
        """One target position's recurrence: attend with the previous state
        as query, step the decoder on the resulting context. Returns
        (output-layer inputs, new state, alignment row Tensor (B, T_x))."""
        y_emb = embed(self.store["tgt_emb"], y_prev)
        context, alpha = attend(self.store, y_emb,
                                self.decoder.query(state, self.config.attention_query), ctx)
        new_state = self.decoder.step(self.store, y_emb, state, context)
        return [y_emb, *self.decoder.output_parts(new_state), context], new_state, alpha

    def step_log_probs(self, y_prev, state, ctx: ContextSet):
        """Advance one target position and score the next symbol. Returns
        (log-probability Tensor (B, |V_y|), new state, alignment row)."""
        parts, new_state, alpha = self.advance(y_prev, state, ctx)
        return _output_log_probs(self.store, parts), new_state, alpha


def label_log_probs(model: Model, source, src_lengths, target, target_lengths):
    """Teacher-forced log-probabilities of a batch's labels, without padding.

    `target` is (B, T) holding BOS + symbols + EOS (+ PAD), and a row's
    target length counts its BOS. Rows run longest target first (a stable
    order), so the rows whose target is still running are a prefix, and
    when rows finish one `take_rows` node cuts the state and the context
    set down to that prefix. The output layer then runs once, over the real
    labels alone, since under teacher forcing it never feeds the
    recurrence. Returns a Tensor of shape (labels,): position 0's labels of
    every row, then position 1's of the rows still running, and so on; and
    per position the alignment Tensor (live rows, T_x) of those rows, in
    the same order. Its oracle is the padded pass over every position kept
    in `tests/conftest.py`, which it agrees with up to summation order.
    """
    order = np.argsort(-np.asarray(target_lengths), kind="stable")
    target, lengths = np.asarray(target)[order], np.asarray(target_lengths)[order]
    ctx, state = model.encode(np.asarray(source)[order], np.asarray(src_lengths)[order])
    steps, labels, alphas = [], [], []
    for t in range(target.shape[1] - 1):
        live = int(np.count_nonzero(lengths > t + 1))
        if live < len(ctx.mask):
            cut = take_rows([ctx.annotations, ctx.keys,
                             *(getattr(state, f.name) for f in fields(state))], live)
            ctx = ContextSet(cut[0], cut[1], ctx.mask[:live])
            state = type(state)(*cut[2:])
        parts, state, alpha = model.advance(target[:live, t], state, ctx)
        steps.append(parts)
        labels.append(target[:live, t + 1])
        alphas.append(alpha)
    stacked = [concat_rows(list(column)) for column in zip(*steps)]
    return _output_log_probs(model.store, stacked, np.concatenate(labels)), alphas


def score_pairs(model: Model, sources, targets) -> list[tuple[np.ndarray, np.ndarray]]:
    """Teacher-forced scores of EOS-terminated pairs (targets without BOS),
    `SEARCH_CHUNK` pairs per `label_log_probs` call: per pair, in input
    order, its log-probabilities (T_y,) and alignment (T_y, T_x) in float64."""
    if len(sources) != len(targets) or any(len(row) == 0 for row in (*sources, *targets)):
        raise ContractError("score_pairs: needs as many targets as sources, none empty")
    scored = []
    for start in range(0, len(sources), SEARCH_CHUNK):
        part = slice(start, start + SEARCH_CHUNK)
        source, src_lengths = pad_rows(sources[part])
        target, tgt_lengths = pad_rows([[BOS_ID, *row] for row in targets[part]])
        picked, alphas = label_log_probs(model, source, src_lengths, target, tgt_lengths)
        # the one reader of label_log_probs' layout: longest target first (stably),
        # position-major over the rows still running; (t, rank) lies in index[t, rank]
        order, labels = np.argsort(-tgt_lengths, kind="stable"), tgt_lengths - 1
        live = np.arange(len(alphas))[:, None] < labels[order]
        index = np.cumsum(live).reshape(live.shape) - 1
        scores = picked.data.astype(float)
        weights = np.concatenate([alpha.data for alpha in alphas]).astype(float)
        scored += [(scores[index[:n, r]], weights[index[:n, r], :m])
                   for n, r, m in zip(labels, np.argsort(order), src_lengths)]
    return scored
