"""Beam-search decoding from one model or an ensemble.

All entry points accept a list of models; a single-model decode is the
one-element case. Ensembles average output *probabilities* arithmetically
(scores stay log-probabilities) and require identical target vocabularies.
Alignment rows for an ensemble are the mean of the members' rows; a single
model's are its own rows, bit for bit.

`beam_search` is the one search every program path runs: `translate_corpus`
feeds it chunks of `SEARCH_CHUNK` sentences, for `translate` and, at width
1, for validation BLEU. It decodes a batch of padded sources at once: each
row has its own length cap, sentences leave the batch as they finish,
annotations are gathered again (`_take_rows`) only when the rows' sentences
change, and tokens and alignment rows are kept as back-pointers read out
once at the end (`_read_pools`). It steps a (sentence, slot) grid of rows,
dead slots scored -inf, through one model call per step; each sentence
keeps its own completed pool, greedy chain and stop test. `greedy_decode`
keeps the same books but takes the argmax itself: it is the reference that
width-1 beam search = greedy is checked against, a law between two
implementations.

Scores carry no length normalization by default: a hypothesis score is the
exact sum of its chosen per-step log-probabilities, including the final EOS.
When the length cap forces a hypothesis closed, the EOS it receives is still
scored at the model's actual log p(EOS), so re-scoring the token sequence
reproduces the search score; such hypotheses carry `truncated=True`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnsembleError
from .model import SEARCH_CHUNK
from .numerics import Tensor
from .textpipe import (
    BOS_ID,
    EOS_ID,
    MergeTable,
    Vocabulary,
    apply_bpe,
    detokenize_subwords,
    pad_rows,
)


@dataclass
class Hypothesis:
    """One translation returned by a search."""

    tokens: list[int]  # emitted target ids; a search ends each with EOS
    score: float  # sum of the chosen per-step log-probabilities
    alignments: np.ndarray  # (len(tokens), T_x): one source-weight row per emitted token
    truncated: bool = False


def ensemble_log_probs(logps) -> np.ndarray:
    """Log of the arithmetic mean of the members' probability vectors."""
    if len(logps) == 0:
        raise EnsembleError("ensemble of zero models")
    arrays = [np.asarray(l) for l in logps]
    if any(a.shape != arrays[0].shape for a in arrays[1:]):
        raise EnsembleError("ensemble members disagree on output shape")
    if len(arrays) == 1:
        return arrays[0]
    stacked = np.stack(arrays)
    m = stacked.max(axis=0)
    return m + np.log(np.exp(stacked - m[None]).sum(axis=0)) - np.log(len(arrays))


def default_max_len(source_tokens: int, unit: str) -> int:
    """Output length cap: character targets run several times longer."""
    if unit == "character":
        return 10 * source_tokens + 50
    return 2 * source_tokens + 10


def _check_ensemble(models):
    if not models:
        raise EnsembleError("ensemble of zero models")
    v = models[0].config.tgt_vocab_size
    for m in models[1:]:
        if m.config.tgt_vocab_size != v:
            raise EnsembleError(
                f"ensemble members disagree on target vocabulary size: "
                f"{v} vs {m.config.tgt_vocab_size}"
            )


def _take_rows(obj, rows):
    """The same dataclass (decoder state or ContextSet) with every field
    restricted to `rows`, in that order."""
    return type(obj)(*[Tensor(v.data[rows]) if isinstance(v, Tensor) else v[rows]
                       for v in vars(obj).values()])


def _ensemble_step(models, ctxs, states, y_prev):
    logps, alphas, new_states = [], [], []
    for model, ctx, st in zip(models, ctxs, states):
        logp, ns, alpha = model.step_log_probs(y_prev, st, ctx)
        logps.append(logp.data)
        alphas.append(alpha.data)
        new_states.append(ns)
    alpha = alphas[0] if len(alphas) == 1 else np.mean(alphas, axis=0)
    return ensemble_log_probs(logps), alpha, new_states


def _encode_batch(models, source, max_len, lengths):
    """Encode a padded batch for a search: its per-row caps and lengths,
    each model's annotations and initial decoder states."""
    _check_ensemble(models)
    source = np.asarray(source)
    if source.ndim == 1:
        source = source[None, :]
    S, T = source.shape
    caps = np.broadcast_to(np.asarray(max_len), (S,))
    if caps.min() < 1:
        raise ConfigError(f"max_len must be positive, got {caps.min()}")
    lengths = np.full(S, T) if lengths is None else np.asarray(lengths)
    ctxs, states = zip(*(m.encode(source, lengths) for m in models))
    return caps, lengths, ctxs, list(states)


def greedy_decode(models, source, lengths=None, max_len=100) -> list[Hypothesis]:
    """Argmax decoding over a whole batch at once: the independent reference
    that width-1 `beam_search` is checked against; charnmt never runs it.

    `source` is (S, T_x) (or a single 1-D sentence) with optional `lengths`;
    `max_len` is one cap or one per row. Returns one Hypothesis per row.
    Ties at the argmax resolve to the lowest token index; a row at its cap
    is force-closed with a scored EOS.
    """
    caps, lengths, all_ctxs, states = _encode_batch(models, source, max_len, lengths)
    sent = np.arange(len(caps))  # sentence of each live row
    ctxs = all_ctxs
    y_prev = np.full(len(sent), BOS_ID)
    score = np.zeros(len(sent))
    alphas, parents, tokens, pool = [], [], [], []
    t = 0
    while len(sent):
        avg, alpha, states = _ensemble_step(models, ctxs, states, y_prev)
        alphas.append(alpha)
        closing = caps[sent] == t
        pick = np.where(closing, EOS_ID, avg.argmax(axis=1))
        score = score + avg[np.arange(len(sent)), pick]
        done, stay = np.nonzero(pick == EOS_ID)[0], np.nonzero(pick != EOS_ID)[0]
        pool.append((sent[done], score[done], done, np.full(len(done), t), closing[done]))
        parents.append(stay)
        tokens.append(pick[stay])
        if len(done):  # rows leave: gather what the rest read
            states = [_take_rows(s, stay) for s in states]
            sent = sent[stay]
            ctxs = [_take_rows(c, sent) for c in all_ctxs]
        y_prev, score = pick[stay], score[stay]
        t += 1
    return [p[0] for p in _read_pools(len(caps), lengths, pool, alphas, parents, tokens, False)]


def beam_search(models, source, width: int, max_len, lengths=None,
                length_normalize: bool = False) -> list[list[Hypothesis]]:
    """Likelihood beam search over a batch of sentences at once.

    `source` is (S, T_x) (or a single 1-D sentence) with optional `lengths`;
    `max_len` is one cap or one per row. Returns, per row, its completed
    hypotheses ranked by score (mean per-token score if `length_normalize`).

    Each sentence searches on its own. Every step expands its live
    hypotheses over the full vocabulary and keeps the `width` best extensions
    by accumulated log-probability (ties: lower token index, then lower
    parent slot). Its chain of per-step argmax continuations is never pruned:
    if it falls outside the top `width` it takes the worst slot, so the best
    completed score can never drop below the width-1 (greedy) result.
    Extensions ending in EOS retire to the sentence's completed pool. A
    sentence stops when every live hypothesis scores below its pool's best
    (no extension can beat it, scores only decrease) or at its cap, where
    survivors are force-finished with a scored EOS, and then leaves the batch.

    The rows of a step are a grid of (active sentence, slot) pairs, sentence
    major: one slot at step 0, then as many as the step before selected,
    min(`width`, V * its slots), slot k holding the k-th selected extension.
    An extension that ends in EOS, or that a sentence short of candidates
    cannot fill, leaves a dead slot scored -inf, so live slots keep their
    order. All rows step through each model in one call; annotations are
    gathered again only when sentences leave or the slot count grows.
    Selection reads a (sentences, V * slots) layout, token major, by repeated
    row argmax, which keeps a stable sort's order; tokens and alignment rows
    are kept as back-pointers and read out once the batch is done.
    """
    if width < 1:
        raise ConfigError(f"beam width must be at least 1, got {width}")
    caps, lengths, all_ctxs, states = _encode_batch(models, source, max_len, lengths)
    S, V = len(caps), models[0].config.tgt_vocab_size

    sent = np.arange(S)  # active sentences
    K, first = 1, sent  # slots per sentence; row first[a] + k is slot k of sentence a
    ctxs = all_ctxs
    y_prev = np.full(S, BOS_ID)
    row_score = np.zeros(S)  # -inf at dead slots
    chain = np.zeros(S, dtype=int)  # slot tracing the greedy path; -1 once it retires
    best = np.full(S, -np.inf)  # best completed score
    close_at = set(caps.tolist())
    alphas, parents, tokens = [], [], []  # per step; rows of step t+1 point into step t
    pool = []  # (sentence, score, row, step, truncated) of completed hypotheses
    t = 0
    while len(sent):
        A, W = len(sent), min(width, K * V)  # W: selected extensions, the next step's slots
        avg, alpha, stepped = _ensemble_step(models, ctxs, states, y_prev)
        alphas.append(alpha)
        if t in close_at:  # force-finish the live slots of sentences at their cap
            closing = np.repeat(caps[sent] == t, K)
            shut = np.nonzero(closing & (row_score > -np.inf))[0]
            pool.append((sent[shut // K], row_score[shut] + avg[shut, EOS_ID], shut,
                         np.full(len(shut), t), np.ones(len(shut), dtype=bool)))
            row_score = np.where(closing, -np.inf, row_score)

        if width == 1:  # the one slot is the greedy chain: its argmax is the pick
            pick = avg.argmax(axis=1)
            order, score = pick[:, None], (row_score + avg[first, pick])[:, None]
        else:
            grid = (row_score[:, None] + avg).reshape(A, K, V).transpose(0, 2, 1).reshape(A, -1)
            order, rows = np.empty((A, W), dtype=int), np.arange(A)
            score = np.empty(order.shape)
            for k in range(W):  # argmax takes the lowest of equal indices
                order[:, k] = grid.argmax(axis=1)
                score[:, k] = grid[rows, order[:, k]]
                grid[rows, order[:, k]] = -np.inf
            g_idx = avg[first + chain].argmax(axis=1) * K + chain
            on_chain = (order == g_idx[:, None]) & (chain >= 0)[:, None]
            miss = np.nonzero((chain >= 0) & ~on_chain.any(axis=1))[0]
            order[miss, -1], score[miss, -1] = g_idx[miss], grid[miss, g_idx[miss]]
            on_chain[miss, -1] = True
        tok, slot = np.divmod(order, K)
        parent = first[:, None] + slot

        ended = (tok == EOS_ID) & (score > -np.inf)
        a, j = np.nonzero(ended)
        pool.append((sent[a], score[a, j], parent[a, j], np.full(len(a), t),
                     np.zeros(len(a), dtype=bool)))
        np.maximum.at(best, a, score[a, j])
        score[ended] = -np.inf
        if width > 1:
            held = on_chain & (score > -np.inf)
            chain = np.where(held.any(axis=1), held.argmax(axis=1), -1)
        top = score.max(axis=1)
        stay = np.nonzero((top > -np.inf) & (top >= best))[0]

        parents.append(parent[stay].ravel())
        tokens.append(tok[stay].ravel())
        states = [_take_rows(s, parents[-1]) for s in stepped]
        y_prev, row_score = tokens[-1], score[stay].ravel()
        chain, best = chain[stay], best[stay]
        if len(stay) < A or K < W:
            sent, K = sent[stay], W
            first = np.arange(len(sent)) * K
            ctxs = [_take_rows(c, np.repeat(sent, K)) for c in all_ctxs]
        t += 1

    return _read_pools(S, lengths, pool, alphas, parents, tokens, length_normalize)


def _read_pools(S, lengths, pool, alphas, parents, tokens, length_normalize):
    """Follow every completed hypothesis's back-pointers and rank each pool.
    Rows are numbered across steps: one walk finds each hypothesis's row at
    every step it spans, and one gather per field reads them all."""
    sent, score, row, step, truncated = map(np.concatenate, zip(*pool))
    starts = np.cumsum([0] + [len(a) for a in alphas])
    up = np.concatenate([np.arange(starts[1])] + [p + s for p, s in zip(parents, starts)])
    at, g = np.zeros((len(row), step.max() + 1), dtype=int), starts[step] + row
    every = np.arange(len(row))
    for back in range(at.shape[1]):  # a step-0 row is its own parent: the walk stays
        at[every, np.maximum(step - back, 0)] = g
        g = up[g]
    toks = np.concatenate([np.full(starts[1], EOS_ID)] + tokens)[at[:, 1:]].tolist()
    aligns = np.concatenate(alphas)[at]
    key = score / (step + 1) if length_normalize else score
    sizes, scores, flags, sents = step.tolist(), score.tolist(), truncated.tolist(), sent.tolist()
    pools = [[] for _ in range(S)]
    for e in np.lexsort((-key, sent)).tolist():
        s, n = sents[e], sizes[e]
        pools[s].append(Hypothesis(toks[e][:n] + [EOS_ID], scores[e],
                                   aligns[e, :n + 1, :lengths[s]].copy(), flags[e]))
    return pools


def hypothesis_text(hyp: Hypothesis, vocab: Vocabulary, unit: str) -> str:
    """Render emitted tokens as text: characters join verbatim, subword
    pieces drop their continuation markers."""
    toks = hyp.tokens[:-1] if hyp.tokens and hyp.tokens[-1] == EOS_ID else hyp.tokens
    symbols = [vocab.symbols[t] for t in toks]
    if unit == "character":
        return "".join(symbols)
    return detokenize_subwords(symbols)


@dataclass
class TranslationResult:
    texts: list[str]
    hypotheses: list[Hypothesis]
    source_symbols: list[list[str]]  # per sentence, including the EOS symbol



def translate_corpus(models, lines, src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                     merges: MergeTable, unit: str, width: int,
                     max_len: int | None = None,
                     length_normalize: bool = False) -> TranslationResult:
    """Translate raw source lines end to end with a fixed-width beam.

    Lines are searched in input order, a chunk of sentences per
    `beam_search` call; the default cap is each line's own."""
    _check_ensemble(models)
    for m in models:
        m.config.check_vocab_sizes(len(src_vocab), len(tgt_vocab), "the given vocabularies")
    segmented = [apply_bpe(line.split(), merges) for line in lines]
    caps = np.array([max_len if max_len is not None else default_max_len(len(s), unit)
                     for s in segmented], dtype=int)
    hyps = []
    for start in range(0, len(lines), SEARCH_CHUNK):
        part = slice(start, start + SEARCH_CHUNK)
        source, lengths = pad_rows([src_vocab.encode(s) + [EOS_ID] for s in segmented[part]])
        pools = beam_search(models, source, width, caps[part], lengths, length_normalize)
        hyps += [pool[0] for pool in pools]
    eos_symbol = src_vocab.symbols[EOS_ID]
    return TranslationResult(texts=[hypothesis_text(h, tgt_vocab, unit) for h in hyps],
                             hypotheses=hyps,
                             source_symbols=[s + [eos_symbol] for s in segmented])


def _cell(symbol: str) -> str:
    return symbol.replace("\t", "\\t")


def format_alignment_block(source_symbols, target_symbols, matrix: np.ndarray) -> str:
    """One sentence's soft-alignment weights as a TSV block.

    First row: empty corner cell then the source symbols. Each further row:
    a target symbol followed by its weight over every source position.
    """
    lines = ["\t" + "\t".join(_cell(s) for s in source_symbols)]
    for symbol, row in zip(target_symbols, matrix.tolist()):  # floats format faster
        lines.append(_cell(symbol) + "\t" + "\t".join(f"{w:.6f}" for w in row))
    return "\n".join(lines)


def alignment_blocks(sentences) -> str:
    """The alignment blocks of `sentences`, (source symbols, target symbols,
    weights) triples, blank-line separated: the text `align` and
    `translate --dump-align` write."""
    blocks = [format_alignment_block(*sentence) for sentence in sentences]
    return "\n\n".join(blocks) + ("\n" if blocks else "")
