"""Greedy and beam-search decoding from one model or an ensemble.

All entry points accept a list of models; a single-model decode is the
one-element case. Ensembles average output *probabilities* arithmetically
(scores stay log-probabilities) and require identical target vocabularies.
Alignment rows for an ensemble are the mean of the members' rows.

Both searches decode a batch of padded sources at once and keep the same
books: each step gathers the live rows' annotations and decoder states
(`_take_rows`), each row has its own length cap, rows leave the batch as
they finish, and tokens and alignment rows are kept as back-pointers read
out once at the end (`_read_pools`). Greedy search takes the argmax itself,
so width-1 beam search = greedy is a law between two implementations. Beam
search steps the live hypotheses of every sentence in one model call per
step; each sentence keeps its own completed pool, greedy chain and stop
test. `translate_corpus` and validation feed them chunks of `SEARCH_CHUNK`
sentences.

Scores carry no length normalization by default: a hypothesis score is the
exact sum of its chosen per-step log-probabilities, including the final EOS.
When the length cap forces a hypothesis closed, the EOS it receives is still
scored at the model's actual log p(EOS), so re-scoring the token sequence
reproduces the search score; such hypotheses carry `truncated=True`.
"""

from __future__ import annotations

import dataclasses
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
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return type(obj)(**{k: Tensor(v.data[rows]) if isinstance(v, Tensor) else v[rows]
                        for k, v in values.items()})


def _ensemble_step(models, ctxs, states, y_prev):
    logps, alphas, new_states = [], [], []
    for model, ctx, st in zip(models, ctxs, states):
        logp, ns, alpha = model.step_log_probs(y_prev, st, ctx)
        logps.append(logp.data)
        alphas.append(alpha.data)
        new_states.append(ns)
    return ensemble_log_probs(logps), np.mean(alphas, axis=0), new_states


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
    """Argmax decoding over a whole batch at once.

    `source` is (S, T_x) (or a single 1-D sentence) with optional `lengths`;
    `max_len` is one cap or one per row. Returns one Hypothesis per row.
    Ties at the argmax resolve to the lowest token index; a row at its cap
    is force-closed with a scored EOS.
    """
    caps, lengths, ctxs, states = _encode_batch(models, source, max_len, lengths)
    sent = np.arange(len(caps))  # sentence of each live row
    y_prev = np.full(len(sent), BOS_ID)
    score = np.zeros(len(sent))
    alphas, parents, tokens, pool = [], [], [], []
    t = 0
    while len(sent):
        avg, alpha, stepped = _ensemble_step(
            models, [_take_rows(c, sent) for c in ctxs], states, y_prev)
        alphas.append(alpha)
        closing = caps[sent] == t
        pick = np.where(closing, EOS_ID, avg.argmax(axis=1))
        score = score + avg[np.arange(len(sent)), pick]
        done, stay = np.nonzero(pick == EOS_ID)[0], np.nonzero(pick != EOS_ID)[0]
        pool.append((sent[done], score[done], done, np.full(len(done), t), closing[done]))
        parents.append(stay)
        tokens.append(pick[stay])
        states = [_take_rows(s, stay) for s in stepped]
        sent, y_prev, score = sent[stay], pick[stay], score[stay]
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

    The live hypotheses of all sentences step through each model in one
    call, each row reading its sentence's annotations by index. Selection is
    one stable sort per step over a (sentences, V * width) layout, token
    major, so ties fall as above; tokens and alignment rows are kept as
    back-pointers and read out once the batch is done.
    """
    if width < 1:
        raise ConfigError(f"beam width must be at least 1, got {width}")
    caps, lengths, ctxs, states = _encode_batch(models, source, max_len, lengths)
    S, V = len(caps), models[0].config.tgt_vocab_size

    sent = np.arange(S)  # sentence of each active position
    n_live = np.ones(S, dtype=int)  # live rows are grouped by sentence, in slot order
    y_prev = np.full(S, BOS_ID)
    row_score = np.zeros(S)
    chain = np.zeros(S, dtype=int)  # slot tracing the greedy path; -1 once it retires
    best = np.full(S, -np.inf)  # best completed score
    alphas, parents, tokens = [], [], []  # per step; rows of step t+1 point into step t
    pool = []  # (sentence, score, row, step, truncated) of completed hypotheses
    t = 0
    while len(sent):
        A = len(sent)
        row_act = np.repeat(np.arange(A), n_live)
        offset = np.cumsum(n_live) - n_live
        row_slot = np.arange(len(row_act)) - offset[row_act]
        avg, alpha, stepped = _ensemble_step(
            models, [_take_rows(c, sent[row_act]) for c in ctxs], states, y_prev)
        alphas.append(alpha)

        closing = caps[sent] == t
        shut = np.nonzero(closing[row_act])[0]
        pool.append((sent[row_act[shut]], row_score[shut] + avg[shut, EOS_ID], shut,
                     np.full(len(shut), t), np.ones(len(shut), dtype=bool)))

        grid = np.full((A, V, width), -np.inf)
        grid[row_act, :, row_slot] = row_score[:, None] + avg
        grid = grid.reshape(A, V * width)
        order = np.argsort(-grid, axis=1, kind="stable")[:, :width]
        valid = np.arange(order.shape[1]) < np.minimum(width, n_live * V)[:, None]
        has = np.nonzero(chain >= 0)[0]
        g_idx = avg[offset[has] + chain[has]].argmax(axis=1) * width + chain[has]
        miss = ~(order[has] == g_idx[:, None]).any(axis=1)
        order[has[miss], valid[has[miss]].sum(axis=1) - 1] = g_idx[miss]
        tok, slot = order // width, order % width
        score = np.take_along_axis(grid, order, axis=1)
        picked = valid & ~closing[:, None]
        a, j = np.nonzero(picked & (tok == EOS_ID))
        pool.append((sent[a], score[a, j], offset[a] + slot[a, j], np.full(len(a), t),
                     np.zeros(len(a), dtype=bool)))
        np.maximum.at(best, a, score[a, j])

        keep = picked & (tok != EOS_ID)
        new_slot = np.cumsum(keep, axis=1) - 1
        on_chain = order[has] == g_idx[:, None]
        chain[:] = -1
        chain[has] = np.where((keep[has] & on_chain).any(axis=1),
                              new_slot[has][on_chain], -1)
        n_live = keep.sum(axis=1)
        stay = ~closing & (n_live > 0) & (np.where(keep, score, -np.inf).max(axis=1) >= best)
        a, j = np.nonzero(keep & stay[:, None])
        parents.append(offset[a] + slot[a, j])
        tokens.append(tok[a, j])
        states = [_take_rows(s, parents[-1]) for s in stepped]
        y_prev, row_score = tokens[-1], score[a, j]
        sent, n_live, chain, best = sent[stay], n_live[stay], chain[stay], best[stay]
        t += 1

    return _read_pools(S, lengths, pool, alphas, parents, tokens, length_normalize)


def _read_pools(S, lengths, pool, alphas, parents, tokens, length_normalize):
    """Follow every completed hypothesis's back-pointers and rank each pool."""
    sent, score, row, step, truncated = map(np.concatenate, zip(*pool))
    size = step + 1
    toks = np.full((len(row), size.max()), EOS_ID)
    aligns = np.zeros((len(row), size.max(), alphas[0].shape[1]), dtype=alphas[0].dtype)
    for u in range(size.max() - 1, -1, -1):
        on = step >= u
        aligns[on, u] = alphas[u][row[on]]
        if u:
            toks[on, u - 1] = tokens[u - 1][row[on]]
            row[on] = parents[u - 1][row[on]]
    key = score / size if length_normalize else score
    pools = [[] for _ in range(S)]
    for e in np.lexsort((-key, sent)):
        pools[sent[e]].append(Hypothesis(
            tokens=toks[e, :size[e]].tolist(), score=float(score[e]),
            alignments=aligns[e, :size[e], :lengths[sent[e]]].copy(),
            truncated=bool(truncated[e])))
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
