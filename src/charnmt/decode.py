"""Greedy and beam-search decoding from one model or an ensemble.

All entry points accept a list of models; a single-model decode is the
one-element case. Ensembles average output *probabilities* arithmetically
(scores stay log-probabilities) and require identical target vocabularies.
Alignment rows for an ensemble are the mean of the members' rows.

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

from .errors import ConfigError, ConsistencyError, EnsembleError
from .model import ContextSet, Model
from .numerics import Tensor
from .textpipe import (
    BOS_ID,
    EOS_ID,
    MergeTable,
    Vocabulary,
    apply_bpe,
    detokenize_subwords,
)


@dataclass
class Hypothesis:
    """One (partial or finished) translation in the search."""

    tokens: list[int]  # emitted target ids; ends with EOS iff finished
    score: float  # sum of the chosen per-step log-probabilities
    alignments: list[np.ndarray]  # one source-weight row per emitted token
    finished: bool = False
    truncated: bool = False

    def alignment_matrix(self) -> np.ndarray:
        return np.stack(self.alignments) if self.alignments else np.zeros((0, 0))


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


def greedy_decode(models, source, lengths=None, max_len: int = 100) -> list[Hypothesis]:
    """Argmax decoding over a whole batch at once.

    `source` is (B, T_x) (or a single 1-D sentence); returns one Hypothesis
    per row. Ties at the argmax resolve to the lowest token index.
    """
    _check_ensemble(models)
    if max_len < 1:
        raise ConfigError(f"max_len must be positive, got {max_len}")
    source = np.asarray(source)
    if source.ndim == 1:
        source = source[None, :]
    B = source.shape[0]
    ctxs = [m.encode(source, lengths) for m in models]
    states = [m.initial_state(ctx) for m, ctx in zip(models, ctxs)]
    y_prev = np.full(B, BOS_ID)
    done = np.zeros(B, dtype=bool)
    tokens = [[] for _ in range(B)]
    scores = np.zeros(B)
    aligns = [[] for _ in range(B)]
    for _ in range(max_len):
        avg, alpha, states = _ensemble_step(models, ctxs, states, y_prev, B)
        pick = avg.argmax(axis=1)
        for i in range(B):
            if done[i]:
                continue
            tokens[i].append(int(pick[i]))
            scores[i] += avg[i, pick[i]]
            aligns[i].append(alpha[i].copy())
        done |= pick == EOS_ID
        y_prev = np.where(done, EOS_ID, pick)
        if done.all():
            break
    truncated = ~done
    if truncated.any():
        avg, alpha, _ = _ensemble_step(models, ctxs, states, y_prev, B)
        for i in np.nonzero(truncated)[0]:
            tokens[i].append(EOS_ID)
            scores[i] += avg[i, EOS_ID]
            aligns[i].append(alpha[i].copy())
    return [
        Hypothesis(
            tokens=tokens[i],
            score=float(scores[i]),
            alignments=aligns[i],
            finished=True,
            truncated=bool(truncated[i]),
        )
        for i in range(B)
    ]


def beam_search(models, source, width: int, max_len: int,
                length_normalize: bool = False) -> list[Hypothesis]:
    """Likelihood beam search over one sentence.

    Each step expands every live hypothesis over the full vocabulary and
    keeps the `width` best extensions by accumulated log-probability (ties:
    lower token index, then lower parent index). The chain of per-step argmax
    continuations is never pruned: if it falls outside the top `width` it
    takes the worst slot, so the best completed score can never drop below
    the width-1 (greedy) result. Extensions ending in EOS retire to a
    completed pool. The search stops when every live hypothesis scores below
    the pool's best (no extension can beat it, scores only decrease) or at
    `max_len`, where survivors are force-finished with a scored EOS. Returns
    the pool ranked by score (mean per-token score if `length_normalize`).
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
    """Translate raw source lines end to end with a fixed-width beam."""
    _check_ensemble(models)
    for m in models:
        if m.config.src_vocab_size != len(src_vocab):
            raise ConsistencyError(
                f"model expects source vocabulary of {m.config.src_vocab_size}, "
                f"file has {len(src_vocab)}"
            )
        if m.config.tgt_vocab_size != len(tgt_vocab):
            raise ConsistencyError(
                f"model expects target vocabulary of {m.config.tgt_vocab_size}, "
                f"file has {len(tgt_vocab)}"
            )
    texts, hyps, source_symbols = [], [], []
    eos_symbol = src_vocab.symbols[EOS_ID]
    for line in lines:
        subwords = apply_bpe(line.split(), merges)
        ids = np.array(src_vocab.encode(subwords) + [EOS_ID])
        cap = max_len if max_len is not None else default_max_len(len(subwords), unit)
        best = beam_search(models, ids, width, cap, length_normalize)[0]
        texts.append(hypothesis_text(best, tgt_vocab, unit))
        hyps.append(best)
        source_symbols.append(subwords + [eos_symbol])
    return TranslationResult(texts=texts, hypotheses=hyps, source_symbols=source_symbols)


def _cell(symbol: str) -> str:
    return symbol.replace("\t", "\\t")


def format_alignment_block(source_symbols, target_symbols, matrix: np.ndarray) -> str:
    """One sentence's soft-alignment weights as a TSV block.

    First row: empty corner cell then the source symbols. Each further row:
    a target symbol followed by its weight over every source position.
    """
    lines = ["\t" + "\t".join(_cell(s) for s in source_symbols)]
    for symbol, row in zip(target_symbols, matrix):
        lines.append(_cell(symbol) + "\t" + "\t".join(f"{w:.6f}" for w in row))
    return "\n".join(lines)


def alignment_blocks(result: TranslationResult, tgt_vocab: Vocabulary) -> str:
    """All sentences' alignment blocks, blank-line separated."""
    blocks = []
    for hyp, src_syms in zip(result.hypotheses, result.source_symbols):
        tgt_syms = [tgt_vocab.symbols[t] for t in hyp.tokens]
        blocks.append(format_alignment_block(src_syms, tgt_syms, hyp.alignment_matrix()))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
