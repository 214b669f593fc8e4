"""BLEU scoring and two diagnostic analyses.

`bleu` is unsmoothed corpus-level BLEU over whitespace tokens with clipped
n-gram precision up to 4-grams and the usual brevity penalty; it mirrors the
standard multi-bleu script, including its summary line format. BLEU values
are kept in [0, 1] internally and scaled to percent only for display.

The analyses: BLEU bucketed by source sentence length, and per-word
negative-log-likelihood differences between two systems bucketed by training
frequency. Character-system hypotheses are expected to be detokenized before
BLEU so both decoder families score on the same word-level scale.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, CorpusError
from .model import Model, score_pairs
from .textpipe import EOS_ID, MergeTable, Vocabulary, apply_bpe


@dataclass
class BleuReport:
    bleu: float  # in [0, 1]
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def summary_line(self) -> str:
        p = "/".join(f"{100.0 * x:.1f}" for x in self.precisions)
        ratio = self.hyp_length / self.ref_length if self.ref_length else 0.0
        return (
            f"BLEU = {100.0 * self.bleu:.2f}, {p} "
            f"(BP={self.brevity_penalty:.3f}, ratio={ratio:.3f}, "
            f"hyp_len={self.hyp_length}, ref_len={self.ref_length})"
        )


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references) -> BleuReport:
    """Corpus BLEU with clipped counts; any empty n-gram precision zeroes it."""
    hypotheses = list(hypotheses)
    references = list(references)
    if len(hypotheses) != len(references):
        raise CorpusError(
            f"line count mismatch: {len(hypotheses)} hypotheses vs "
            f"{len(references)} references"
        )
    matched = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    for hyp_line, ref_line in zip(hypotheses, references):
        hyp = hyp_line.split()
        ref = ref_line.split()
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
            total[n - 1] += max(len(hyp) - n + 1, 0)
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matched, total))
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len < ref_len:
        bp = math.exp(1.0 - ref_len / hyp_len)
    else:
        bp = 1.0
    if all(p > 0.0 for p in precisions):
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    else:
        score = 0.0
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


def _bucket_label(low, high):
    if high is None:
        return f">{low - 1}"
    return f"{low}-{high}" if low != high else str(low)


def bleu_by_source_length(hypotheses, references, sources, edges) -> list[tuple[str, int, BleuReport]]:
    """Corpus BLEU per source-length bucket.

    `edges` are inclusive upper bounds on whitespace token counts; lengths
    above the last edge fall into a final open bucket. Empty buckets are
    omitted from the result.
    """
    hypotheses, references, sources = list(hypotheses), list(references), list(sources)
    if not (len(hypotheses) == len(references) == len(sources)):
        raise CorpusError("hypotheses, references and sources must align")
    edges = sorted(edges)
    if not edges:
        raise ContractError("at least one bucket edge required")
    bounds = [(edges[i - 1] + 1 if i else 1, e) for i, e in enumerate(edges)]
    bounds.append((edges[-1] + 1, None))
    groups: dict[int, list[int]] = {}
    for idx, src in enumerate(sources):
        n = len(src.split())
        b = next(i for i, (lo, hi) in enumerate(bounds) if hi is None or n <= hi)
        groups.setdefault(b, []).append(idx)
    out = []
    for b, (lo, hi) in enumerate(bounds):
        idxs = groups.get(b)
        if not idxs:
            continue
        report = bleu([hypotheses[i] for i in idxs], [references[i] for i in idxs])
        out.append((_bucket_label(lo, hi), len(idxs), report))
    return out


def length_bleu_tsv(results) -> str:
    lines = [f"{label}\t{count}\t{report.bleu:.4f}" for label, count, report in results]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class System:
    """One scoring system: a model plus its target-side representation."""

    model: Model
    tgt_vocab: Vocabulary
    unit: str  # "subword" or "character"


def _target_word_spans(line: str, unit: str, vocab: Vocabulary, merges):
    """Target ids (EOS-terminated) and per-word position spans.

    Subword units: a word spans its pieces. Character units: a word spans
    its characters plus the following boundary symbol (the whitespace after
    it, or EOS for the final word).
    """
    if unit == "subword":
        symbols, spans = [], []
        for word in line.split():
            pieces = apply_bpe([word], merges)
            spans.append((word, len(symbols), len(symbols) + len(pieces)))
            symbols += pieces
        return vocab.encode(symbols) + [EOS_ID], spans

    # re's \s is str.isspace, so the words are exactly line.split()
    spans = [(m[0], m.start(), m.end() + 1)  # +1: trailing boundary
             for m in re.finditer(r"\S+", line)]
    return vocab.encode(list(line)) + [EOS_ID], spans


def _word_nlls(system: System, sources, lines, merges):
    """Per line, each target word with its NLL under `system`."""
    spans = [_target_word_spans(line, system.unit, system.tgt_vocab, merges) for line in lines]
    scored = score_pairs(system.model, sources, [target for target, _ in spans])
    return [[(word, -float(per_pos[lo:hi].sum())) for word, lo, hi in words]
            for (_, words), (per_pos, _) in zip(spans, scored)]


def _power_of_two_bucket(count: int) -> int:
    return 0 if count < 1 else 2 ** int(math.log2(count))


def word_nll_by_frequency(system_a: System, system_b: System, pairs,
                          src_vocab: Vocabulary, merges: MergeTable,
                          frequencies: dict) -> list[tuple[str, int, float]]:
    """Mean per-word NLL difference (system A minus system B) by training
    frequency, bucketed at powers of two; unseen words land in bucket "0".

    `pairs` holds raw (source line, target line) sentence pairs; both
    systems must share the source-side pipeline given by `src_vocab` and
    `merges`.
    """
    sources = [src_vocab.encode(apply_bpe(s.split(), merges)) + [EOS_ID] for s, _ in pairs]
    lines = [t for _, t in pairs]
    buckets: dict[int, list[float]] = {}
    for tgt_line, scored_a, scored_b in zip(lines, _word_nlls(system_a, sources, lines, merges),
                                            _word_nlls(system_b, sources, lines, merges)):
        if [w for w, _ in scored_a] != [w for w, _ in scored_b]:
            raise CorpusError(f"systems disagree on the words of line: {tgt_line!r}")
        for (word, nll_a), (_, nll_b) in zip(scored_a, scored_b):
            b = _power_of_two_bucket(frequencies.get(word, 0))
            buckets.setdefault(b, []).append(nll_a - nll_b)
    return [
        (str(b), len(vals), float(np.mean(vals)))
        for b, vals in sorted(buckets.items())
    ]


def word_nll_tsv(results) -> str:
    lines = [f"{label}\t{count}\t{value:.6f}" for label, count, value in results]
    return "\n".join(lines) + ("\n" if lines else "")
