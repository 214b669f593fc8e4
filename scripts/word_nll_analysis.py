#!/usr/bin/env python3
"""Compare two trained systems' per-word NLL, bucketed by word frequency.

Scores the same parallel text under both checkpoints with teacher forcing,
sums each system's NLL over the positions belonging to each target word,
and reports the mean difference (A minus B) per power-of-two frequency
bucket. Negative numbers mean system A assigns the bucket's words higher
probability. The two checkpoints may decode different target units (for
example subword versus character) but must share the source-side pipeline.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

from charnmt.checkpoint import replace_into
from charnmt.errors import ConsistencyError
from charnmt.metrics import System, word_nll_by_frequency, word_nll_tsv
from charnmt.textpipe import load_parallel
from charnmt.trainer import load_trained_model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model-a", type=Path, required=True)
    ap.add_argument("--model-b", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--tgt", type=Path, required=True)
    ap.add_argument("--train-target", type=Path, required=True,
                    help="corpus whose word counts define the buckets")
    ap.add_argument("--output", type=Path)
    args = ap.parse_args()

    a = load_trained_model(args.model_a)
    b = load_trained_model(args.model_b)
    if a.src_vocab.symbols != b.src_vocab.symbols or a.merges.rules != b.merges.rules:
        raise ConsistencyError(
            "the two checkpoints use different source-side pipelines")

    frequencies = Counter()
    for line in args.train_target.read_text(encoding="utf-8").splitlines():
        frequencies.update(line.split())

    pairs = load_parallel(args.src, args.tgt)
    rows = word_nll_by_frequency(
        System(a.model, a.tgt_vocab, a.train_config.target_unit),
        System(b.model, b.tgt_vocab, b.train_config.target_unit),
        pairs, a.src_vocab, a.merges, frequencies,
    )
    text = word_nll_tsv(rows)
    sys.stdout.write("frequency\twords\tmean_nll_a_minus_b\n" + text)
    if args.output is not None:
        replace_into(args.output, text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
