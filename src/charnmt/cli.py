"""Command-line entry point covering the whole pipeline.

Subcommands: learn-bpe, build-vocab, train, translate, evaluate, align.
Every run is deterministic given the same inputs, seeds and flags; output
files are written to a temporary name and renamed into place so failures
never leave partial files behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Before numpy loads: one BLAS thread unless the user set a count. The
# matrices are small, and spare threads slow a step tenfold under contention.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .checkpoint import replace_into
from .config import RunConfig
from .decode import alignment_blocks, translate_corpus
from .errors import CharnmtError, ConfigError, ConsistencyError
from .metrics import bleu, bleu_by_source_length, length_bleu_tsv
from .model import score_pairs
from .textpipe import (
    EOS,
    EOS_ID,
    MergeTable,
    build_vocab,
    learn_bpe,
    load_parallel,
    read_lines,
    segment_line,
)
from .trainer import load_trained_model, train


def cmd_learn_bpe(args) -> int:
    table = learn_bpe(read_lines(args.input), args.merges)
    replace_into(args.output, table.save)
    print(f"learned {len(table.rules)} merges -> {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    unit = "character" if args.unit == "char" else args.unit
    lines = read_lines(args.input)
    if unit == "subword" and args.merges is not None:
        table = MergeTable.load(args.merges)
        lines = [" ".join(segment_line(l, "subword", table)) for l in lines]
    vocab = build_vocab(lines, unit, args.max_size)
    replace_into(args.output, vocab.save)
    print(f"wrote {len(vocab)} symbols -> {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    cfg.apply_overrides(args.override)
    model_config, train_config, paths, resume = cfg.resolve()
    result = train(model_config, train_config, paths, resume=resume, echo=print)
    padding = ("" if result.pad_share is None else
               f"; PAD {100 * result.pad_share:.1f}% of the target positions trained on")
    print(f"trained {result.steps} steps; latest checkpoint at {result.latest_dir}; "
          f"{result.dropped_pairs} training pairs over the length limits dropped{padding}")
    if result.best_dir is not None:
        print(f"best dev NLL {result.best_dev_nll:.6f}; "
              f"best checkpoint at {result.best_dir}")
    return 0


def _load_ensemble(primary, extras):
    first = load_trained_model(primary)
    loaded = [first]
    for path in extras:
        member = load_trained_model(path)
        if member.src_vocab.symbols != first.src_vocab.symbols \
                or member.tgt_vocab.symbols != first.tgt_vocab.symbols:
            raise ConsistencyError(
                f"ensemble member {path} uses different vocabularies than {primary}"
            )
        if member.train_config.target_unit != first.train_config.target_unit:
            raise ConsistencyError(
                f"ensemble member {path} decodes a different target unit"
            )
        loaded.append(member)
    return first, [m.model for m in loaded]


def cmd_translate(args) -> int:
    first, models = _load_ensemble(args.model, args.ensemble)
    lines = read_lines(args.input)
    start = time.perf_counter()
    result = translate_corpus(
        models, lines, first.src_vocab, first.tgt_vocab, first.merges,
        first.train_config.target_unit, width=args.beam, max_len=args.max_len,
        length_normalize=args.length_normalize,
    )
    seconds = time.perf_counter() - start
    replace_into(args.output, "".join(t + "\n" for t in result.texts))
    if args.dump_align is not None:
        symbols = first.tgt_vocab.symbols
        replace_into(args.dump_align, alignment_blocks(
            (src, [symbols[t] for t in h.tokens], h.alignments)
            for h, src in zip(result.hypotheses, result.source_symbols)))
    closed = sum(h.truncated for h in result.hypotheses)
    print(f"translated {len(lines)} lines in {seconds:.2f} s "
          f"({len(lines) / max(seconds, 1e-9):.1f} sent/s), {closed} closed at the length cap "
          f"-> {args.output}")
    return 0


def _parse_buckets(spec: str) -> list[int]:
    try:
        edges = [int(part) for part in spec.split(",")]
    except ValueError:
        raise ConfigError(f"bucket spec {spec!r} is not comma-separated integers")
    if not edges or any(e <= 0 for e in edges) or edges != sorted(set(edges)):
        raise ConfigError(f"bucket edges {spec!r} must be positive and increasing")
    return edges


def cmd_evaluate(args) -> int:
    hyps = read_lines(args.hyp)
    refs = read_lines(args.ref)
    print(bleu(hyps, refs).summary_line())
    if (args.src is None) != (args.buckets is None):
        raise ConfigError("--src and --buckets must be given together")
    if args.src is not None:
        sources = read_lines(args.src)
        rows = bleu_by_source_length(hyps, refs, sources, _parse_buckets(args.buckets))
        sys.stdout.write(length_bleu_tsv(rows))
    return 0


def cmd_align(args) -> int:
    tm = load_trained_model(args.model)
    pairs = load_parallel(args.src, args.tgt)
    start = time.perf_counter()
    unit = tm.train_config.target_unit
    rows = [(segment_line(s, "subword", tm.merges), segment_line(t, unit, tm.merges))
            for s, t in pairs]
    scored = score_pairs(tm.model, [tm.src_vocab.encode(s) + [EOS_ID] for s, _ in rows],
                         [tm.tgt_vocab.encode(t) + [EOS_ID] for _, t in rows])
    text = alignment_blocks((s + [EOS], t + [EOS], align)
                            for (s, t), (_, align) in zip(rows, scored))
    seconds = time.perf_counter() - start
    replace_into(args.output, text)
    print(f"aligned {len(pairs)} pairs in {seconds:.2f} s "
          f"({len(pairs) / max(seconds, 1e-9):.1f} pairs/s) -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charnmt",
        description="subword-to-character neural machine translation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-bpe", help="learn a merge table from raw text")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--merges", required=True, type=int)
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=cmd_learn_bpe)

    p = sub.add_parser("build-vocab", help="build a frequency-ranked vocabulary")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--unit", required=True, choices=("subword", "char"))
    p.add_argument("--max-size", required=True, type=int)
    p.add_argument("--merges", type=Path,
                   help="segment the input with this merge table before counting")
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("override", nargs="*", metavar="KEY=VALUE",
                   help="config overrides; the command line wins over the file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="translate raw text with beam search")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--ensemble", nargs="+", type=Path, default=[],
                   metavar="CKPT", help="additional checkpoints to average")
    p.add_argument("--dump-align", type=Path,
                   help="also write soft-alignment matrices to this file")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--length-normalize", action="store_true",
                   help="rank finished hypotheses by per-token score")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU of a hypothesis file")
    p.add_argument("--hyp", required=True, type=Path)
    p.add_argument("--ref", required=True, type=Path)
    p.add_argument("--src", type=Path,
                   help="source file for by-length bucket scores")
    p.add_argument("--buckets", type=str,
                   help="comma-separated source-length edges, e.g. 10,20,30")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("align", help="teacher-forced alignments for parallel text")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--tgt", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=cmd_align)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CharnmtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
