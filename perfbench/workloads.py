"""Workloads of the charnmt benchmark.

Every workload is one closed loop in one process: the next operation starts
when the previous one has returned. Inputs come from `charnmt.synth`'s
transliteration task, generated from the run's seed.

- train-base / train-biscale: two identical trainings of one decoder kind,
  which must log identically, each followed by decode rounds on the held-out
  lines with its checkpoints, until the run's time is used.
- translate: set-up trains a `base` and a `biscale` model; the measured part
  repeats decode rounds on the held-out lines until the run's time is used.

A training is a from-scratch `trainer.train` call followed by a second call
that resumes from its `latest` checkpoint at a smaller step size. Without
that annealing phase the `base` decoder ends some seeds on a loss spike, and
the model then loops on a held-out line until the length cap closes it.

A decode round loads the `base` checkpoint a few times with
`trainer.load_trained_model` and runs three `decode.translate_corpus` sweeps
over the same lines: width 1, width 5, and width 5 on a two-model ensemble.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from charnmt import decode, metrics, synth, textpipe, trainer
from charnmt.model import ModelConfig

import checks

UNIT = "character"


@dataclass(frozen=True)
class Sizes:
    pairs: int = 2000
    held_out_per_length: int = 21  # held-out sentences of each length in words
    words_per_sentence: tuple[int, int] = (2, 4)
    word_length: tuple[int, int] = (4, 6)
    lexicon_words: int = 40
    lexicon_seed: int = 7  # fixed, as in charnmt.synth: seeds vary the sentences, not the words
    merges: int = 150
    max_src_vocab: int = 400
    max_tgt_vocab: int = 60
    d_emb: int = 32
    d_enc: int = 48
    d_dec: int = 64
    d_att: int = 48
    batch: int = 32
    step_size: float = 5e-3
    steps: int = 160  # the from-scratch train() call
    anneal_step_size: float = 1e-3
    anneal_steps: int = 40  # the resumed train() call
    validate_every: int = 40
    width: int = 5
    min_rounds: int = 4  # decode rounds per run even when the time is used up
    loads: int = 5  # load_trained_model calls per decode round
    setup_repeats: int = 3  # set-ups before the measured part and after each training or round
    # Quality floors, below the lowest figures seen over 22 seeds with each
    # decoder (last dev BLEU and width-5 BLEU 0.99 or more) and far above an
    # untrained model's 0.
    train_bleu_floor: float = 0.8
    translate_bleu_floor: float = 0.8


FULL = Sizes()
TINY = Sizes(pairs=40, held_out_per_length=2, merges=10, d_emb=8, d_enc=8, d_dec=8, d_att=8,
             batch=8, steps=4, anneal_steps=2, validate_every=2, loads=2, setup_repeats=2, min_rounds=2,
             train_bleu_floor=0.0, translate_bleu_floor=0.0)


@dataclass
class Ledger:
    """Operations attempted and failed, problems the checks found, and the
    quality figures they compared with floors."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def operation(self, count: int = 1):
        self.attempted += count
        try:
            yield
        except Exception:
            self.failed += count
            raise


# -- inputs ----------------------------------------------------------------


def hold_out(pairs, per_length: int):
    """Split off, from the end, the last `per_length` pairs of each sentence
    length in words. The held-out lines then hold about the same number of
    characters on every seed, so the decode rates of two seeds compare the
    same amount of work."""
    taken: Counter = Counter()
    held = set()
    for i in reversed(range(len(pairs))):
        words = len(pairs[i][0].split())
        if taken[words] < per_length:
            taken[words] += 1
            held.add(i)
    return ([p for i, p in enumerate(pairs) if i not in held],
            [p for i, p in enumerate(pairs) if i in held])


def prepare(directory: Path, seed: int, sizes: Sizes) -> trainer.TrainPaths:
    """Corpus, source BPE and both vocabularies for one seed."""
    directory.mkdir(parents=True)
    lexicon = synth.make_lexicon(sizes.lexicon_words, *sizes.word_length,
                                 seed=sizes.lexicon_seed)
    pairs = synth.transliteration_corpus(sizes.pairs, seed=seed, lexicon=lexicon,
                                         words_per_sentence=sizes.words_per_sentence)
    train_pairs, dev_pairs = hold_out(pairs, sizes.held_out_per_length)
    paths = trainer.TrainPaths(
        train_source=directory / "train.src", train_target=directory / "train.tgt",
        dev_source=directory / "dev.src", dev_target=directory / "dev.tgt",
        src_vocab=directory / "vocab.src", tgt_vocab=directory / "vocab.tgt",
        merges=directory / "merges.txt", out_dir=directory / "run",
    )
    for path, rows in ((paths.train_source, [s for s, _ in train_pairs]),
                       (paths.train_target, [t for _, t in train_pairs]),
                       (paths.dev_source, [s for s, _ in dev_pairs]),
                       (paths.dev_target, [t for _, t in dev_pairs])):
        path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    merges = textpipe.learn_bpe([s for s, _ in train_pairs], sizes.merges)
    merges.save(paths.merges)
    segmented = [" ".join(textpipe.segment_line(s, "subword", merges)) for s, _ in train_pairs]
    textpipe.build_vocab(segmented, "subword", sizes.max_src_vocab).save(paths.src_vocab)
    textpipe.build_vocab([t for _, t in train_pairs], UNIT, sizes.max_tgt_vocab).save(
        paths.tgt_vocab)
    return paths


class SetupTimer:
    """Repeats the set-up over the run and reports the median time, so that
    one slow or fast moment of the machine does not set the figure."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.seed, self.sizes = work, seed, sizes
        self.seconds: list[float] = []

    def sample(self) -> trainer.TrainPaths:
        """Set up `sizes.setup_repeats` times; return the last set-up's paths."""
        for _ in range(self.sizes.setup_repeats):
            start = perf_counter()
            paths = prepare(self.work / f"data-{len(self.seconds)}", self.seed, self.sizes)
            self.seconds.append(perf_counter() - start)
        return paths

    def median(self) -> float:
        return statistics.median(self.seconds)


def configs(paths, sizes: Sizes, decoder: str, seed: int):
    mc = ModelConfig(
        len(textpipe.Vocabulary.load(paths.src_vocab, "subword")),
        len(textpipe.Vocabulary.load(paths.tgt_vocab, UNIT)),
        d_emb=sizes.d_emb, d_enc=sizes.d_enc, d_dec=sizes.d_dec, d_att=sizes.d_att,
        decoder=decoder,
    )
    tc = trainer.TrainConfig(batch_size=sizes.batch, max_steps=sizes.steps + sizes.anneal_steps,
                             validate_every=sizes.validate_every, step_size=sizes.step_size,
                             seed=seed, target_unit=UNIT)
    return mc, tc


def target_tokens(paths, tc: trainer.TrainConfig) -> int:
    """Non-PAD target tokens of the batches a training consumes: epoch e
    shuffles with seed + e, as the trainer documents, and a resumed call
    goes on where the checkpoint left the batch stream."""
    merges = textpipe.MergeTable.load(paths.merges)
    src_vocab = textpipe.Vocabulary.load(paths.src_vocab, "subword")
    tgt_vocab = textpipe.Vocabulary.load(paths.tgt_vocab, UNIT)
    pairs = [(textpipe.segment_line(s, "subword", merges), textpipe.segment_line(t, UNIT))
             for s, t in textpipe.load_parallel(paths.train_source, paths.train_target)]
    total, remaining, epoch = 0, tc.max_steps, 0
    while remaining > 0:
        batches = textpipe.make_batches(pairs, src_vocab, tgt_vocab, tc.max_source_len,
                                        tc.target_limit(), tc.batch_size, tc.seed + epoch)
        for batch in batches[:remaining]:
            total += int(batch.label_mask().sum())
        remaining -= len(batches)
        epoch += 1
    return total


# -- training --------------------------------------------------------------


@dataclass
class TrainCall:
    seconds: float  # both train() calls, whole
    step_seconds: list[float]  # echo-to-echo intervals; each call's first step is excluded
    steps_spans: list[tuple[float, float]]  # first to last echo of each call
    result: trainer.TrainResult  # of the resumed call
    log: str


def run_train(mc, tc, paths, out_dir: Path, sizes: Sizes) -> TrainCall:
    """Train from scratch for `sizes.steps` steps, then resume from `latest`
    at the annealing step size up to `tc.max_steps`."""
    phases = (replace(tc, max_steps=sizes.steps),
              replace(tc, step_size=sizes.anneal_step_size))
    seconds, step_seconds, spans, resume = 0.0, [], [], None
    for phase in phases:
        stamps: list[float] = []
        start = perf_counter()
        result = trainer.train(mc, phase, replace(paths, out_dir=out_dir), resume=resume,
                               echo=lambda _line: stamps.append(perf_counter()))
        seconds += perf_counter() - start
        step_seconds += np.diff(stamps).tolist()
        spans.append((stamps[0], stamps[-1]))
        resume = result.latest_dir
    return TrainCall(seconds, step_seconds, spans, result,
                     result.log_path.read_text(encoding="utf-8"))


def train_metrics(calls: list[TrainCall], tokens_per_call: int) -> dict[str, float]:
    steps_ms = [1000.0 * s for call in calls for s in call.step_seconds]
    return {
        "train_tokens_per_s": tokens_per_call * len(calls) / sum(c.seconds for c in calls),
        "train_step_ms_p50": statistics.median(steps_ms),
        "train_step_ms_p95": statistics.quantiles(steps_ms, n=20)[18],
    }


def unattributed_share(tracer, calls: list[TrainCall]) -> float:
    """Share of traced train-step time that no layer span covers."""
    spans = [span for c in calls for span in c.steps_spans]
    total = sum(b - a for a, b in spans)
    covered = sum(tracer.covered(a, b) for a, b in spans)
    return (total - covered) / total if total else 0.0


# -- decoding --------------------------------------------------------------


SWEEPS = ("greedy", "beam5", "ensemble")


@dataclass
class DecodeStats:
    rates: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in SWEEPS})
    load_seconds: list[float] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    last: dict[str, decode.TranslationResult] = field(default_factory=dict)
    truncated: int = 0


def decode_round(ledger: Ledger, stats: DecodeStats, base_dir: Path, partner, lines,
                 sizes: Sizes) -> None:
    """Load the base checkpoint `sizes.loads` times, then sweep `lines` three ways."""
    round_start = perf_counter()
    for _ in range(sizes.loads):
        with ledger.operation():
            start = perf_counter()
            loaded = trainer.load_trained_model(base_dir)
            stats.load_seconds.append(perf_counter() - start)
    plans = {"greedy": ([loaded.model], 1), "beam5": ([loaded.model], sizes.width),
             "ensemble": ([loaded.model, partner], sizes.width)}
    for kind, (models, width) in plans.items():
        with ledger.operation(len(lines)):
            start = perf_counter()
            result = decode.translate_corpus(models, lines, loaded.src_vocab,
                                             loaded.tgt_vocab, loaded.merges, UNIT, width)
            stats.rates[kind].append(len(lines) / (perf_counter() - start))
        truncated = sum(h.truncated for h in result.hypotheses)
        ledger.failed += truncated
        stats.truncated += truncated
        stats.last[kind] = result
    stats.round_seconds.append(perf_counter() - round_start)


def decode_metrics(stats: DecodeStats) -> dict[str, float]:
    out = {f"translate_{kind}_sent_per_s": statistics.median(stats.rates[kind])
           for kind in SWEEPS}
    out["load_model_ms"] = 1000.0 * statistics.median(stats.load_seconds)
    return out


def greedy_tokens(model, lines, loaded, chunk: int) -> list[list[int]]:
    """Batched `greedy_decode` over raw lines, segmented as translate_corpus does."""
    out = []
    for start in range(0, len(lines), chunk):
        rows = [loaded.src_vocab.encode(textpipe.apply_bpe(line.split(), loaded.merges))
                + [textpipe.EOS_ID] for line in lines[start:start + chunk]]
        source = np.full((len(rows), max(map(len, rows))), textpipe.PAD_ID, dtype=np.int64)
        for i, row in enumerate(rows):
            source[i, :len(row)] = row
        cap = max(decode.default_max_len(len(r) - 1, UNIT) for r in rows)
        hyps = decode.greedy_decode([model], source, np.array([len(r) for r in rows]), cap)
        out.extend(h.tokens for h in hyps)
    return out


def check_decoding(ledger: Ledger, stats: DecodeStats, base_dir: Path, lines, refs,
                   sizes: Sizes) -> None:
    loaded = trainer.load_trained_model(base_dir)
    ledger.problems += checks.check_greedy_law(
        stats.last["greedy"].hypotheses, greedy_tokens(loaded.model, lines, loaded, sizes.batch))
    beam_bleu = metrics.bleu(stats.last["beam5"].texts, refs).bleu
    ledger.quality["beam5_bleu"] = beam_bleu
    ledger.problems += checks.check_floor("width-5 BLEU", beam_bleu, sizes.translate_bleu_floor)


# -- workloads -------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, float]  # end-to-end
    layers: dict[str, float]  # per-layer, traced runs only
    samples: dict[str, int]


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _outcome(setup_s, timed_calls, tokens, stats, tracer, overhead, traced_calls):
    layers = {}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["decode.truncated"] = float(stats.truncated)
        layers["trace.overhead_share"] = overhead
        layers["trace.unattributed_share"] = unattributed_share(tracer, traced_calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Outcome(
        metrics={"setup_s": setup_s, **train_metrics(timed_calls, tokens),
                 **decode_metrics(stats), "peak_rss_mb": peak_rss_mb},
        layers=layers,
        samples={"train_calls_timed": len(timed_calls),
                 "train_steps_timed": sum(len(c.step_seconds) for c in timed_calls),
                 "decode_rounds": len(stats.round_seconds),
                 "loads_timed": len(stats.load_seconds)},
    )


def train_workload(decoder: str, seed: int, seconds: float, sizes: Sizes, work: Path,
                   ledger: Ledger, tracer=None) -> Outcome:
    """Two identical trainings, each followed by decode rounds with its
    checkpoints; after the second, rounds go on until `seconds` have passed
    since the first training began."""
    setup = SetupTimer(work, seed, sizes)
    paths = setup.sample()
    mc, tc = configs(paths, sizes, decoder, seed)
    tokens = target_tokens(paths, tc)
    dev_lines, dev_refs = _read_lines(paths.dev_source), _read_lines(paths.dev_target)

    # Decode rounds follow each call, so that the decode figures, like the
    # training ones, sample the whole run rather than its last seconds.
    start = perf_counter()
    calls: list[TrainCall] = []
    stats = DecodeStats()
    for i in range(2):
        if tracer is not None and i == 1:
            tracer.install()  # training 0 and its rounds stay untraced: the overhead reference
        with ledger.operation():
            calls.append(run_train(mc, tc, paths, work / f"run-{i}", sizes))
        setup.sample()
        last = calls[-1].result
        partner = trainer.load_trained_model(last.best_dir).model
        rounds = len(stats.round_seconds) + sizes.min_rounds // 2
        while len(stats.round_seconds) < rounds or (i == 1 and perf_counter() - start < seconds):
            decode_round(ledger, stats, last.latest_dir, partner, dev_lines, sizes)
            setup.sample()
    if tracer is not None:
        tracer.uninstall()

    for call in calls:
        ledger.problems += checks.check_train_log(call.log, tc.max_steps, sizes.train_bleu_floor)
    ledger.quality[f"dev_bleu_{decoder}"] = checks.last_dev_bleu(calls[-1].log)
    ledger.problems += checks.check_identical_logs([c.log for c in calls])
    ledger.problems += checks.check_reload(trainer.load_trained_model(last.latest_dir),
                                           decoder, tc.max_steps)
    check_decoding(ledger, stats, last.latest_dir, dev_lines, dev_refs, sizes)
    return _outcome(setup.median(), calls, tokens, stats, tracer,
                    calls[1].seconds / calls[0].seconds - 1.0, calls[1:])


def translate_workload(seed: int, seconds: float, sizes: Sizes, work: Path,
                       ledger: Ledger, tracer=None) -> Outcome:
    """Set-up trains a base and a biscale model; decode rounds follow until
    `seconds` have passed. The train_* metrics describe both trainings."""
    setup = SetupTimer(work, seed, sizes)
    paths = setup.sample()
    if tracer is not None:
        tracer.install()  # the set-up training supplies the training layers' figures
    trained = {}
    for decoder in ("base", "biscale"):
        mc, tc = configs(paths, sizes, decoder, seed)
        with ledger.operation():
            trained[decoder] = run_train(mc, tc, paths, work / f"model-{decoder}", sizes)
    if tracer is not None:
        tracer.uninstall()
    train_seconds = sum(call.seconds for call in trained.values())
    tokens = target_tokens(paths, tc)  # both models train on the same batches
    lines, refs = _read_lines(paths.dev_source), _read_lines(paths.dev_target)
    base_dir = trained["base"].result.latest_dir
    partner = trainer.load_trained_model(trained["biscale"].result.latest_dir).model

    stats = DecodeStats()
    start = perf_counter()
    while len(stats.round_seconds) < sizes.min_rounds or perf_counter() - start < seconds:
        if tracer is not None and len(stats.round_seconds) == 1:
            tracer.install()  # round 1 stays untraced: the overhead reference
        decode_round(ledger, stats, base_dir, partner, lines, sizes)
        setup.sample()
    if tracer is not None:
        tracer.uninstall()

    for decoder, call in trained.items():
        ledger.problems += checks.check_train_log(call.log, tc.max_steps, sizes.train_bleu_floor)
        ledger.quality[f"dev_bleu_{decoder}"] = checks.last_dev_bleu(call.log)
        ledger.problems += checks.check_reload(
            trainer.load_trained_model(call.result.latest_dir), decoder, tc.max_steps)
    check_decoding(ledger, stats, base_dir, lines, refs, sizes)
    overhead = statistics.median(stats.round_seconds[1:]) / stats.round_seconds[0] - 1.0
    return _outcome(setup.median() + train_seconds, list(trained.values()), tokens, stats,
                    tracer, overhead, list(trained.values()))


WORKLOADS = {
    "train-base": lambda *a, **k: train_workload("base", *a, **k),
    "train-biscale": lambda *a, **k: train_workload("biscale", *a, **k),
    "translate": translate_workload,
}
