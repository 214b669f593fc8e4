"""Negative log-likelihood training with Adam, gradient clipping,
checkpointing, and validation-driven model selection.

The loop is: batch -> teacher-forced mean NLL -> backward -> global-norm
clip -> bias-corrected Adam step. A non-finite loss or gradient norm stops
the run before the step touches the parameters. Every validation interval
the current parameters are scored on the dev set (mean NLL plus
greedy-decode BLEU); the best-by-dev-NLL checkpoint is kept alongside the
latest. `best` holds the parameters alone, for inference; only `latest`
carries the Adam moments a resume needs. Epoch e trains on the
length-bucketed batches `make_batches` cuts with seed + e, so a resumed run
sees the identical batch sequence. A step's log line reaches the disk before
any checkpoint of it, so a run killed at any instant and resumed in place
leaves the log of an uninterrupted run.

A run reads its vocabularies and merge table once, as bytes. It parses them
with `parse_run_files`, as a checkpoint load does, and bundles those same
bytes into every checkpoint; a resume refuses files whose bytes differ from
its checkpoint's copies.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, replace_into, save_checkpoint
from .decode import default_max_len, greedy_decode, hypothesis_text
from .errors import ConfigError, ConsistencyError, ContractError, CorpusError, NonFiniteError
from .metrics import bleu
from .model import SEARCH_CHUNK, Model, ModelConfig, init_params, label_log_probs, param_spec
from .numerics import PRECISIONS, Graph, ParameterStore, backward, scale, sum_all
from .textpipe import (
    EOS_ID,
    MergeTable,
    Vocabulary,
    decode_text,
    load_parallel,
    make_batches,
    pad_rows,
    segment_line,
    within_limits,
)


@dataclass
class TrainConfig:
    batch_size: int = 128
    clip: float = 1.0
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_steps: int = 1000
    validate_every: int = 100
    seed: int = 0
    max_source_len: int = 50
    max_target_len: int | None = None  # default depends on the target unit
    target_unit: str = "character"

    def __post_init__(self):
        for name in ("batch_size", "validate_every", "max_source_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        # `not value > 0` refuses NaN too; an infinite clip is legal and never clips
        for name, finite in (("clip", False), ("step_size", True), ("epsilon", True)):
            value = getattr(self, name)
            if not value > 0 or (finite and math.isinf(value)):
                raise ConfigError(f"{name} must be positive{' and finite' if finite else ''}, "
                                  f"got {value}")
        for name in ("max_steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        if self.target_unit not in ("character", "subword"):
            raise ConfigError(f"unknown target unit {self.target_unit!r}")
        if self.max_target_len is not None and self.max_target_len < 1:
            raise ConfigError("max_target_len must be positive")

    def target_limit(self) -> int:
        if self.max_target_len is not None:
            return self.max_target_len
        return 500 if self.target_unit == "character" else 100


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, store: ParameterStore) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in store.items()},
            v={k: np.zeros_like(t.data) for k, t in store.items()},
        )


def batch_nll(model: Model, batch) -> "Tensor":
    """Mean negative log-likelihood per non-PAD target token."""
    mask = batch.label_mask()
    n = float(mask.sum())
    if n == 0:
        raise ContractError("batch contains no unmasked target tokens")
    picked, _ = label_log_probs(model, batch.source, batch.source_lengths, batch.target,
                                batch.target_lengths)
    return scale(sum_all(picked), -1.0 / n)


def global_norm(grads: dict) -> float:
    return math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))


def clip_gradients(grads: dict, threshold: float):
    """Scale all gradients by threshold/norm when the global L2 norm exceeds
    the threshold. Returns (gradients, pre-clip norm)."""
    if threshold <= 0:
        raise ConfigError(f"clip threshold must be positive, got {threshold}")
    norm = global_norm(grads)
    if norm > threshold:
        factor = threshold / norm
        grads = {k: g * g.dtype.type(factor) for k, g in grads.items()}
    return grads, norm


def adam_step(store: ParameterStore, grads: dict, opt: OptimizerState,
              config: TrainConfig) -> None:
    """Bias-corrected Adam update, in place."""
    opt.step += 1
    t = opt.step
    rate = config.step_size * math.sqrt(1.0 - config.beta2**t) / (1.0 - config.beta1**t)
    b1, b2, eps = config.beta1, config.beta2, config.epsilon
    for name in list(grads):
        g = grads[name]
        opt.m[name] = b1 * opt.m[name] + (1.0 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1.0 - b2) * g * g
        update = rate * opt.m[name] / (np.sqrt(opt.v[name]) + eps)
        store.assign(name, store[name].data - update.astype(store.dtype))


@dataclass
class TrainPaths:
    train_source: Path
    train_target: Path
    dev_source: Path
    dev_target: Path
    src_vocab: Path
    tgt_vocab: Path
    merges: Path
    out_dir: Path


@dataclass
class TrainResult:
    steps: int
    latest_dir: Path
    best_dir: Path | None
    best_dev_nll: float | None
    log_path: Path
    dropped_pairs: int  # training pairs over the length limits
    pad_share: float | None  # PAD share of the label positions this call trained on


def config_dict(model_config: ModelConfig, train_config: TrainConfig) -> dict:
    return {k: str(v) for k, v in {**asdict(model_config), **asdict(train_config)}.items()}


def _coerce(key: str, raw: str, annotation: str):
    # annotations are strings here ("int", "int | None", ...): the modules
    # that define the config dataclasses use postponed evaluation
    if raw == "None" and "None" in annotation:
        return None
    kind = annotation.split("|")[0].strip()
    try:
        return {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not a valid {kind}") from None


def typed_config(cls, values: dict[str, str]):
    """Build config dataclass `cls` from the string `values` of its fields;
    fields absent from `values` keep their defaults. A value of the wrong
    type raises ConfigError naming the key."""
    return cls(**{f.name: _coerce(f.name, values[f.name], f.type)
                  for f in fields(cls) if f.name in values})


def configs_from_dict(raw: dict) -> tuple[ModelConfig, TrainConfig]:
    """Rebuild the two config dataclasses from a checkpoint's flat mapping."""
    for cls in (ModelConfig, TrainConfig):
        for f in fields(cls):
            if f.name not in raw:
                raise ConsistencyError(f"checkpoint config is missing key {f.name!r}")
    return typed_config(ModelConfig, raw), typed_config(TrainConfig, raw)


def check_architecture(stored: ModelConfig, requested: ModelConfig) -> None:
    for f in fields(ModelConfig):
        a, b = getattr(stored, f.name), getattr(requested, f.name)
        if a != b:
            raise ConsistencyError(
                f"checkpoint was trained with {f.name}={a!r}, requested {f.name}={b!r}"
            )


def _spec_tensors(config: ModelConfig, tensors: dict, prefix: str = "") -> dict[str, np.ndarray]:
    """The arrays `param_spec(config)` names, read from `tensors` under
    `prefix` (the parameters themselves, or "adam.m." / "adam.v." for the
    Adam moments) and cast to the config's precision. A missing or
    wrong-shaped tensor raises ConsistencyError naming it."""
    dtype = PRECISIONS[config.precision]
    out = {}
    for name, shape, _ in param_spec(config):
        key = prefix + name
        if key not in tensors:
            raise ConsistencyError(f"checkpoint lacks tensor {key!r}")
        if tensors[key].shape != shape:
            raise ConsistencyError(
                f"checkpoint tensor {key!r} has shape {tensors[key].shape}, expected {shape}"
            )
        out[name] = np.ascontiguousarray(tensors[key], dtype=dtype)
    return out


def _store_from(config: ModelConfig, tensors: dict) -> ParameterStore:
    # copies: a view would keep the whole blob, Adam moments included, alive
    store = ParameterStore(config.precision)
    for name, array in _spec_tensors(config, tensors).items():
        store.add(name, array.copy())
    return store


BUNDLED_ROLES = ("src_vocab", "tgt_vocab", "merges")  # TrainPaths fields every checkpoint bundles


def parse_run_files(files: dict[str, bytes], model_config: ModelConfig, target_unit: str,
                    origins: dict, vocabs_origin: str):
    """Both vocabularies and the merge table in `files` (role -> bytes), sized to
    fit `model_config`; errors name each file `origins[role]` and the two
    vocabularies together `vocabs_origin`."""
    src_vocab = Vocabulary.parse(files["src_vocab"], "subword", origins["src_vocab"])
    tgt_vocab = Vocabulary.parse(files["tgt_vocab"], target_unit, origins["tgt_vocab"])
    merges = MergeTable.parse(files["merges"], origins["merges"])
    model_config.check_vocab_sizes(len(src_vocab), len(tgt_vocab), vocabs_origin)
    return src_vocab, tgt_vocab, merges


@dataclass
class TrainedModel:
    """A checkpoint materialized for inference: model plus its data plumbing."""

    model: Model
    model_config: ModelConfig
    train_config: TrainConfig
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    merges: MergeTable
    state: dict


def load_trained_model(directory) -> TrainedModel:
    """Rebuild a ready-to-decode model from a checkpoint directory.

    Validates that every expected parameter is present with its declared
    shape and that the bundled vocabularies match the stored architecture.
    """
    cp = load_checkpoint(directory)
    mc, tc = configs_from_dict(cp.config)
    store = _store_from(mc, cp.tensors)
    for role in BUNDLED_ROLES:
        if role not in cp.files:
            raise ConsistencyError(f"checkpoint lacks bundled file {role!r}")
    src_vocab, tgt_vocab, merges = parse_run_files(
        cp.files, mc, tc.target_unit,
        {role: f"{role} bundled in {directory}" for role in BUNDLED_ROLES},
        f"the vocabularies bundled in {directory}")
    return TrainedModel(
        model=Model(mc, store), model_config=mc, train_config=tc,
        src_vocab=src_vocab, tgt_vocab=tgt_vocab, merges=merges, state=cp.state,
    )


def _segment_pairs(pairs, merges, unit):
    return [
        (segment_line(s, "subword", merges), segment_line(t, unit, merges))
        for s, t in pairs
    ]


def greedy_corpus_bleu(model: Model, src_lines, ref_lines, src_vocab, merges,
                       tgt_vocab, unit) -> float:
    """BLEU of batched greedy decoding against raw reference lines, each
    line capped at its own default length."""
    rows = [src_vocab.encode(segment_line(l, "subword", merges)) + [EOS_ID] for l in src_lines]
    texts = []
    for start in range(0, len(rows), SEARCH_CHUNK):
        part = rows[start : start + SEARCH_CHUNK]
        mat, lengths = pad_rows(part)
        caps = [default_max_len(len(r) - 1, unit) for r in part]
        texts += [hypothesis_text(h, tgt_vocab, unit)
                  for h in greedy_decode([model], mat, lengths, caps)]
    return bleu(texts, ref_lines).bleu


def _dev_nll(model: Model, batches) -> float:
    total, count = 0.0, 0
    for batch in batches:
        n = batch.label_mask().sum()
        total += float(batch_nll(model, batch).data) * n
        count += n
    return total / max(count, 1)


def _trim_log(path: Path, step: int) -> None:
    """Cut a run's log back to the lines of steps up to `step`, so that a
    resumed run does not log the steps after its checkpoint twice."""
    if not path.exists():
        return
    kept = []
    for line in decode_text(path.read_bytes(), path).splitlines(keepends=True):
        if not line.endswith("\n") or int(line.split("\t", 1)[0]) > step:
            break
        kept.append(line)
    replace_into(path, "".join(kept))


def _batch_stream(pairs, src_vocab, tgt_vocab, config: TrainConfig, epoch: int, start: int):
    while True:
        batches = make_batches(
            pairs, src_vocab, tgt_vocab, config.max_source_len,
            config.target_limit(), config.batch_size, seed=config.seed + epoch,
        )
        if not batches:
            raise CorpusError("no training pairs survive the length limits")
        for index in range(start, len(batches)):
            after = (epoch, index + 1) if index + 1 < len(batches) else (epoch + 1, 0)
            yield batches[index], epoch, index, after
        epoch, start = epoch + 1, 0


def train(model_config: ModelConfig, train_config: TrainConfig, paths: TrainPaths,
          resume: Path | None = None, echo=None) -> TrainResult:
    """Run the full training loop; see the module docstring for the shape.

    `resume` points at a checkpoint directory; architecture fields must
    match the requested config. `echo`, when given, receives each log line.
    """
    files = {role: Path(getattr(paths, role)).read_bytes() for role in BUNDLED_ROLES}
    src_vocab, tgt_vocab, merges = parse_run_files(
        files, model_config, train_config.target_unit,
        {role: getattr(paths, role) for role in BUNDLED_ROLES},
        f"the vocabulary files {paths.src_vocab}, {paths.tgt_vocab}")
    train_pairs = _segment_pairs(
        load_parallel(paths.train_source, paths.train_target), merges,
        train_config.target_unit,
    )
    dev_raw = load_parallel(paths.dev_source, paths.dev_target)
    dev_pairs = _segment_pairs(dev_raw, merges, train_config.target_unit)
    dev_src_lines = [s for s, _ in dev_raw]
    dev_ref_lines = [t for _, t in dev_raw]
    dev_batches = make_batches(
        dev_pairs, src_vocab, tgt_vocab, train_config.max_source_len,
        train_config.target_limit(), train_config.batch_size, seed=0,
    )

    out_dir = Path(paths.out_dir)
    log_path = out_dir / "train.log"
    if resume is None:
        store = init_params(model_config, train_config.seed)
        opt = OptimizerState.fresh(store)
        epoch, batch_start = 0, 0
        best_nll = math.inf
    else:
        cp = load_checkpoint(resume)
        stored_mc, _ = configs_from_dict(cp.config)
        check_architecture(stored_mc, model_config)
        for key in ("step", "epoch", "batch"):
            if not isinstance(cp.state.get(key), int) or cp.state[key] < 0:
                raise ConsistencyError(
                    f"checkpoint state {key!r} is missing or not a nonnegative integer")
        store = _store_from(model_config, cp.tensors)
        # views of the blob: adam_step replaces each moment at its first step
        opt = OptimizerState(m=_spec_tensors(model_config, cp.tensors, "adam.m."),
                             v=_spec_tensors(model_config, cp.tensors, "adam.v."),
                             step=cp.state["step"])
        epoch, batch_start = cp.state["epoch"], cp.state["batch"]
        best_nll = float(cp.state.get("best_dev_nll", math.inf))
        if "best_dev_nll" in cp.state and not math.isfinite(best_nll):
            raise ConsistencyError(f"checkpoint state 'best_dev_nll' = {best_nll} is not finite")
        for role in BUNDLED_ROLES:
            if cp.files.get(role) != files[role]:
                raise ConsistencyError(f"the run's {role} file {getattr(paths, role)} differs "
                                       f"from the copy bundled in {resume}")
        _trim_log(log_path, opt.step)

    model = Model(model_config, store)
    out_dir.mkdir(parents=True, exist_ok=True)
    latest_dir = out_dir / "latest"
    best_dir = out_dir / "best"
    conf = config_dict(model_config, train_config)

    def save(directory, position, moments=True):
        log.flush()
        os.fsync(log.fileno())
        tensors = {name: t.data for name, t in store.items()}
        if moments:
            tensors.update({f"adam.m.{k}": v for k, v in opt.m.items()})
            tensors.update({f"adam.v.{k}": v for k, v in opt.v.items()})
        state = {"step": opt.step, "epoch": position[0], "batch": position[1]}
        if math.isfinite(best_nll):
            state["best_dev_nll"] = best_nll
        save_checkpoint(directory, conf, state, tensors, files)

    kept = within_limits(train_pairs, train_config.max_source_len, train_config.target_limit())
    stream = _batch_stream(train_pairs, src_vocab, tgt_vocab, train_config,
                           epoch, batch_start)
    position = (epoch, batch_start)
    label_positions = real_positions = 0  # over the batches this call trains on
    dev_nll = None
    with open(log_path, "w" if resume is None else "a", encoding="utf-8") as log:
        while opt.step < train_config.max_steps:
            batch, cur_epoch, cur_index, position = next(stream)
            labels = batch.label_mask()
            label_positions += labels.size
            real_positions += int(labels.sum())
            with Graph(store) as graph:
                loss = batch_nll(model, batch)
            where = f"at step {opt.step + 1} (epoch {cur_epoch}, batch {cur_index})"
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise NonFiniteError(f"non-finite training loss {where}")
            grads = {k: t.data for k, t in backward(graph, loss).items()}
            grads, grad_norm = clip_gradients(grads, train_config.clip)
            if not math.isfinite(grad_norm):
                raise NonFiniteError(f"non-finite gradient norm {where}")
            adam_step(store, grads, opt, train_config)

            dev_nll = dev_bleu = None
            if opt.step % train_config.validate_every == 0:
                dev_nll = _dev_nll(model, dev_batches)
                dev_bleu = greedy_corpus_bleu(
                    model, dev_src_lines, dev_ref_lines, src_vocab, merges,
                    tgt_vocab, train_config.target_unit,
                )

            line = "\t".join([
                str(opt.step),
                f"{loss_value:.6f}",
                f"{grad_norm:.6f}",
                "-" if dev_nll is None else f"{dev_nll:.6f}",
                "-" if dev_bleu is None else f"{dev_bleu:.4f}",
            ])
            log.write(line + "\n")
            if dev_nll is not None:
                if dev_nll < best_nll:
                    best_nll = dev_nll
                    save(best_dir, position, moments=False)
                save(latest_dir, position)
            if echo is not None:
                echo(line)
        if dev_nll is None:  # else the last step's validation saved `latest`
            save(latest_dir, position)
    return TrainResult(
        steps=opt.step,
        latest_dir=latest_dir,
        best_dir=best_dir if math.isfinite(best_nll) and best_dir.exists() else None,
        best_dev_nll=best_nll if math.isfinite(best_nll) else None,
        log_path=log_path,
        dropped_pairs=len(train_pairs) - len(kept),
        pad_share=1.0 - real_positions / label_positions if label_positions else None,
    )
