"""Trainer tests: loss masking, clipping, Adam, and the end-to-end loop."""

import math
import os
import re
import shutil
import uuid
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import charnmt.checkpoint as checkpoint_mod
import charnmt.model as model_mod
import charnmt.trainer as trainer_mod
from charnmt.checkpoint import MANIFEST_NAME, load_checkpoint, save_checkpoint
from charnmt.decode import default_max_len, translate_corpus
from charnmt.errors import (
    ConfigError, ConsistencyError, ContractError, CorpusError, NonFiniteError,
)
from charnmt.model import Model, ModelConfig
from charnmt.numerics import Graph, ParameterStore, backward
from charnmt.textpipe import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED,
    Batch,
    MergeTable,
    Vocabulary,
    build_vocab,
    learn_bpe,
    load_parallel,
    segment_line,
)
from charnmt.trainer import (
    OptimizerState,
    TrainConfig,
    TrainPaths,
    adam_step,
    batch_nll,
    check_architecture,
    clip_gradients,
    config_dict,
    configs_from_dict,
    global_norm,
    load_trained_model,
    train,
    typed_config,
)

from conftest import (
    assert_arrays_close, composite_gru_cell, small_model, use_composite_layers,
)
from test_checkpoint import _record_opens


def hand_batch(src_rows, tgt_rows) -> Batch:
    """Pad explicit id rows into a Batch; rows carry their own BOS/EOS."""
    ws = max(len(r) for r in src_rows)
    wt = max(len(r) for r in tgt_rows)
    source = np.full((len(src_rows), ws), PAD_ID, dtype=np.int64)
    target = np.full((len(tgt_rows), wt), PAD_ID, dtype=np.int64)
    for i, r in enumerate(src_rows):
        source[i, : len(r)] = r
    for i, r in enumerate(tgt_rows):
        target[i, : len(r)] = r
    return Batch(
        source=source,
        target=target,
        source_lengths=np.array([len(r) for r in src_rows]),
        target_lengths=np.array([len(r) for r in tgt_rows]),
    )


class TestBatchNll:
    def test_zero_parameters_give_uniform_nll(self):
        m = small_model(0)
        for name in [n for n, _ in m.store.items()]:
            m.store.assign(name, np.zeros_like(m.store[name].data))
        batch = hand_batch([[5, EOS_ID]], [[BOS_ID, 4, 5, EOS_ID]])
        nll = float(batch_nll(m, batch).data)
        np.testing.assert_allclose(nll, math.log(m.config.tgt_vocab_size), rtol=1e-12)

    def test_duplicated_row_leaves_mean_unchanged(self):
        m = small_model(1)
        once = hand_batch([[5, 6, EOS_ID]], [[BOS_ID, 4, EOS_ID]])
        twice = hand_batch([[5, 6, EOS_ID]] * 2, [[BOS_ID, 4, EOS_ID]] * 2)
        a = float(batch_nll(m, once).data)
        b = float(batch_nll(m, twice).data)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_all_pad_labels_rejected(self):
        m = small_model(0)
        batch = hand_batch([[5, EOS_ID]], [[BOS_ID]])
        with pytest.raises(ContractError):
            batch_nll(m, batch)

    def test_padding_does_not_change_loss(self):
        m = small_model(2)
        plain = hand_batch([[5, 6, EOS_ID]], [[BOS_ID, 4, 7, EOS_ID]])
        padded = Batch(
            source=np.concatenate(
                [plain.source, np.full((1, 2), PAD_ID, dtype=np.int64)], axis=1),
            target=np.concatenate(
                [plain.target, np.full((1, 3), PAD_ID, dtype=np.int64)], axis=1),
            source_lengths=plain.source_lengths,
            target_lengths=plain.target_lengths,
        )
        a = float(batch_nll(m, plain).data)
        b = float(batch_nll(m, padded).data)
        assert abs(a - b) < 1e-6

    def test_mixed_lengths_mean_is_token_weighted(self):
        m = small_model(3)
        short = hand_batch([[5, EOS_ID]], [[BOS_ID, 4, EOS_ID]])
        long = hand_batch([[5, EOS_ID]], [[BOS_ID, 4, 6, 7, EOS_ID]])
        both = hand_batch(
            [[5, EOS_ID], [5, EOS_ID]],
            [[BOS_ID, 4, EOS_ID], [BOS_ID, 4, 6, 7, EOS_ID]],
        )
        total = float(batch_nll(m, short).data) * 2 + float(batch_nll(m, long).data) * 4
        np.testing.assert_allclose(float(batch_nll(m, both).data), total / 6, rtol=1e-10)


class TestFusedGruStep:
    BATCH = hand_batch(
        [[4, 5, 6, EOS_ID], [7, EOS_ID]],
        [[BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, EOS_ID]],
    )
    RAGGED = hand_batch(
        [[4, 5, 6, 7, EOS_ID], [7, EOS_ID], [8, 9, EOS_ID]],
        [[BOS_ID, 4, 5, 6, 7, EOS_ID], [BOS_ID, 6, EOS_ID], [BOS_ID, 8, 4, EOS_ID]],
    )

    def test_base_step_records_one_gru_node_per_cell(self, monkeypatch):
        m = small_model(3)
        real, prefixes = model_mod.gru_cell, []

        def counted(store, prefix, x, h, mask=None):
            prefixes.append(prefix)
            return real(store, prefix, x, h, mask)

        monkeypatch.setattr(model_mod, "gru_cell", counted)
        with Graph(m.store) as graph:
            batch_nll(m, self.BATCH)
        ops = Counter(node.op for node in graph.nodes)
        # 4 source positions per direction, 3 target steps per decoder layer
        assert Counter(prefixes) == {"enc_fw": 4, "enc_bw": 4, "dec1": 3, "dec2": 3}
        assert ops["gru"] == len(prefixes)
        assert ops["sigmoid"] == 0

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_step_records_one_node_per_layer(self, decoder):
        m = small_model(3, decoder=decoder)
        with Graph(m.store) as graph:
            batch_nll(m, self.RAGGED)
        ops = Counter(node.op for node in graph.nodes)
        steps, positions = 5, 5  # target steps, source positions
        cells = {"base": {"gru": 2 * positions + 2 * steps},
                 "biscale": {"gru": 2 * positions, "biscale": steps}}[decoder]
        assert {op: ops[op] for op in cells} == cells
        assert ops["attention"] == steps and ops["output_layer"] == 1
        for op in ("multiply", "sigmoid", "softmax", "log_softmax", "pick", "add", "reshape"):
            assert ops[op] == 0, op
        assert len(graph.nodes) <= 7 * steps + 3 * positions + 12

    def test_base_step_gradients_match_composite(self, monkeypatch):
        def step():
            m = small_model(4)
            with Graph(m.store) as graph:
                loss = batch_nll(m, self.BATCH)
            return float(loss.data), {k: t.data for k, t in backward(graph, loss).items()}

        loss, grads = step()
        monkeypatch.setattr(model_mod, "gru_cell", composite_gru_cell)
        ref_loss, ref_grads = step()
        assert abs(loss - ref_loss) < 1e-10
        assert_arrays_close(grads, ref_grads)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    @pytest.mark.parametrize("query", ["slower", "faster", "both"])
    def test_batch_loss_and_gradients_match_composites(self, monkeypatch, decoder, query):
        def step():
            m = small_model(5, decoder=decoder, attention_query=query)
            with Graph(m.store) as graph:
                loss = batch_nll(m, self.RAGGED)
            ops = Counter(node.op for node in graph.nodes)
            return float(loss.data), {k: t.data for k, t in backward(graph, loss).items()}, ops

        loss, grads, _ = step()
        use_composite_layers(monkeypatch)
        ref_loss, ref_grads, ref_ops = step()
        assert ref_ops["pick"] == 1 and ref_ops["attention"] == ref_ops["gru"] == 0
        assert abs(loss - ref_loss) < 1e-10
        assert all(np.any(g != 0.0) for g in ref_grads.values())
        assert_arrays_close(grads, ref_grads)


class TestClipping:
    def test_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_norm(grads) == 5.0

    def test_clips_when_above_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}
        clipped, norm = clip_gradients(grads, 2.5)
        assert norm == 5.0
        np.testing.assert_allclose(clipped["a"], [1.5, 2.0])
        np.testing.assert_allclose(global_norm(clipped), 2.5)

    def test_leaves_small_gradients_alone(self):
        grads = {"a": np.array([3.0, 4.0])}
        clipped, norm = clip_gradients(grads, 10.0)
        assert norm == 5.0
        assert clipped["a"] is grads["a"]

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=7)
        clipped, _ = clip_gradients({"w": g.copy()}, 0.5)
        cosine = g @ clipped["w"] / (np.linalg.norm(g) * np.linalg.norm(clipped["w"]))
        np.testing.assert_allclose(cosine, 1.0, rtol=1e-12)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            clip_gradients({}, 0.0)


class TestAdam:
    def _setup(self, values):
        store = ParameterStore("wide")
        store.add("w", np.asarray(values, dtype=np.float64))
        return store, OptimizerState.fresh(store)

    def test_first_step_moves_by_signed_step_size(self):
        store, opt = self._setup([1.0, -2.0, 0.5])
        config = TrainConfig(step_size=0.1, epsilon=1e-12)
        g = np.array([10.0, -3.0, 4.0])
        adam_step(store, {"w": g}, opt, config)
        # bias-corrected first step reduces to step_size * g / (|g| + eps)
        np.testing.assert_allclose(
            store["w"].data, [1.0 - 0.1, -2.0 + 0.1, 0.5 - 0.1], rtol=1e-9)
        assert opt.step == 1

    def test_zero_gradient_is_a_fixed_point(self):
        store, opt = self._setup([1.0, 2.0])
        config = TrainConfig()
        before = store["w"].data.copy()
        for _ in range(3):
            adam_step(store, {"w": np.zeros(2)}, opt, config)
        np.testing.assert_array_equal(store["w"].data, before)
        assert opt.step == 3

    def test_moments_follow_exponential_averages(self):
        store, opt = self._setup([0.0])
        config = TrainConfig(beta1=0.5, beta2=0.75, step_size=1e-3)
        adam_step(store, {"w": np.array([2.0])}, opt, config)
        adam_step(store, {"w": np.array([4.0])}, opt, config)
        np.testing.assert_allclose(opt.m["w"], [0.5 * 1.0 + 0.5 * 4.0])
        np.testing.assert_allclose(opt.v["w"], [0.75 * 1.0 + 0.25 * 16.0])

    def test_deterministic_across_stores(self):
        a_store, a_opt = self._setup([0.3, -0.7])
        b_store, b_opt = self._setup([0.3, -0.7])
        config = TrainConfig(step_size=0.01)
        for t in range(5):
            g = np.array([math.sin(t + 1.0), math.cos(t + 1.0)])
            adam_step(a_store, {"w": g.copy()}, a_opt, config)
            adam_step(b_store, {"w": g.copy()}, b_opt, config)
        np.testing.assert_array_equal(a_store["w"].data, b_store["w"].data)

    @pytest.mark.parametrize("decoder", ["base", "biscale"])
    def test_gradients_after_a_step_equal_a_fresh_stores(self, decoder):
        # backward caches each weight's transpose on its Tensor; none may outlive a step
        def grads(model):
            with Graph(model.store) as graph:
                loss = batch_nll(model, TestFusedGruStep.RAGGED)
            return {k: t.data for k, t in backward(graph, loss).items()}

        m = small_model(6, decoder=decoder)
        adam_step(m.store, grads(m), OptimizerState.fresh(m.store), TrainConfig(step_size=0.05))
        fresh = ParameterStore(m.store.precision)
        for name, t in m.store.items():
            fresh.add(name, t.data.copy())
        got, want = grads(m), grads(Model(m.config, fresh))
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        for kw in ({"batch_size": 0}, {"clip": 0.0}, {"beta1": 1.0},
                   {"max_steps": -1}, {"target_unit": "word"},
                   {"max_target_len": 0}):
            with pytest.raises(ConfigError):
                TrainConfig(**kw)

    @pytest.mark.parametrize("key,value", [("step_size", "nan"), ("epsilon", "nan"),
                                           ("clip", "nan"), ("step_size", "inf"),
                                           ("epsilon", "inf"), ("seed", "-1")])
    def test_rejects_nan_infinite_and_negative_settings(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            typed_config(TrainConfig, {key: value})

    def test_infinite_clip_is_legal_and_never_clips(self):
        config = typed_config(TrainConfig, {"clip": "inf"})
        grads = {"w": np.array([3e30, -4e30])}
        clipped, norm = clip_gradients(grads, config.clip)
        assert config.clip == math.inf and norm == 5e30
        assert np.array_equal(clipped["w"], grads["w"])

    def test_target_limit_defaults(self):
        assert TrainConfig(target_unit="character").target_limit() == 500
        assert TrainConfig(target_unit="subword").target_limit() == 100
        assert TrainConfig(max_target_len=42).target_limit() == 42

    def test_config_dict_round_trip(self):
        mc = ModelConfig(src_vocab_size=11, tgt_vocab_size=9, d_emb=4, d_enc=5,
                         d_dec=6, decoder="biscale")
        tc = TrainConfig(batch_size=3, max_steps=7, target_unit="subword")
        mc2, tc2 = configs_from_dict(config_dict(mc, tc))
        assert mc2 == mc and tc2 == tc

    def test_configs_from_dict_missing_key(self):
        raw = config_dict(ModelConfig(11, 9), TrainConfig())
        del raw["d_dec"]
        with pytest.raises(ConsistencyError):
            configs_from_dict(raw)

    def test_check_architecture_names_field(self):
        a = ModelConfig(11, 9, d_dec=6)
        b = ModelConfig(11, 9, d_dec=8)
        with pytest.raises(ConsistencyError, match="d_dec"):
            check_architecture(a, b)


TRAIN_LINES = ["ab ab", "ba ba", "ab ba", "ba ab", "aa bb", "bb aa"]
DEV_LINES = ["ab ba", "ba ab"]


def corpus_files(root: Path):
    """Write a copy-task corpus plus vocab/merge files; return paths and sizes."""
    root.mkdir(parents=True, exist_ok=True)
    merges = learn_bpe(TRAIN_LINES, 2)
    seg = [" ".join(segment_line(l, "subword", merges)) for l in TRAIN_LINES + DEV_LINES]
    src_vocab = build_vocab(seg, "subword", 40)
    tgt_vocab = build_vocab(TRAIN_LINES + DEV_LINES, "character", 40)
    paths = TrainPaths(
        train_source=root / "train.src", train_target=root / "train.tgt",
        dev_source=root / "dev.src", dev_target=root / "dev.tgt",
        src_vocab=root / "vocab.src", tgt_vocab=root / "vocab.tgt",
        merges=root / "merges.txt", out_dir=root / "run",
    )
    paths.train_source.write_text("\n".join(TRAIN_LINES) + "\n", encoding="utf-8")
    paths.train_target.write_text("\n".join(TRAIN_LINES) + "\n", encoding="utf-8")
    paths.dev_source.write_text("\n".join(DEV_LINES) + "\n", encoding="utf-8")
    paths.dev_target.write_text("\n".join(DEV_LINES) + "\n", encoding="utf-8")
    merges.save(paths.merges)
    src_vocab.save(paths.src_vocab)
    tgt_vocab.save(paths.tgt_vocab)
    return paths, len(src_vocab), len(tgt_vocab)


def reorder_vocab(path):
    """Swap the first two non-reserved symbols of vocabulary file `path`: the
    same size, other ids."""
    symbols = path.read_text(encoding="utf-8").splitlines()
    symbols[4], symbols[5] = symbols[5], symbols[4]
    path.write_text("".join(s + "\n" for s in symbols), encoding="utf-8")


def tiny_configs(n_src, n_tgt, **train_kw):
    mc = ModelConfig(src_vocab_size=n_src, tgt_vocab_size=n_tgt,
                     d_emb=6, d_enc=6, d_dec=8)
    defaults = dict(batch_size=4, max_steps=3, validate_every=2, seed=0,
                    target_unit="character")
    defaults.update(train_kw)
    return mc, TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return corpus_files(tmp_path_factory.mktemp("corpus"))


class TestTrainLoop:
    def test_zero_steps_writes_initial_checkpoint(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=0)
        paths = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(mc, tc, paths)
        assert result.steps == 0
        assert result.best_dir is None and result.best_dev_nll is None
        cp = load_checkpoint(result.latest_dir)
        assert cp.state == {"step": 0, "epoch": 0, "batch": 0}
        assert result.log_path.exists() and result.log_path.read_text() == ""

    def test_log_line_format_and_validation_cadence(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=3, validate_every=2)
        paths = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        seen = []
        result = train(mc, tc, paths, echo=seen.append)
        lines = result.log_path.read_text().splitlines()
        assert lines == seen
        assert len(lines) == 3
        for i, raw in enumerate(lines):
            cells = raw.split("\t")
            assert len(cells) == 5
            assert cells[0] == str(i + 1)
            float(cells[1]), float(cells[2])
            if (i + 1) % 2 == 0:
                assert float(cells[3]) > 0 and 0.0 <= float(cells[4]) <= 1.0
                assert len(cells[4].split(".")[1]) == 4
            else:
                assert cells[3] == "-" and cells[4] == "-"

    def test_checkpoint_contents_round_trip(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=3, validate_every=2)
        paths = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(mc, tc, paths)
        cp = load_checkpoint(result.latest_dir)
        assert cp.state["step"] == 3
        mc2, tc2 = configs_from_dict(cp.config)
        assert mc2 == mc and tc2 == tc
        # vocab and merge files ride along and match the originals
        assert cp.files["src_vocab"] == paths.src_vocab.read_bytes()
        assert cp.files["merges"] == paths.merges.read_bytes()
        # best checkpoint exists after validation and scores no worse
        best = load_checkpoint(result.best_dir)
        assert best.state["best_dev_nll"] <= cp.state["best_dev_nll"] + 1e-12
        assert result.best_dev_nll is not None

    def test_best_holds_parameters_only(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)
        result = train(mc, tc, TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"}))
        best, latest = load_checkpoint(result.best_dir), load_checkpoint(result.latest_dir)
        assert not [k for k in best.tensors if k.startswith("adam.")]
        assert {k for k in latest.tensors if not k.startswith("adam.")} == set(best.tensors)
        assert len(latest.tensors) == 3 * len(best.tensors)
        # both were saved at step 2: the lean `best` decodes as `latest` does
        lines = [s for s, _ in load_parallel(paths.dev_source, paths.dev_target)]
        texts = []
        for directory in (result.best_dir, result.latest_dir):
            run = load_trained_model(directory)
            texts.append(translate_corpus([run.model], lines, run.src_vocab, run.tgt_vocab,
                                          run.merges, "character", width=2).texts)
        assert texts[0] == texts[1]

    def test_resume_from_best_names_the_missing_moments(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(mc, tc, run)
        log = result.log_path.read_bytes()
        with pytest.raises(ConsistencyError, match="lacks tensor 'adam.m.src_emb'"):
            train(mc, replace(tc, max_steps=4), run, resume=result.best_dir)
        assert result.log_path.read_bytes() == log

    def test_resume_matches_uninterrupted_run(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc4 = tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2)
        base = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "full"})
        full_lines = []
        train(mc, tc4, base, echo=full_lines.append)

        mc2, tc2 = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)
        half_paths = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "half"})
        half = train(mc2, tc2, half_paths)
        resumed_lines = []
        resumed_paths = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "resumed"})
        train(mc, tc4, resumed_paths, resume=half.latest_dir,
              echo=resumed_lines.append)
        assert resumed_lines == full_lines[2:]

    def test_in_place_resume_leaves_uninterrupted_log(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2)
        full = train(mc, tc, TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "full"}))

        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})

        def stop_at_step_3(line):
            if line.startswith("3\t"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train(mc, tc, run, echo=stop_at_step_3)
        # step 3 is logged, but the latest checkpoint holds step 2
        assert len(run.out_dir.joinpath("train.log").read_text().splitlines()) == 3
        resumed = train(mc, tc, run, resume=run.out_dir / "latest")
        assert resumed.log_path.read_bytes() == full.log_path.read_bytes()

    def test_latest_is_written_once_per_validation_and_at_the_end(self, corpus, tmp_path,
                                                                  monkeypatch):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        real, saved = trainer_mod.save_checkpoint, []

        def recording(directory, config, state, *rest):
            saved.append((Path(directory).name, state["step"]))
            return real(directory, config, state, *rest)

        monkeypatch.setattr(trainer_mod, "save_checkpoint", recording)
        train(*tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2), run)
        assert [s for s in saved if s[0] == "latest"] == [("latest", 2), ("latest", 4)]
        saved.clear()
        train(*tiny_configs(n_src, n_tgt, max_steps=5, validate_every=2), run,
              resume=run.out_dir / "latest")
        assert saved == [("latest", 5)]

    def test_resume_past_the_end_of_a_shorter_epoch_starts_the_next(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        # 6 pairs in batches of 2: the checkpoint after step 2 points at batch 2
        train(*tiny_configs(n_src, n_tgt, max_steps=2, batch_size=2), run)
        assert load_checkpoint(run.out_dir / "latest").state["batch"] == 2
        # in batches of 4 the epoch has only batches 0 and 1
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=3, batch_size=4)
        resumed = train(mc, tc, run, resume=run.out_dir / "latest")
        assert resumed.steps == 3
        assert load_checkpoint(resumed.latest_dir).state == {
            "step": 3, "epoch": 1, "batch": 1, "best_dev_nll": resumed.best_dev_nll}

    def test_resume_recovers_latest_left_aside_by_a_kill(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2)
        full = train(mc, tc, TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "full"}))

        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        train(mc, tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)[1], run)
        latest = run.out_dir / "latest"
        # as a kill between the checkpoint swap's two renames leaves it
        os.replace(latest, latest.with_name(f".latest.{uuid.uuid4().hex}.old"))
        resumed = train(mc, tc, run, resume=latest)
        assert resumed.log_path.read_bytes() == full.log_path.read_bytes()
        assert not list(run.out_dir.glob(".latest.*"))

    def test_fresh_run_starts_its_log_empty(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=3, validate_every=2)
        alone = train(mc, tc, TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "alone"}))
        shared = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "shared"})
        train(mc, tc, shared)
        again = train(mc, tc, shared)
        assert again.log_path.read_bytes() == alone.log_path.read_bytes()

    def test_fresh_run_never_reports_an_earlier_best(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        earlier = train(*tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2), run)
        assert earlier.best_dir is not None
        # this run ends before its first validation
        result = train(*tiny_configs(n_src, n_tgt, max_steps=1, validate_every=2), run)
        assert result.best_dir is None and result.best_dev_nll is None

    def test_reports_dropped_pairs_and_padding_of_the_trained_batches(self, tmp_path):
        paths, n_src, n_tgt = corpus_files(tmp_path / "data")
        lines = TRAIN_LINES + ["ab", "ab ab ab", "ab ab ab ab"]
        for path in (paths.train_source, paths.train_target):
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, max_target_len=8)
        result = train(mc, tc, paths)
        assert result.dropped_pairs == 1  # the 11-character line
        # labels (characters + EOS) 3, 6 x 6 and 9 bucket into batches
        # [6, 6, 6, 9] and [3, 6, 6, 6]: 48 real of 4 * 9 + 4 * 6 positions
        assert result.pad_share == pytest.approx(1 - 48 / 60)
        # a resumed call reports only the batch it trained on: either of the two
        resumed = train(mc, replace(tc, max_steps=3), paths, resume=result.latest_dir)
        assert resumed.pad_share in (pytest.approx(1 - 24 / 36), pytest.approx(1 - 21 / 24))

    def test_log_trim_keeps_the_old_log_when_the_rename_fails(self, tmp_path, monkeypatch):
        log = tmp_path / "train.log"
        log.write_text("1\t0.5\n2\t0.4\n3\t0.3\n", encoding="utf-8")
        before = log.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(checkpoint_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            trainer_mod._trim_log(log, 1)
        assert log.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["train.log"]

    def test_resume_rejects_architecture_change(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=0)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(mc, tc, run)
        wrong = ModelConfig(src_vocab_size=n_src, tgt_vocab_size=n_tgt,
                            d_emb=6, d_enc=6, d_dec=16)
        with pytest.raises(ConsistencyError, match="d_dec"):
            train(wrong, tc, run, resume=result.latest_dir)

    def test_vocab_size_mismatch_rejected(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src + 1, n_tgt, max_steps=0)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        with pytest.raises(ConsistencyError, match="src_vocab_size"):
            train(mc, tc, run)

    def test_non_finite_loss_aborts_with_location(self, corpus, tmp_path,
                                                  monkeypatch):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=5, validate_every=100)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        real = trainer_mod.batch_nll
        calls = {"n": 0}

        def poisoned(model, batch):
            calls["n"] += 1
            out = real(model, batch)
            if calls["n"] == 2:
                out.data = np.asarray(np.nan, dtype=out.data.dtype)
            return out

        monkeypatch.setattr(trainer_mod, "batch_nll", poisoned)
        with pytest.raises(NonFiniteError, match=r"step 2 \(epoch 0, batch 1\)"):
            train(mc, tc, run)

    def test_non_finite_gradient_aborts_before_update(self, corpus, tmp_path,
                                                      monkeypatch):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=5, validate_every=100)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        real = trainer_mod.backward
        seen = {"n": 0}

        def poisoned(graph, loss):
            seen["n"] += 1
            grads = real(graph, loss)
            if seen["n"] == 2:
                seen["store"] = graph.store
                seen["before"] = {k: t.data.copy() for k, t in graph.store.items()}
                grads["dec2.U_cand"].data[0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_mod, "backward", poisoned)
        with pytest.raises(NonFiniteError,
                           match=r"gradient norm at step 2 \(epoch 0, batch 1\)"):
            train(mc, tc, run)
        after = seen["store"]
        assert [n for n, _ in after.items()] == list(seen["before"])
        for name, value in seen["before"].items():
            assert np.array_equal(after[name].data, value), name

    def test_single_batch_overfit_drops_loss(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, batch_size=8, max_steps=250,
                              validate_every=1000, step_size=5e-3)
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(mc, tc, run)
        lines = result.log_path.read_text().splitlines()
        first = float(lines[0].split("\t")[1])
        last = float(lines[-1].split("\t")[1])
        assert last < first / 10


class TestRunFiles:
    """A run reads its vocabularies and merge table once, as bytes, parses
    them as a checkpoint load does, and bundles those bytes into every
    checkpoint; a resume refuses files that differ from its checkpoint's."""

    def test_every_checkpoint_bundles_the_bytes_read_at_the_start(self, tmp_path, monkeypatch):
        paths, n_src, n_tgt = corpus_files(tmp_path / "data")
        start = {role: getattr(paths, role).read_bytes()
                 for role in ("src_vocab", "tgt_vocab", "merges")}
        real, bundled = trainer_mod.save_checkpoint, []

        def recording(*args):
            directory = real(*args)
            bundled.append((directory.name, load_checkpoint(directory).files))
            return directory

        monkeypatch.setattr(trainer_mod, "save_checkpoint", recording)

        def edit_after_step_1(line):
            if line.startswith("1\t"):
                reorder_vocab(paths.tgt_vocab)

        train(*tiny_configs(n_src, n_tgt, max_steps=3, validate_every=1), paths,
              echo=edit_after_step_1)
        assert paths.tgt_vocab.read_bytes() != start["tgt_vocab"]
        assert {name for name, _ in bundled} == {"best", "latest"} and len(bundled) >= 4
        for name, files in bundled:
            assert files == start, name

    def test_resume_with_a_reordered_vocabulary_is_refused_and_leaves_the_log(self, tmp_path):
        paths, n_src, n_tgt = corpus_files(tmp_path / "data")
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2)

        def stop_at_step_3(line):
            if line.startswith("3\t"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train(mc, tc, paths, echo=stop_at_step_3)
        log = (paths.out_dir / "train.log").read_bytes()
        reorder_vocab(paths.tgt_vocab)
        with pytest.raises(ConsistencyError, match="tgt_vocab"):
            train(mc, tc, paths, resume=paths.out_dir / "latest")
        assert (paths.out_dir / "train.log").read_bytes() == log

    @pytest.mark.parametrize("role", ["src_vocab", "tgt_vocab", "merges"])
    def test_crlf_file_never_yields_a_checkpoint_that_fails_to_load(self, tmp_path, role):
        paths, n_src, n_tgt = corpus_files(tmp_path / "data")
        path = getattr(paths, role)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=1)
        if role == "merges":  # a merge file's lines may end in CRLF
            tm = load_trained_model(train(mc, tc, paths).latest_dir)
            assert tm.merges.rules == learn_bpe(TRAIN_LINES, 2).rules
        else:  # a vocabulary's symbols would keep their "\r": refused before step 1
            with pytest.raises(CorpusError, match="reserved symbols"):
                train(mc, tc, paths)
            assert not paths.out_dir.exists()

    def test_one_train_call_opens_each_file_once(self, corpus, tmp_path, monkeypatch):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        opened = _record_opens(monkeypatch)
        train(*tiny_configs(n_src, n_tgt, max_steps=4, validate_every=2), run)
        for role in ("src_vocab", "tgt_vocab", "merges"):
            assert opened.count(str(getattr(paths, role))) == 1, role

    def test_saving_a_loaded_checkpoint_again_writes_identical_files(self, corpus, tmp_path):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        result = train(*tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2), run)
        for directory in (result.latest_dir, result.best_dir):
            cp = load_checkpoint(directory)
            again = save_checkpoint(tmp_path / f"again-{directory.name}", cp.config, cp.state,
                                    cp.tensors, cp.files)
            names = sorted(p.name for p in directory.iterdir())
            assert sorted(p.name for p in again.iterdir()) == names
            for name in names:
                assert (again / name).read_bytes() == (directory / name).read_bytes(), name

    @pytest.mark.parametrize("value", ["nan", "inf", None])
    def test_resume_refuses_a_non_finite_best_dev_nll(self, corpus, tmp_path, value):
        paths, n_src, n_tgt = corpus
        run = TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"})
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)
        latest = train(mc, tc, run).latest_dir
        edited = tmp_path / "edited"
        shutil.copytree(latest, edited)
        manifest = edited / MANIFEST_NAME
        text, count = re.subn(r"\nbest_dev_nll = [^\n]*\n",
                              "\n" if value is None else f"\nbest_dev_nll = {value}\n",
                              manifest.read_text(encoding="utf-8"))
        assert count == 1
        manifest.write_text(text, encoding="utf-8")
        resumed = replace(tc, max_steps=4)
        if value is None:  # a checkpoint that never validated
            result = train(mc, resumed, run, resume=edited)
            assert result.best_dev_nll is not None and result.best_dir is not None
        else:
            log = (run.out_dir / "train.log").read_bytes()
            with pytest.raises(ConsistencyError, match="'best_dev_nll' = (nan|inf) is not finite"):
                train(mc, resumed, run, resume=edited)
            assert (run.out_dir / "train.log").read_bytes() == log


class TestMalformedCheckpoint:
    """A checkpoint whose tensors disagree with the parameter spec is refused
    with ConsistencyError naming the tensor, on load and on resume; a config
    value of the wrong type is a ConfigError naming the key. A loaded model
    holds copies of its parameters, not views of the checkpoint's blob."""

    @pytest.fixture(scope="class")
    def trained(self, corpus, tmp_path_factory):
        paths, n_src, n_tgt = corpus
        mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=2)
        out = tmp_path_factory.mktemp("malformed")
        run = TrainPaths(**{**paths.__dict__, "out_dir": out / "run"})
        return mc, tc, run, train(mc, tc, run).latest_dir

    @staticmethod
    def rewrite(source, target, name, value):
        """Copy checkpoint `source` to `target` with tensor `name` replaced by
        `value`, or dropped when `value` is None."""
        cp = load_checkpoint(source)
        tensors = dict(cp.tensors)
        if value is None:
            del tensors[name]
        else:
            tensors[name] = value
        return save_checkpoint(target, cp.config, cp.state, tensors, cp.files)

    def test_missing_parameter_on_load(self, trained, tmp_path):
        _, _, _, latest = trained
        bad = self.rewrite(latest, tmp_path / "bad", "dec2.U_cand", None)
        with pytest.raises(ConsistencyError, match=r"lacks tensor 'dec2\.U_cand'"):
            load_trained_model(bad)

    def test_wrong_shaped_parameter_on_load(self, trained, tmp_path):
        _, _, _, latest = trained
        bad = self.rewrite(latest, tmp_path / "bad", "att.v", np.zeros((3, 1)))
        with pytest.raises(ConsistencyError, match=r"'att\.v' has shape \(3, 1\)"):
            load_trained_model(bad)

    def test_bundled_vocabulary_size_mismatch_on_load(self, trained, tmp_path):
        mc, _, _, latest = trained
        cp = load_checkpoint(latest)
        bad = save_checkpoint(tmp_path / "bad", cp.config, cp.state, cp.tensors,
                              {**cp.files, "tgt_vocab": cp.files["tgt_vocab"] + b"#\n"})
        sizes = (f"{mc.src_vocab_size}/{mc.tgt_vocab_size + 1} source/target symbols, but "
                 f"the model has src_vocab_size={mc.src_vocab_size}, "
                 f"tgt_vocab_size={mc.tgt_vocab_size}")
        with pytest.raises(ConsistencyError, match=re.escape(f"bundled in {bad} hold {sizes}")):
            load_trained_model(bad)

    def test_loaded_parameters_own_their_memory(self, trained):
        _, _, _, latest = trained
        for name, t in load_trained_model(latest).model.store.items():
            assert t.data.flags.owndata and t.data.base is None, name

    def test_config_value_of_wrong_type_on_load(self, trained, tmp_path):
        _, _, _, latest = trained
        bad = tmp_path / "bad"
        shutil.copytree(latest, bad)
        manifest = bad / MANIFEST_NAME
        text = manifest.read_text(encoding="utf-8")
        assert "\nd_dec = 8\n" in text
        manifest.write_text(text.replace("\nd_dec = 8\n", "\nd_dec = sixty\n"),
                            encoding="utf-8")
        with pytest.raises(ConfigError, match=r"d_dec = 'sixty' is not a valid int"):
            load_trained_model(bad)

    def test_missing_adam_moment_on_resume(self, trained, tmp_path):
        mc, tc, run, latest = trained
        bad = self.rewrite(latest, tmp_path / "bad", "adam.m.out.b_logit", None)
        run = TrainPaths(**{**run.__dict__, "out_dir": tmp_path / "resumed"})
        with pytest.raises(ConsistencyError, match=r"lacks tensor 'adam\.m\.out\.b_logit'"):
            train(mc, tc, run, resume=bad)

    def test_wrong_shaped_adam_moment_on_resume(self, trained, tmp_path):
        mc, tc, run, latest = trained
        bad = self.rewrite(latest, tmp_path / "bad", "adam.v.enc_fw.W_reset", np.zeros((2, 2)))
        run = TrainPaths(**{**run.__dict__, "out_dir": tmp_path / "resumed"})
        with pytest.raises(ConsistencyError,
                           match=r"'adam\.v\.enc_fw\.W_reset' has shape \(2, 2\)"):
            train(mc, tc, run, resume=bad)


def test_greedy_bleu_text_does_not_depend_on_neighbours(monkeypatch):
    # reserved symbols (EOS too) unreachable, so every line runs to its cap
    # with one character per step: alone, or next to a longer line with a
    # longer cap, a line must decode to the same text
    m = small_model(16, src_vocab=9, tgt_vocab=10)
    bias = np.zeros(10)
    bias[: len(RESERVED)] = -1e6
    m.store.assign("out.b_logit", bias)
    src = Vocabulary("subword", list(RESERVED) + list("abcde"))
    tgt = Vocabulary("character", list(RESERVED) + list("uvwxy "))
    texts = []
    real_bleu = trainer_mod.bleu
    monkeypatch.setattr(trainer_mod, "bleu",
                        lambda hyps, refs: texts.append(hyps) or real_bleu(hyps, refs))

    def decoded(lines):
        trainer_mod.greedy_corpus_bleu(m, lines, ["u"] * len(lines), src, MergeTable(),
                                       tgt, "character")
        return texts[-1]

    alone = decoded(["a"])[0]
    assert len(alone) == default_max_len(1, "character")
    assert decoded(["a", "a b c d e"])[0] == alone
