"""End-to-end command-line tests driven through main()."""

import contextlib
import importlib.util
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import charnmt
from charnmt.cli import main
from charnmt.config import (
    RunConfig,
    parse_config_text,
    parse_overrides,
)
from charnmt.decode import default_max_len, greedy_decode, hypothesis_text, translate_corpus
from charnmt.errors import ConfigError
from charnmt.textpipe import EOS_ID, MergeTable, Vocabulary, learn_bpe, segment_line
from charnmt.trainer import load_trained_model

from test_checkpoint import edit_manifest
from test_trainer import DEV_LINES, TRAIN_LINES, corpus_files, reorder_vocab


def serialize_config(values: dict[str, str]) -> str:
    """Render a run config in the `key = value` format parse_config_text reads."""
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def write_config(path, paths, **extra):
    values = {
        "train_source": paths.train_source, "train_target": paths.train_target,
        "dev_source": paths.dev_source, "dev_target": paths.dev_target,
        "src_vocab": paths.src_vocab, "tgt_vocab": paths.tgt_vocab,
        "merges": paths.merges, "out_dir": paths.out_dir,
        "d_emb": 6, "d_enc": 6, "d_dec": 8,
        "batch_size": 4, "max_steps": 3, "validate_every": 2,
        "target_unit": "character", "seed": 0,
    }
    values.update(extra)
    path.write_text(serialize_config({k: str(v) for k, v in values.items()}),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths, n_src, n_tgt = corpus_files(root / "data")
    config = write_config(root / "run.conf", paths)
    assert main(["train", "--config", str(config)]) == 0
    return {
        "root": root, "paths": paths, "config": config,
        "ckpt": paths.out_dir / "latest", "n_src": n_src, "n_tgt": n_tgt,
    }


class TestConfigParsing:
    def test_comments_blanks_and_values(self):
        text = "# run\nmax_steps = 7   # trailing\n\nseed=3\n"
        assert parse_config_text(text) == {"max_steps": "7", "seed": "3"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'max_stepz'"):
            parse_config_text("max_stepz = 7\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("seed =\n")

    def test_overrides_win(self):
        cfg = RunConfig(parse_config_text("seed = 1\nmax_steps = 5\n"))
        cfg.apply_overrides(["seed=9"])
        assert cfg.values == {"seed": "9", "max_steps": "5"}

    def test_override_validation(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["seed"])
        with pytest.raises(ConfigError, match="unknown override"):
            parse_overrides(["sneed=1"])

    def test_serialize_round_trip(self):
        values = {"seed": "4", "train_source": "a.txt"}
        assert parse_config_text(serialize_config(values)) == values

    def test_resolve_infers_vocab_sizes(self, workspace):
        cfg = RunConfig.from_file(workspace["config"])
        mc, tc, paths, resume = cfg.resolve()
        assert mc.src_vocab_size == workspace["n_src"]
        assert mc.tgt_vocab_size == workspace["n_tgt"]
        assert tc.max_steps == 3 and resume is None

    def test_resolve_missing_path_key(self, workspace):
        cfg = RunConfig.from_file(workspace["config"])
        del cfg.values["merges"]
        with pytest.raises(ConfigError, match="merges"):
            cfg.resolve()

    def test_resolve_checks_input_files(self, workspace, tmp_path):
        cfg = RunConfig.from_file(workspace["config"])
        cfg.apply_overrides([f"train_source={tmp_path / 'nope.txt'}"])
        with pytest.raises(ConfigError, match="train_source"):
            cfg.resolve()

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(tmp_path / "absent.conf")


class TestSmallCommands:
    def test_learn_bpe_matches_library(self, tmp_path, capsys):
        inp = tmp_path / "corpus.txt"
        inp.write_text("\n".join(TRAIN_LINES) + "\n", encoding="utf-8")
        out = tmp_path / "merges.txt"
        assert main(["learn-bpe", "--input", str(inp), "--merges", "2",
                     "--output", str(out)]) == 0
        assert MergeTable.load(out).rules == learn_bpe(TRAIN_LINES, 2).rules
        assert str(out) in capsys.readouterr().out
        assert not out.with_name(out.name + ".tmp").exists()

    def test_build_vocab_char(self, tmp_path):
        inp = tmp_path / "corpus.txt"
        inp.write_text("abc ab\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", str(inp), "--unit", "char",
                     "--max-size", "10", "--output", str(out)]) == 0
        vocab = Vocabulary.load(out, "character")
        assert set("abc ") <= set(vocab.symbols)

    def test_build_vocab_subword_with_merges(self, workspace, tmp_path):
        paths = workspace["paths"]
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", str(paths.train_source),
                     "--unit", "subword", "--max-size", "40",
                     "--merges", str(paths.merges), "--output", str(out)]) == 0
        built = Vocabulary.load(out, "subword")
        expected = Vocabulary.load(paths.src_vocab, "subword")
        assert set(built.symbols) >= set(expected.symbols) - {"<s>"}

    def test_evaluate_identical_files(self, tmp_path, capsys):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\ne f g h\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(f), "--ref", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("BLEU = 100.00, 100.0/100.0/100.0/100.0")

    def test_evaluate_buckets(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        src = tmp_path / "src.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        ref.write_text("a b c d\n", encoding="utf-8")
        src.write_text("x y z\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--src", str(src), "--buckets", "10,20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1-10\t1\t1.0000"

    def test_evaluate_src_without_buckets(self, tmp_path, capsys):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(f), "--ref", str(f),
                     "--src", str(f)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["hyp", "ref"])
    def test_evaluate_non_utf8_input_names_file_and_line(self, tmp_path, capsys, role):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("a b\nc d\ne f\n", encoding="utf-8")
        bad.write_bytes(b"a b\nc d\ne\xff f\n")
        files = {"hyp": good, "ref": good, role: bad}
        assert main(["evaluate", "--hyp", str(files["hyp"]), "--ref", str(files["ref"])]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:3: not UTF-8\n" and captured.out == ""

    def test_bad_bucket_spec(self, tmp_path, capsys):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(f), "--ref", str(f),
                     "--src", str(f), "--buckets", "20,10"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_override_changes_behavior(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "zero"
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={out_dir}", "max_steps=0"])
        assert code == 0
        assert (out_dir / "latest").is_dir()
        assert "trained 0 steps" in capsys.readouterr().out

    def test_summary_reports_dropped_pairs_and_padding(self, workspace, tmp_path, capsys):
        assert main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", "max_steps=1"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("trained 1 steps; latest checkpoint at ")
        # every training line has 5 characters, so no pair is dropped and none pads
        assert last.endswith("; 0 training pairs over the length limits dropped; "
                             "PAD 0.0% of the target positions trained on")

    def test_summary_after_a_resume_with_nothing_left_to_train(self, workspace, tmp_path,
                                                               capsys):
        run = tmp_path / "run"
        args = ["train", "--config", str(workspace["config"]), f"out_dir={run}", "max_steps=1"]
        assert main(args) == 0
        assert main(args + [f"resume={run / 'latest'}"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (f"trained 1 steps; latest checkpoint at {run / 'latest'}; "
                        "0 training pairs over the length limits dropped")

    def test_missing_resume_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", f"resume={tmp_path / 'nothing'}"])
        assert code == 1
        assert "is not a checkpoint" in capsys.readouterr().err

    def test_unknown_override_fails_cleanly(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["config"]),
                     "bogus_key=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("override,shown", [
        ("batch_size=abc", "batch_size = 'abc' is not a valid int"),
        ("step_size=fast", "step_size = 'fast' is not a valid float"),
        ("d_dec=1.5", "d_dec = '1.5' is not a valid int"),
        ("batch_size=None", "batch_size = 'None' is not a valid int"),
    ])
    def test_value_of_wrong_type_fails_cleanly(self, workspace, tmp_path, capsys,
                                               override, shown):
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", override])
        assert code == 1
        assert capsys.readouterr().err == f"error: {shown}\n"

    def test_value_of_wrong_type_in_config_file_fails_cleanly(self, workspace, tmp_path,
                                                               capsys):
        config = write_config(tmp_path / "run.conf", workspace["paths"], batch_size="abc")
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: batch_size = 'abc' is not a valid int\n"

    @pytest.mark.parametrize("override", [
        "step_size=nan", "epsilon=nan", "clip=nan", "step_size=inf", "epsilon=inf",
        "clip=NaN", "step_size=Infinity"])
    def test_nan_or_infinite_optimizer_setting_fails_cleanly(self, workspace, tmp_path, capsys,
                                                             override):
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", override])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {override.split('=')[0]} must be positive")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_infinite_clip_trains(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", "clip=inf", "max_steps=1"]) == 0
        assert load_trained_model(tmp_path / "run" / "latest").train_config.clip == float("inf")

    @pytest.mark.parametrize("key,edit", [
        ("step", ""), ("epoch", "epoch = 1.5"), ("batch", ""), ("step", "step = -1")])
    def test_resume_state_key_fails_cleanly(self, workspace, tmp_path, capsys, key, edit):
        bad = tmp_path / "bad"
        shutil.copytree(workspace["ckpt"], bad)

        def change(text):
            text, count = re.subn(rf"\n{key} = \d+\n", f"\n{edit}\n", text)
            assert count == 1
            return text

        edit_manifest(bad, change)
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", f"resume={bad}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint state {key!r} is missing or not a nonnegative integer\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_resume_non_finite_best_dev_nll_fails_cleanly(self, workspace, tmp_path, capsys,
                                                          value):
        bad = tmp_path / "bad"
        shutil.copytree(workspace["ckpt"], bad)

        def edit(text):
            text, count = re.subn(r"\nbest_dev_nll = [^\n]*\n", f"\nbest_dev_nll = {value}\n",
                                  text)
            assert count == 1
            return text

        edit_manifest(bad, edit)
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", "max_steps=4", f"resume={bad}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint state 'best_dev_nll' = {value} is not finite\n"

    def test_resume_with_a_different_vocabulary_fails_cleanly(self, workspace, tmp_path,
                                                             capsys):
        run = tmp_path / "run"
        args = ["train", "--config", str(workspace["config"]), f"out_dir={run}"]
        assert main(args + ["max_steps=2"]) == 0
        shutil.copytree(run / "latest", tmp_path / "step2")
        assert main(args + [f"resume={run / 'latest'}"]) == 0
        log = (run / "train.log").read_bytes()
        vocab = Path(shutil.copy(workspace["paths"].tgt_vocab, tmp_path / "vocab.tgt"))
        reorder_vocab(vocab)
        capsys.readouterr()
        code = main(args + [f"tgt_vocab={vocab}", f"resume={tmp_path / 'step2'}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the run's tgt_vocab file") and err.count("\n") == 1
        assert (run / "train.log").read_bytes() == log

    @pytest.mark.parametrize("bad", ["xx\t0.4\n", "\n"])
    def test_resume_over_a_malformed_log_line_names_it(self, workspace, tmp_path, capsys, bad):
        run = tmp_path / "run"
        args = ["train", "--config", str(workspace["config"]), f"out_dir={run}"]
        assert main(args + ["max_steps=2"]) == 0
        first, second = (run / "train.log").read_text(encoding="utf-8").splitlines(True)
        (run / "train.log").write_text(first + bad + second, encoding="utf-8")
        log = (run / "train.log").read_bytes()
        capsys.readouterr()
        assert main(args + [f"resume={run / 'latest'}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {run / 'train.log'}:2: not a train.log line\n"
        assert (run / "train.log").read_bytes() == log

    @pytest.mark.parametrize("role", ["config", "src_vocab", "tgt_vocab", "merges"])
    def test_non_utf8_input_fails_cleanly(self, workspace, tmp_path, capsys, role):
        paths = workspace["paths"]
        files = {}
        if role != "config":  # the last byte before the final newline made a \xff byte
            files[role] = tmp_path / getattr(paths, role).name
            files[role].write_bytes(getattr(paths, role).read_bytes()[:-2] + b"\xff\n")
        # sizes given, so that train itself is the first to read the vocabularies
        config = write_config(tmp_path / "run.conf", paths, src_vocab_size=workspace["n_src"],
                              tgt_vocab_size=workspace["n_tgt"], out_dir=tmp_path / "run",
                              **files)
        if role == "config":
            config.write_bytes(config.read_bytes() + b"# \xff\n")
        bad = files.get(role, config)
        line = len(bad.read_bytes().splitlines())
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rule", ["a ", " b"])
    def test_merge_rule_with_an_empty_symbol_fails_before_step_1(self, workspace, tmp_path,
                                                                  capsys, rule):
        paths = workspace["paths"]
        merges = tmp_path / "merges.txt"
        merges.write_bytes(paths.merges.read_bytes() + f"{rule}\n".encode())
        lineno = len(paths.merges.read_bytes().splitlines()) + 1
        config = write_config(tmp_path / "run.conf", paths, merges=merges,
                              out_dir=tmp_path / "run")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: merge file {merges}:{lineno}: expected two symbols\n"
        assert not (tmp_path / "run").exists()

    def test_resume_decoder_conflict(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["config"]),
                     f"out_dir={tmp_path / 'run'}", "decoder=biscale",
                     f"resume={workspace['ckpt']}"])
        assert code == 1
        assert "decoder" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["translate", "--model"])
        assert info.value.code == 2


class TestTranslateCommand:
    def _sources(self, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("\n".join(DEV_LINES) + "\n", encoding="utf-8")
        return f

    def test_beam_one_equals_greedy(self, workspace, tmp_path):
        inp = self._sources(tmp_path)
        out = tmp_path / "out.txt"
        assert main(["translate", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out),
                     "--beam", "1"]) == 0
        tm = load_trained_model(workspace["ckpt"])
        expected = []
        for line in DEV_LINES:
            pieces = segment_line(line, "subword", tm.merges)
            ids = np.array(tm.src_vocab.encode(pieces) + [EOS_ID])
            cap = default_max_len(len(pieces), "character")
            hyp = greedy_decode([tm.model], ids[None, :], max_len=cap)[0]
            expected.append(hypothesis_text(hyp, tm.tgt_vocab, "character"))
        assert out.read_text(encoding="utf-8").splitlines() == expected

    def test_duplicate_ensemble_identical(self, workspace, tmp_path):
        inp = self._sources(tmp_path)
        single = tmp_path / "single.txt"
        double = tmp_path / "double.txt"
        ckpt = str(workspace["ckpt"])
        assert main(["translate", "--model", ckpt, "--input", str(inp),
                     "--output", str(single), "--beam", "2"]) == 0
        assert main(["translate", "--model", ckpt, "--input", str(inp),
                     "--output", str(double), "--beam", "2",
                     "--ensemble", ckpt]) == 0
        assert single.read_bytes() == double.read_bytes()

    def test_dump_align_rows_sum_to_one(self, workspace, tmp_path):
        inp = self._sources(tmp_path)
        out = tmp_path / "out.txt"
        align = tmp_path / "align.tsv"
        assert main(["translate", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out),
                     "--beam", "1", "--dump-align", str(align)]) == 0
        blocks = align.read_text(encoding="utf-8").strip("\n").split("\n\n")
        assert len(blocks) == len(DEV_LINES)
        for block in blocks:
            rows = block.splitlines()
            width = len(rows[0].split("\t")) - 1
            assert width > 0
            for row in rows[1:]:
                cells = row.split("\t")
                assert len(cells) == width + 1
                total = sum(float(c) for c in cells[1:])
                assert abs(total - 1.0) < 1e-4

    @pytest.mark.parametrize("cap", [None, 1])
    def test_summary_reports_rate_and_capped(self, workspace, tmp_path, capsys, cap):
        inp = self._sources(tmp_path)
        out = tmp_path / "out.txt"
        argv = ["translate", "--model", str(workspace["ckpt"]),
                "--input", str(inp), "--output", str(out), "--beam", "2"]
        if cap is not None:
            argv += ["--max-len", str(cap)]
        assert main(argv) == 0
        tm = load_trained_model(workspace["ckpt"])
        result = translate_corpus([tm.model], DEV_LINES, tm.src_vocab, tm.tgt_vocab, tm.merges,
                                  "character", width=2, max_len=cap)
        closed = sum(h.truncated for h in result.hypotheses)
        if cap == 1:
            assert closed > 0
        summary = capsys.readouterr().out.strip()
        match = re.fullmatch(r"translated (\d+) lines in [\d.]+ s \(([\d.]+) sent/s\), "
                             r"(\d+) closed at the length cap -> (.+)", summary)
        assert match, summary
        assert int(match[1]) == len(DEV_LINES)
        assert float(match[2]) > 0
        assert int(match[3]) == closed
        assert match[4] == str(out)

    def test_non_utf8_input_fails_cleanly(self, workspace, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_bytes(b"ab ba\n\xff\n")
        out = tmp_path / "out.txt"
        assert main(["translate", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{inp}:2: not UTF-8" in err
        assert not out.exists()

    def test_failure_leaves_no_output(self, workspace, tmp_path, capsys):
        inp = self._sources(tmp_path)
        out = tmp_path / "out.txt"
        code = main(["translate", "--model", str(tmp_path / "no-ckpt"),
                     "--input", str(inp), "--output", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestAlignCommand:
    def test_blocks_shape_and_rows(self, workspace, tmp_path):
        paths = workspace["paths"]
        out = tmp_path / "align.tsv"
        assert main(["align", "--model", str(workspace["ckpt"]),
                     "--src", str(paths.dev_source),
                     "--tgt", str(paths.dev_target),
                     "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        blocks = text.strip("\n").split("\n\n")
        assert len(blocks) == len(DEV_LINES)
        tm = load_trained_model(workspace["ckpt"])
        for block, line in zip(blocks, DEV_LINES):
            rows = block.splitlines()
            header = rows[0].split("\t")
            pieces = segment_line(line, "subword", tm.merges)
            assert header == [""] + pieces + ["</s>"]
            # one data row per target character plus EOS
            assert len(rows) - 1 == len(line) + 1
            for row in rows[1:]:
                total = sum(float(c) for c in row.split("\t")[1:])
                assert abs(total - 1.0) < 1e-4

    def test_summary_reports_pairs_and_rate(self, workspace, tmp_path, capsys):
        paths = workspace["paths"]
        out = tmp_path / "align.tsv"
        assert main(["align", "--model", str(workspace["ckpt"]),
                     "--src", str(paths.dev_source), "--tgt", str(paths.dev_target),
                     "--output", str(out)]) == 0
        summary = capsys.readouterr().out.strip()
        match = re.fullmatch(r"aligned (\d+) pairs in ([\d.]+) s \(([\d.]+) pairs/s\) -> (.+)",
                             summary)
        assert match, summary
        assert int(match[1]) == len(DEV_LINES)
        assert float(match[3]) > 0
        assert match[4] == str(out)

    def test_mismatched_files(self, workspace, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one\ntwo\n", encoding="utf-8")
        b.write_text("one\n", encoding="utf-8")
        out = tmp_path / "align.tsv"
        assert main(["align", "--model", str(workspace["ckpt"]),
                     "--src", str(a), "--tgt", str(b),
                     "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the thread settings at the moment numpy is first imported.
_SPY = """
import json, os, sys
seen = {}

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({k: os.environ.get(k) for k in %r})
        return None

sys.meta_path.insert(0, Spy())
import charnmt.cli
print(json.dumps(seen))
""" % (BLAS_VARS,)


@pytest.mark.parametrize("preset,expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}),
])
def test_cli_pins_one_blas_thread_unless_set(preset, expected):
    src = Path(charnmt.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _SPY], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == expected


def _train_in_child(tmp_path, paths, **extra):
    """The command that runs `charnmt train` in a child process on a run
    config with `extra` set, and the child's environment."""
    src = Path(charnmt.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    config = write_config(tmp_path / "run.conf", paths, **extra)
    return [sys.executable, "-m", "charnmt.cli", "train", "--config", str(config)], env


def test_run_killed_at_a_random_step_resumes_to_the_uninterrupted_result(workspace, tmp_path):
    """SIGKILL a `charnmt train` process once it has logged a seeded random
    step, resume it in place, and compare with a run never killed. The lock
    the killed run held does not block the resume."""
    command, env = _train_in_child(tmp_path, workspace["paths"], max_steps=12, validate_every=3)
    full, run = tmp_path / "full", tmp_path / "run"
    subprocess.run(command + [f"out_dir={full}"], env=env, check=True,
                   capture_output=True, timeout=300)

    kill_after = int(np.random.default_rng(8).integers(3, 12))
    proc = subprocess.Popen(command + [f"out_dir={run}"], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        for line in proc.stdout:
            if line.startswith(f"{kill_after}\t"):
                proc.send_signal(signal.SIGKILL)
                break
    finally:
        proc.kill()
        proc.stdout.close()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert (run / ".lock").read_text(encoding="utf-8") == f"{proc.pid}\n"
    subprocess.run(command + [f"out_dir={run}", f"resume={run / 'latest'}"], env=env,
                   check=True, capture_output=True, timeout=300)
    for name in ("train.log", "latest/params.bin"):
        assert (run / name).read_bytes() == (full / name).read_bytes(), name


def test_two_trainings_into_one_out_dir_leave_one_runs_files(workspace, tmp_path):
    """Of two `charnmt train` processes started at once into one `out_dir`,
    one trains as a solo run does and the other stops with one error line."""
    command, env = _train_in_child(tmp_path, workspace["paths"], max_steps=120,
                                   validate_every=1)
    solo, run = tmp_path / "solo", tmp_path / "run"
    subprocess.run(command + [f"out_dir={solo}"], env=env, check=True, capture_output=True,
                   timeout=300)
    procs = [subprocess.Popen(command + [f"out_dir={run}"], env=env, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for _ in range(2)]
    errs = [proc.communicate(timeout=300)[1] for proc in procs]
    assert sorted(proc.returncode for proc in procs) == [0, 1], errs
    winner, loser = sorted(range(2), key=lambda i: procs[i].returncode)
    assert errs[winner] == ""
    holder = re.fullmatch(rf"error: {re.escape(str(run))} is in use by another charnmt train "
                          r"\(pid (\d*)\)\n", errs[loser])
    assert holder is not None, errs[loser]
    assert holder[1] in ("", str(procs[winner].pid))  # empty if read before the pid was written
    for name in ("train.log", "latest/params.bin", "best/params.bin"):
        assert (run / name).read_bytes() == (solo / name).read_bytes(), name


def test_loads_of_latest_never_fail_while_a_training_saves_it(workspace, tmp_path):
    """A reader loops over `latest` while a `charnmt train` process saves it
    at every step."""
    command, env = _train_in_child(tmp_path, workspace["paths"], max_steps=120,
                                   validate_every=1)
    run = tmp_path / "run"
    proc = subprocess.Popen(command + [f"out_dir={run}"], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    loads, failures = 0, []
    try:
        while proc.poll() is None:
            if (run / "latest" / "params.bin").exists():
                try:
                    load_trained_model(run / "latest")
                    loads += 1
                except Exception as exc:
                    failures.append(repr(exc))
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == 0
    assert loads > 0 and failures == [], (loads, failures[:5])


def test_a_failed_save_names_its_file(workspace, tmp_path, capsys):
    """Under a file-size limit that `best` fits and `latest` does not, the
    error line names `latest`'s file, and no temporary file is left."""
    assert main(["train", "--config", str(workspace["config"]),
                 f"out_dir={tmp_path / 'sizes'}"]) == 0
    best, latest = ((tmp_path / "sizes" / name / "params.bin").stat().st_size
                    for name in ("best", "latest"))
    limit = (best + latest) // 2
    command, env = _train_in_child(tmp_path, workspace["paths"])
    run = tmp_path / "run"
    proc = subprocess.run(
        command + [f"out_dir={run}"], env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert str(run / "latest" / "params.bin") in proc.stderr
    assert [p.name for p in (run / "latest").iterdir()] == []


def test_word_nll_analysis_script_on_one_checkpoint_twice(workspace, tmp_path, capsys,
                                                          monkeypatch):
    """The analysis script, run in-process with the same checkpoint as both
    systems: every bucket's difference is exactly zero."""
    spec = importlib.util.spec_from_file_location(
        "word_nll_analysis", Path(__file__).resolve().parents[1] / "scripts" /
        "word_nll_analysis.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    paths, out = workspace["paths"], tmp_path / "nll.tsv"
    monkeypatch.setattr(sys, "argv", [
        "word_nll_analysis.py", "--model-a", str(workspace["ckpt"]),
        "--model-b", str(workspace["ckpt"]), "--src", str(paths.dev_source),
        "--tgt", str(paths.dev_target), "--train-target", str(paths.train_target),
        "--output", str(out)])
    assert script.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "frequency\twords\tmean_nll_a_minus_b"
    assert rows and all(float(row.split("\t")[2]) == 0.0 for row in rows)
    assert sum(int(row.split("\t")[1]) for row in rows) == sum(len(l.split()) for l in DEV_LINES)
    assert out.read_text(encoding="utf-8") == "".join(row + "\n" for row in rows)


# One mutation of one line of a train command's inputs: a run config line, an
# override token, or a line of any manifest section of the checkpoint it
# resumes, a swap there replacing a value or one tab-separated field.
# Swapped-in values are never large integers, which would size allocations.
_SWAPS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "1.5"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Nd", "Zl", "Zp")),
            min_size=1, max_size=8))


@st.composite
def _mutated(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(["delete", "duplicate", "truncate", "swap"]))
    if kind == "delete":
        new = []
    elif kind == "duplicate":
        new = [line, line]
    elif kind == "truncate":
        new = [line[: draw(st.integers(0, len(line) - 1))]]
    elif "\t" in line:
        fields = line.split("\t")
        j = draw(st.integers(0, len(fields) - 1))
        new = ["\t".join(fields[:j] + [draw(_SWAPS)] + fields[j + 1 :])]
    else:
        new = [re.match(r"[^=]*=\s?", line)[0] + draw(_SWAPS)]
    return lines[:i] + new + lines[i + 1 :]


_SECTIONS = ["[config]", "[state]", "[files]", "[tensors]"]


def _mutate_section(data, checkpoint, section, stale):
    """Mutate one line of `section` of `checkpoint`'s manifest; False when the
    mutation left the manifest as it was."""
    texts = []

    def edit(text):
        lines = text.splitlines()
        start = lines.index(section) + 1
        end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
        lines[start:end] = data.draw(_mutated(lines[start:end]))
        texts.extend([text, "".join(l + "\n" for l in lines)])
        return texts[-1]

    edit_manifest(checkpoint, edit, stale)
    return texts[0] != texts[1]


_RICH_CONFIG = dict(step_size=0.01, clip=5.0, epsilon=1e-6, beta1=0.9, beta2=0.99,
                    decoder="biscale", precision="wide", attention_query="both", d_att=7,
                    max_source_len=20, max_target_len=30)
_OVERRIDES = ["batch_size=3", "step_size=0.002", "clip=2.5", "epsilon=1e-7", "d_dec=5",
              "decoder=biscale", "seed=3", "validate_every=1", "max_target_len=40"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_mutated_input_line_exits_0_or_prints_one_error_line(workspace, data):
    kind = data.draw(st.sampled_from(["config", "override", *_SECTIONS]))
    with tempfile.TemporaryDirectory(dir=workspace["root"]) as tmp:
        tmp = Path(tmp)
        config, overrides = workspace["config"], []
        if kind == "config":
            config = write_config(tmp / "run.conf", workspace["paths"],
                                  src_vocab_size=workspace["n_src"],
                                  tgt_vocab_size=workspace["n_tgt"], **_RICH_CONFIG)
            lines = data.draw(_mutated(config.read_text(encoding="utf-8").splitlines()))
            config.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        elif kind == "override":
            overrides = data.draw(_mutated(_OVERRIDES))
        else:
            checkpoint = tmp / "ckpt"
            shutil.copytree(workspace["ckpt"], checkpoint)
            _mutate_section(data, checkpoint, kind, stale=False)
            overrides = [f"resume={checkpoint}"]
        argv = ["train", "--config", str(config), *overrides, f"out_dir={tmp / 'run'}",
                "max_steps=0"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 0 or (code == 1 and err.getvalue().startswith("error:")
                         and err.getvalue().count("\n") == 1), (argv, err.getvalue())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_mutated_manifest_line_under_a_stale_digest_fails_on_the_digest(workspace, data):
    with tempfile.TemporaryDirectory(dir=workspace["root"]) as tmp:
        checkpoint = Path(tmp) / "ckpt"
        shutil.copytree(workspace["ckpt"], checkpoint)
        assume(_mutate_section(data, checkpoint, data.draw(st.sampled_from(_SECTIONS)),
                               stale=True))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(workspace["config"]), f"resume={checkpoint}",
                         f"out_dir={Path(tmp) / 'run'}", "max_steps=0"])
    assert (code, err.getvalue()) == (
        1, f"error: checksum mismatch for {checkpoint / 'params.bin'}\n")


# One mutation of one data file of a train command: a vocabulary, the merge
# table or a corpus file loses, repeats or truncates one line, has it replaced
# by random text or by a \xff byte, or takes CRLF line endings throughout.
_DATA_KEYS = ("src_vocab", "tgt_vocab", "merges", "train_source", "train_target",
              "dev_source", "dev_target")


@st.composite
def _mutated_file(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(["delete", "duplicate", "truncate", "swap", "xff", "crlf"]))
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = data.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "delete":
        new = []
    elif kind == "duplicate":
        new = [line, line]
    elif kind == "truncate":
        new = [line[: draw(st.integers(0, max(len(line) - 1, 0)))]]
    elif kind == "swap":
        new = [draw(st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                            max_size=8)).encode("utf-8")]
    else:
        new = [b"\xff"]
    return b"".join(l + b"\n" for l in lines[:i] + new + lines[i + 1 :])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_mutated_data_file_line_exits_0_or_prints_one_error_line(workspace, data):
    key = data.draw(st.sampled_from(_DATA_KEYS))
    paths = workspace["paths"]
    with tempfile.TemporaryDirectory(dir=workspace["root"]) as tmp:
        tmp = Path(tmp)
        copies = {k: tmp / getattr(paths, k).name for k in _DATA_KEYS}
        for k, path in copies.items():
            path.write_bytes(getattr(paths, k).read_bytes())
        copies[key].write_bytes(data.draw(_mutated_file(copies[key].read_bytes())))
        config = write_config(tmp / "run.conf", replace(paths, **copies, out_dir=tmp / "run"),
                              max_steps=1, validate_every=1)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(config)])
    assert code == 0 or (code == 1 and err.getvalue().startswith("error:")
                         and err.getvalue().count("\n") == 1
                         and str(copies[key]) in err.getvalue()), (key, err.getvalue())
