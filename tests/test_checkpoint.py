"""Checkpoint container tests: round trips, integrity verification."""

import builtins
import hashlib
import io
import os
import shutil
import uuid

import numpy as np
import pytest

import charnmt.checkpoint as checkpoint_mod
from charnmt.checkpoint import (
    BLOB_NAME,
    MANIFEST_NAME,
    load_checkpoint,
    replace_into,
    save_checkpoint,
)
from charnmt.errors import ContractError, IntegrityError
from charnmt.model import ModelConfig, init_params
from charnmt.textpipe import MERGE_FILE_VERSION, RESERVED
from charnmt.trainer import TrainConfig, config_dict, load_trained_model


def _sample():
    rng = np.random.default_rng(0)
    tensors = {
        "w.matrix": rng.normal(size=(3, 4)).astype(np.float32),
        "w.bias": rng.normal(size=5).astype(np.float64),
        "adam.m.w.matrix": np.zeros((3, 4), dtype=np.float32),
    }
    config = {"decoder": "base", "d_emb": "64", "step_size": "0.001"}
    state = {"step": 12, "epoch": 1, "batch": 3, "best_dev_nll": 0.25}
    files = {"src_vocab": b"<s>\n</s>\n<unk>\n<pad>\na\n"}
    return config, state, tensors, files


def _edit_tensor_entry(directory, name, field, value):
    """Set field `field` (0 name, 1 dtype, 2 shape, 3 offset, 4 size) of tensor
    `name`'s manifest entry to `value`."""
    manifest = directory / MANIFEST_NAME
    lines = manifest.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if len(parts) == 5 and parts[0] == name:
            parts[field] = value
            lines[i] = "\t".join(parts)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tensor_entry(directory, name):
    for line in (directory / MANIFEST_NAME).read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        if len(parts) == 5 and parts[0] == name:
            return parts
    raise KeyError(name)


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        cp = load_checkpoint(out)
        assert cp.config == config
        assert cp.state == state
        assert set(cp.tensors) == set(tensors)
        for name, arr in tensors.items():
            assert cp.tensors[name].dtype == arr.dtype
            assert np.array_equal(cp.tensors[name], arr)
        assert cp.files == files

    def test_overwrite_existing(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        state2 = dict(state, step=13)
        save_checkpoint(out, config, state2, tensors, files)
        assert load_checkpoint(out).state["step"] == 13
        assert not out.with_name("ckpt.tmp").exists()

    def test_failed_swap_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        before = sorted(p.name for p in tmp_path.iterdir())
        real_replace, calls = checkpoint_mod.os.replace, []

        def failing_replace(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:  # moving the new checkpoint in
                raise OSError("rename failed")
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert calls[0][0] == out and calls[1][1] == out
        assert load_checkpoint(out).state["step"] == 12
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @staticmethod
    def _kill_between_renames(out):
        """Leave `out` as a kill after `_swap_in`'s first rename does: the
        previous checkpoint aside, the new one still under its temporary
        name."""
        hexname = uuid.uuid4().hex
        aside = out.with_name(f".{out.name}.{hexname}.old")
        os.replace(out, aside)
        out.with_name(f".{out.name}.{hexname}.tmp").mkdir()
        return aside

    def test_load_recovers_checkpoint_left_aside(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        aside = self._kill_between_renames(out)
        assert load_checkpoint(out).state == state
        assert out.is_dir() and not aside.exists()

    def test_save_recovers_checkpoint_left_aside(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        self._kill_between_renames(out)
        save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert load_checkpoint(out).state["step"] == 13
        assert not list(tmp_path.glob(".ckpt.*"))

    def test_save_removes_debris_of_killed_saves(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        # a kill inside _write_contents, and one after the swap's second rename
        half = out.with_name(f".ckpt.{uuid.uuid4().hex}.tmp")
        half.mkdir()
        (half / BLOB_NAME).write_bytes(b"\0" * 64)
        shutil.copytree(out, out.with_name(f".ckpt.{uuid.uuid4().hex}.old"))
        others = [tmp_path / f".other.{uuid.uuid4().hex}.tmp", tmp_path / ".ckpt.x.old"]
        for path in others:
            path.mkdir()
        save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert load_checkpoint(out).state["step"] == 13
        assert sorted(tmp_path.glob(".*")) == sorted(others)

    def test_save_fsyncs_before_the_swap_and_the_parent_after(self, tmp_path, monkeypatch):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        events = []
        real_fsync, real_replace = checkpoint_mod._fsync, checkpoint_mod.os.replace

        def fsync(path):
            events.append(("fsync", path))
            real_fsync(path)

        def replace(src, dst):
            events.append(("replace", dst))
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint_mod, "_fsync", fsync)
        monkeypatch.setattr(checkpoint_mod.os, "replace", replace)
        save_checkpoint(out, config, dict(state, step=13), tensors, files)
        swap = events.index(("replace", out))
        synced = [p for kind, p in events[:swap] if kind == "fsync"]
        tmp = synced[-1]
        assert tmp.name.startswith(".ckpt.") and tmp.name.endswith(".tmp")
        assert sorted(p.name for p in synced[:-1]) == sorted(
            [BLOB_NAME, MANIFEST_NAME, "src_vocab.txt"])
        assert ("fsync", tmp_path) in events[swap:]

    def test_ambiguous_checkpoints_aside_are_not_recovered(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        aside = self._kill_between_renames(out)
        shutil.copytree(aside, out.with_name(f".ckpt.{uuid.uuid4().hex}.old"))
        with pytest.raises(IntegrityError, match="not a checkpoint"):
            load_checkpoint(out)
        assert len(list(tmp_path.glob(".ckpt.*.old"))) == 2

    def test_float_state_round_trip(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        loaded = load_checkpoint(out).state
        assert loaded["best_dev_nll"] == pytest.approx(0.25)
        assert isinstance(loaded["step"], int)

    def test_bit_identical_blob(self, tmp_path):
        config, state, tensors, files = _sample()
        a, b = tmp_path / "a", tmp_path / "b"
        save_checkpoint(a, config, state, tensors, files)
        save_checkpoint(b, config, state, tensors, files)
        assert (a / BLOB_NAME).read_bytes() == (b / BLOB_NAME).read_bytes()

    def test_scalar_and_empty_tensors_round_trip(self, tmp_path):
        _, state, _, files = _sample()
        tensors = {"scalar": np.float64(2.5), "row": np.arange(3, dtype=np.float32),
                   "empty": np.zeros((2, 0), dtype=np.float32)}
        out = save_checkpoint(tmp_path / "ckpt", {}, state, tensors, files)
        cp = load_checkpoint(out)
        for name, arr in tensors.items():
            assert cp.tensors[name].shape == np.shape(arr), name
            assert np.array_equal(cp.tensors[name], arr), name


class TestReplaceInto:
    def test_fsyncs_before_the_rename_and_the_parent_after(self, tmp_path, monkeypatch):
        out = tmp_path / "out.txt"
        out.write_text("old\n", encoding="utf-8")
        events = []
        real_fsync, real_replace = checkpoint_mod._fsync, checkpoint_mod.os.replace

        def fsync(path):
            events.append(("fsync", path))
            real_fsync(path)

        def replace(src, dst):
            events.append(("replace", src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint_mod, "_fsync", fsync)
        monkeypatch.setattr(checkpoint_mod.os, "replace", replace)
        replace_into(out, "new\n")
        tmp = tmp_path / "out.txt.tmp"
        assert events == [("fsync", tmp), ("replace", tmp, out), ("fsync", tmp_path)]
        assert out.read_text(encoding="utf-8") == "new\n" and not tmp.exists()


class TestValidation:
    def test_rejects_non_float_tensor(self, tmp_path):
        config, state, _, files = _sample()
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "c", config, state,
                            {"ids": np.arange(3)}, files)

    def test_rejects_control_chars_in_config(self, tmp_path):
        config, state, tensors, files = _sample()
        config["bad"] = "two\nlines"
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "c", config, state, tensors, files)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "c").mkdir()
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "c")

    def test_tampered_blob_detected(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        blob = out / BLOB_NAME
        raw = bytearray(blob.read_bytes())
        raw[0] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_checkpoint(out)

    def test_tampered_aux_file_named(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        (out / "src_vocab.txt").write_text("altered\n", encoding="utf-8")
        with pytest.raises(IntegrityError) as exc:
            load_checkpoint(out)
        assert "src_vocab" in str(exc.value)

    def test_bad_header(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        manifest = out / MANIFEST_NAME
        manifest.write_text("something else\n" + manifest.read_text(encoding="utf-8"),
                            encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_checkpoint(out)

    def test_inconsistent_tensor_size(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        manifest = out / MANIFEST_NAME
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("\t3,4\t", "\t3,5\t"), encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_checkpoint(out)

    @pytest.mark.parametrize("field,value", [(3, "12x"), (2, "3,a"), (4, "-4")])
    def test_malformed_number_names_the_tensor(self, tmp_path, field, value):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        _edit_tensor_entry(out, "w.bias", field, value)
        with pytest.raises(IntegrityError, match="tensor 'w.bias': malformed entry") as exc:
            load_checkpoint(out)
        assert value in str(exc.value)

    def test_swapped_offsets_refused(self, tmp_path):
        _, state, _, files = _sample()
        cfg = ModelConfig(src_vocab_size=7, tgt_vocab_size=6, d_emb=3, d_enc=4, d_dec=5)
        tensors = {name: t.data for name, t in init_params(cfg, 0).items()}
        out = tmp_path / "ckpt"
        save_checkpoint(out, {}, state, tensors, files)
        reset, update = (_tensor_entry(out, f"enc_fw.U_{g}") for g in ("reset", "update"))
        assert reset[2] == update[2]  # equal shapes: only the offsets tell them apart
        _edit_tensor_entry(out, "enc_fw.U_reset", 3, update[3])
        _edit_tensor_entry(out, "enc_fw.U_update", 3, reset[3])
        with pytest.raises(IntegrityError, match="'enc_fw.U_reset': offset"):
            load_checkpoint(out)

    def test_first_tensor_starts_the_blob(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        _edit_tensor_entry(out, "w.matrix", 3, "4")
        with pytest.raises(IntegrityError, match="'w.matrix': offset 4"):
            load_checkpoint(out)

    def test_tensors_end_at_the_blob_end(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        blob = out / BLOB_NAME
        old = hashlib.sha256(blob.read_bytes()).hexdigest()
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        manifest = out / MANIFEST_NAME
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            old, hashlib.sha256(blob.read_bytes()).hexdigest()), encoding="utf-8")
        with pytest.raises(IntegrityError, match="tensors end at byte 136 of a 144-byte blob"):
            load_checkpoint(out)


def _record_opens(monkeypatch) -> list:
    """Every file opened from now on, as a path string where it has one."""
    opened = []

    def spy(real):
        def wrapper(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real(file, *args, **kwargs)
        return wrapper

    for owner in (builtins, io, os):
        monkeypatch.setattr(owner, "open", spy(owner.open))
    return opened


def test_one_load_opens_the_blob_once(tmp_path, monkeypatch):
    config, state, tensors, files = _sample()
    out = tmp_path / "ckpt"
    save_checkpoint(out, config, state, tensors, files)
    opened = _record_opens(monkeypatch)
    cp = load_checkpoint(out)
    assert opened.count(str(out / BLOB_NAME)) == 1
    assert np.array_equal(cp.tensors["w.bias"], tensors["w.bias"])


def test_one_trained_model_load_opens_each_bundled_file_once(tmp_path, monkeypatch):
    """The vocabularies and the merge table are parsed from the bytes whose
    checksum the load verified, not read a second time."""
    symbols = "".join(s + "\n" for s in (*RESERVED, "a"))
    files = {"src_vocab": symbols.encode(), "tgt_vocab": symbols.encode(),
             "merges": f"{MERGE_FILE_VERSION}\na a\n".encode()}
    mc = ModelConfig(src_vocab_size=5, tgt_vocab_size=5, d_emb=2, d_enc=2, d_dec=2)
    tensors = {name: t.data for name, t in init_params(mc, 0).items()}
    out = tmp_path / "ckpt"
    save_checkpoint(out, config_dict(mc, TrainConfig()), {"step": 0}, tensors, files)
    opened = _record_opens(monkeypatch)
    tm = load_trained_model(out)
    for role in files:
        assert opened.count(str(out / f"{role}.txt")) == 1, role
    assert tm.src_vocab.symbols == tm.tgt_vocab.symbols == [*RESERVED, "a"]
    assert tm.merges.rules == [("a", "a")]
