"""Checkpoint container tests: round trips, integrity verification."""

import builtins
import hashlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

import charnmt.checkpoint as checkpoint_mod
from charnmt.checkpoint import FILE_NAME, HEADER_SIZE, load_checkpoint, replace_into, save_checkpoint
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


def read_manifest(directory) -> tuple[str, int]:
    """The manifest text of checkpoint `directory`, without its NUL padding,
    and the byte at which its payload starts."""
    data = (Path(directory) / FILE_NAME).read_bytes()
    start = HEADER_SIZE + int(data[:HEADER_SIZE].split()[3])
    return data[HEADER_SIZE:start].rstrip(b"\0").decode("utf-8"), start


def edit_manifest(directory, edit, stale=False, payload_tail=b""):
    """Rewrite checkpoint `directory`'s manifest as `edit(text)` returns it,
    re-padded, with `payload_tail` appended to the payload. The header gets
    the new manifest length and the sha256 of the new bytes, or, when
    `stale`, keeps the digest it had."""
    path = Path(directory) / FILE_NAME
    data = path.read_bytes()
    text, start = read_manifest(directory)
    manifest = edit(text).encode("utf-8")
    manifest += b"\0" * (-(HEADER_SIZE + len(manifest)) % 8)
    body = manifest + data[start:] + payload_tail
    magic, version, digest, _ = data[:HEADER_SIZE].split()
    if not stale:
        digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(b" ".join([magic, version, digest, b"%010d" % len(manifest)]) + b"\n" + body)


def _edit_tensor_entry(directory, name, field, value, stale=False):
    """Set field `field` (0 name, 1 dtype, 2 shape, 3 offset, 4 size) of tensor
    `name`'s manifest entry to `value`."""
    def edit(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if len(parts) == 5 and parts[0] == name:
                parts[field] = value
                lines[i] = "\t".join(parts)
        return "".join(line + "\n" for line in lines)
    edit_manifest(directory, edit, stale)


def _tensor_entry(directory, name):
    for line in read_manifest(directory)[0].splitlines():
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
        assert [p.name for p in out.iterdir()] == [FILE_NAME]

    def test_failed_swap_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        calls = []

        def failing_replace(src, dst):
            calls.append((src, dst))
            raise OSError("rename failed")

        monkeypatch.setattr(checkpoint_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert calls == [(out / f"{FILE_NAME}.tmp", out / FILE_NAME)]
        assert load_checkpoint(out).state["step"] == 12
        assert [p.name for p in out.iterdir()] == [FILE_NAME]

    def test_load_recovers_checkpoint_left_aside(self, tmp_path):
        """A kill inside the write of a save leaves the previous params.bin in
        place beside a half-written params.bin.tmp; a load reads the former and
        touches neither."""
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        half = out / f"{FILE_NAME}.tmp"
        half.write_bytes((out / FILE_NAME).read_bytes()[:200])
        assert load_checkpoint(out).state == state
        assert sorted(p.name for p in out.iterdir()) == sorted([FILE_NAME, half.name])
        assert len(half.read_bytes()) == 200

    def test_save_removes_debris_of_killed_saves(self, tmp_path):
        """The one debris a killed save can leave, params.bin.tmp, is replaced
        by the next save; nothing outside the checkpoint directory is touched."""
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        (out / f"{FILE_NAME}.tmp").write_bytes((out / FILE_NAME).read_bytes()[:200])
        other = tmp_path / f"{FILE_NAME}.tmp"
        other.write_bytes(b"\0" * 64)
        save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert load_checkpoint(out).state["step"] == 13
        assert [p.name for p in out.iterdir()] == [FILE_NAME]
        assert other.read_bytes() == b"\0" * 64

    def test_save_fsyncs_before_the_swap_and_the_parent_after(self, tmp_path, monkeypatch):
        """Two fsyncs into an existing directory; a first save also syncs the
        parent of the directory it creates."""
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
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
        tmp, final = out / f"{FILE_NAME}.tmp", out / FILE_NAME
        save_checkpoint(out, config, state, tensors, files)
        assert events == [("fsync", tmp), ("replace", final), ("fsync", out), ("fsync", tmp_path)]
        events.clear()
        save_checkpoint(out, config, dict(state, step=13), tensors, files)
        assert events == [("fsync", tmp), ("replace", final), ("fsync", out)]

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
        assert (a / FILE_NAME).read_bytes() == (b / FILE_NAME).read_bytes()

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
        with pytest.raises(IntegrityError, match="is not a checkpoint"):
            load_checkpoint(tmp_path / "c")

    def test_version_1_directory_refused(self, tmp_path):
        old = tmp_path / "c"
        old.mkdir()
        (old / "manifest.txt").write_text("charnmt-checkpoint 1\n[config]\n", encoding="utf-8")
        (old / FILE_NAME).write_bytes(b"\0" * 16)
        with pytest.raises(IntegrityError, match="is a version-1 checkpoint"):
            load_checkpoint(old)

    def test_tampered_blob_detected(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        path = out / FILE_NAME
        raw = bytearray(path.read_bytes())
        raw[read_manifest(out)[1]] ^= 0xFF  # the first tensor byte
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            load_checkpoint(out)

    def test_tampered_aux_file_named(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        path = out / FILE_NAME
        path.write_bytes(path.read_bytes()[:-2] + b"b\n")  # the bundled file ends the payload
        with pytest.raises(IntegrityError, match="checksum mismatch") as exc:
            load_checkpoint(out)
        assert str(path) in str(exc.value)

    def test_bad_header(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        path = out / FILE_NAME
        path.write_bytes(b"something else\n" + path.read_bytes())
        with pytest.raises(IntegrityError, match="not a version-2 checkpoint header"):
            load_checkpoint(out)

    def test_inconsistent_tensor_size(self, tmp_path):
        config, state, tensors, files = _sample()
        out = tmp_path / "ckpt"
        save_checkpoint(out, config, state, tensors, files)
        edit_manifest(out, lambda text: text.replace("\t3,4\t", "\t3,5\t"))
        with pytest.raises(IntegrityError, match="inconsistent with size"):
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

    @staticmethod
    def _equal_shaped_pair(tmp_path):
        _, state, _, files = _sample()
        cfg = ModelConfig(src_vocab_size=7, tgt_vocab_size=6, d_emb=3, d_enc=4, d_dec=5)
        tensors = {name: t.data for name, t in init_params(cfg, 0).items()}
        out = tmp_path / "ckpt"
        save_checkpoint(out, {}, state, tensors, files)
        reset, update = (_tensor_entry(out, f"enc_fw.U_{g}") for g in ("reset", "update"))
        assert reset[2] == update[2]  # equal shapes: only names and offsets tell them apart
        return out, reset, update

    def test_swapped_offsets_refused(self, tmp_path):
        out, reset, update = self._equal_shaped_pair(tmp_path)
        _edit_tensor_entry(out, "enc_fw.U_reset", 3, update[3])
        _edit_tensor_entry(out, "enc_fw.U_update", 3, reset[3])
        with pytest.raises(IntegrityError, match="'enc_fw.U_reset': offset"):
            load_checkpoint(out)

    def test_swapped_names_refused(self, tmp_path):
        out, _, _ = self._equal_shaped_pair(tmp_path)
        _edit_tensor_entry(out, "enc_fw.U_reset", 0, "enc_fw.U_swap", stale=True)
        _edit_tensor_entry(out, "enc_fw.U_update", 0, "enc_fw.U_reset", stale=True)
        _edit_tensor_entry(out, "enc_fw.U_swap", 0, "enc_fw.U_update", stale=True)
        assert int(_tensor_entry(out, "enc_fw.U_update")[3]) < int(
            _tensor_entry(out, "enc_fw.U_reset")[3])
        with pytest.raises(IntegrityError, match="checksum mismatch"):
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
        edit_manifest(out, lambda text: text, payload_tail=b"\0" * 8)
        # 136 tensor bytes and the 23 bytes of the one bundled file
        with pytest.raises(IntegrityError, match="entries end at byte 159 of a 167-byte payload"):
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
    assert opened.count(str(out / FILE_NAME)) == 1
    assert np.array_equal(cp.tensors["w.bias"], tensors["w.bias"])


def test_one_trained_model_load_opens_each_bundled_file_once(tmp_path, monkeypatch):
    """The vocabularies and the merge table are parsed from the bytes whose
    checksum the load verified, the one file of the checkpoint read once."""
    symbols = "".join(s + "\n" for s in (*RESERVED, "a"))
    files = {"src_vocab": symbols.encode(), "tgt_vocab": symbols.encode(),
             "merges": f"{MERGE_FILE_VERSION}\na a\n".encode()}
    mc = ModelConfig(src_vocab_size=5, tgt_vocab_size=5, d_emb=2, d_enc=2, d_dec=2)
    tensors = {name: t.data for name, t in init_params(mc, 0).items()}
    out = tmp_path / "ckpt"
    save_checkpoint(out, config_dict(mc, TrainConfig()), {"step": 0}, tensors, files)
    opened = _record_opens(monkeypatch)
    tm = load_trained_model(out)
    assert [p for p in opened if str(p).startswith(str(out))] == [str(out / FILE_NAME)]
    assert tm.src_vocab.symbols == tm.tgt_vocab.symbols == [*RESERVED, "a"]
    assert tm.merges.rules == [("a", "a")]
