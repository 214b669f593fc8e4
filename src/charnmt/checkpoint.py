"""Checkpoint container: one directory holding a structured-text manifest,
a raw tensor blob, and the bytes of the vocabulary/merge files, which the
caller hands over: this module opens no file it bundles.

Layout:
    manifest.txt   header line, then [config] / [files] / [state] / [tensors]
    params.bin     concatenated little-endian IEEE-754 tensor values
    <role>.txt     the bytes given for each bundled file (vocabularies, merges)

The manifest records a sha256 for the blob and every auxiliary file. A load
reads each file once and checks its sha256 on the bytes in memory before it
parses them; the tensors are views of the one blob buffer and must tile it,
in manifest order. Writes go to a uniquely named sibling temporary directory
first, fsynced, and are renamed into place, so a crash never leaves a
half-written checkpoint under the final name. An existing checkpoint is
renamed aside and deleted only once the new one is in place; if that rename
fails, the old one is put back. If a kill lands between the two renames, the
next load or save under the final name renames the old one back. A save
deletes every sibling temporary or aside directory of its name once it is
in place, so only one process at a time may save under a name.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import re
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, IntegrityError
from .textpipe import decode_text

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "params.bin"
HEADER = "charnmt-checkpoint 1"

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
# name, dtype, shape, offset, size; the numbers are nonnegative ASCII integers
_TENSOR_ENTRY = re.compile(r"([^\t]*)\t(float32|float64)\t(\d+(?:,\d+)*|)\t(\d+)\t(\d+)", re.ASCII)


@dataclass
class Checkpoint:
    config: dict[str, str]
    state: dict[str, int | float]
    tensors: dict[str, np.ndarray]
    files: dict[str, bytes]  # role -> the verified contents of its copy


def replace_into(path, write) -> None:
    """Run `write(tmp_path)` then atomically rename the result into place,
    so a failure leaves the old file and no temporary one. The result is
    fsynced before the rename and the directory after it, so a crash leaves
    the old file or the whole new one. `write` may instead be the text to
    write."""
    if isinstance(write, str):
        text = write
        write = lambda tmp: tmp.write_text(text, encoding="utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        _fsync(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync(path.parent)


def save_checkpoint(directory, config: dict, state: dict, tensors: dict, files: dict) -> Path:
    """Write a checkpoint. `files` maps role -> the bytes to bundle as `<role>.txt`."""
    directory = Path(directory)
    for key, value in config.items():
        if "\n" in str(value) or "\t" in str(value):
            raise ContractError(f"config value for {key!r} contains control characters")
    directory.parent.mkdir(parents=True, exist_ok=True)
    _restore_aside(directory)
    tmp = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}.tmp")
    tmp.mkdir()
    try:
        _write_contents(tmp, config, state, tensors, files)
        for path in [*tmp.iterdir(), tmp]:
            _fsync(path)
        _swap_in(tmp, directory)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
    _fsync(directory.parent)
    for debris in _siblings(directory, ".tmp") + _siblings(directory, ".old"):
        shutil.rmtree(debris, ignore_errors=True)
    return directory


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _siblings(directory: Path, suffix: str) -> list[Path]:
    """The temporary (".tmp") or aside (".old") directories of saves to `directory`."""
    return list(directory.parent.glob(
        f".{glob.escape(directory.name)}.{'[0-9a-f]' * 32}{suffix}"))


def _swap_in(tmp: Path, directory: Path) -> None:
    """Rename `tmp` to `directory`, leaving any checkpoint there aside as ".old"."""
    if not directory.exists():
        os.replace(tmp, directory)
        return
    old = tmp.with_suffix(".old")
    os.replace(directory, old)
    try:
        os.replace(tmp, directory)
    except OSError:
        os.replace(old, directory)
        raise


def _restore_aside(directory: Path) -> None:
    """Rename back a lone checkpoint under `_swap_in`'s aside name when
    `directory` itself is missing."""
    if directory.exists():
        return
    aside = _siblings(directory, ".old")
    if len(aside) == 1:
        os.replace(aside[0], directory)


def _write_contents(tmp: Path, config: dict, state: dict, tensors: dict, files: dict) -> None:
    blob_parts, entries, offset = [], [], 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype_name = {4: "float32", 8: "float64"}.get(arr.dtype.itemsize)
        if arr.dtype.kind != "f" or dtype_name is None:
            raise ContractError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_name])
        shape = ",".join(str(s) for s in arr.shape)
        entries.append(f"{name}\t{dtype_name}\t{shape}\t{offset}\t{raw.nbytes}")
        blob_parts.append(raw)
        offset += raw.nbytes
    blob = b"".join(blob_parts)
    (tmp / BLOB_NAME).write_bytes(blob)

    file_lines = [f"params\t{BLOB_NAME}\t{hashlib.sha256(blob).hexdigest()}"]
    for role, data in files.items():
        rel = f"{role}.txt"
        (tmp / rel).write_bytes(data)
        file_lines.append(f"{role}\t{rel}\t{hashlib.sha256(data).hexdigest()}")

    lines = [HEADER, "[config]"]
    lines += [f"{k} = {v}" for k, v in config.items()]
    lines.append("[files]")
    lines += file_lines
    lines.append("[state]")
    lines += [f"{k} = {v}" for k, v in state.items()]
    lines.append("[tensors]")
    lines += entries
    (tmp / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_manifest(text: str, where: str):
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise IntegrityError(f"{where}: not a checkpoint manifest")
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif line:
            if current is None:
                raise IntegrityError(f"{where}: content before first section")
            sections[current].append(line)
    for required in ("config", "files", "state", "tensors"):
        if required not in sections:
            raise IntegrityError(f"{where}: missing [{required}] section")
    return sections


def _parse_kv(lines, where):
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise IntegrityError(f"{where}: malformed line {line!r}")
        out[key] = value
    return out


def load_checkpoint(directory) -> Checkpoint:
    """Read and verify a checkpoint directory. The tensors are read-only
    views of the one buffer that holds the blob."""
    directory = Path(directory)
    _restore_aside(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.is_file():
        raise IntegrityError(f"{directory} is not a checkpoint (no {MANIFEST_NAME})")
    sections = _parse_manifest(decode_text(manifest.read_bytes(), manifest), str(manifest))

    config = _parse_kv(sections["config"], "config")
    state = {}
    for k, v in _parse_kv(sections["state"], "state").items():
        try:
            state[k] = int(v)
        except ValueError:
            try:
                state[k] = float(v)
            except ValueError:
                raise IntegrityError(f"non-numeric state entry {k} = {v!r}") from None

    files: dict[str, bytes] = {}
    blob = None
    for line in sections["files"]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise IntegrityError(f"malformed file entry {line!r}")
        role, rel, digest = parts
        path = directory / rel
        if not path.is_file():
            raise IntegrityError(f"checkpoint file missing: {path}")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise IntegrityError(f"checksum mismatch for {path}")
        if role == "params":
            blob = data
        else:
            files[role] = data
    if blob is None:
        raise IntegrityError("manifest lists no params blob")

    tensors: dict[str, np.ndarray] = {}
    layouts = {}  # (dtype, shape) text -> (dtype, shape, bytes); moments repeat these
    end = 0  # where the previous tensor's bytes end
    for line in sections["tensors"]:
        entry = _TENSOR_ENTRY.fullmatch(line)
        if entry is None:
            name = line.split("\t", 1)[0]
            raise IntegrityError(f"tensor {name!r}: malformed entry {line!r}")
        name, dtype_name, shape_s, offset_s, size_s = entry.groups()
        layout = layouts.get((dtype_name, shape_s))
        if layout is None:
            dtype = _DTYPES[dtype_name]
            shape = tuple(map(int, shape_s.split(","))) if shape_s else ()
            layout = layouts[dtype_name, shape_s] = dtype, shape, math.prod(shape) * dtype.itemsize
        dtype, shape, nbytes = layout
        offset, size = int(offset_s), int(size_s)
        if nbytes != size:
            raise IntegrityError(f"tensor {name!r}: shape {shape} inconsistent with size {size}")
        if offset != end:
            raise IntegrityError(f"tensor {name!r}: offset {offset}, expected {end}")
        end += size
        if end > len(blob):
            raise IntegrityError(f"tensor {name!r}: range outside blob")
        arr = np.ndarray(shape, dtype, blob, offset)
        tensors[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
    if end != len(blob):
        raise IntegrityError(f"tensors end at byte {end} of a {len(blob)}-byte blob")
    return Checkpoint(config=config, state=state, tensors=tensors, files=files)
