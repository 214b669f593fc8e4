"""Checkpoint container (format 2): a directory holding one file, `params.bin`.
The caller hands over the bytes of the vocabulary/merge files to bundle:
this module opens no file it bundles.

Layout of `params.bin`:
    header     one 97-byte line: `charnmt-checkpoint 2 <sha256> <manifest length>`,
               the length as 10 digits
    manifest   [config] / [state] / [files] / [tensors] lines, NUL-padded so
               that the payload starts on an 8-byte boundary
    payload    the tensors' little-endian IEEE-754 values, then the bundled
               files' bytes, each located by an offset and a size in the manifest

The one sha256 covers every byte after the header. A load reads the file
once and checks the digest on the bytes in memory before it parses them;
the entries must tile the payload in manifest order, tensors first, and
the tensors are views of that one buffer. A save hashes and writes the
parts one by one and replaces the file through `replace_into`, so a reader
sees the old file or the whole new one, and a crash never leaves a
half-written checkpoint under the final name. The temporary name is fixed,
so only one process at a time may save into a directory. A version-1
directory (a `manifest.txt` beside the blob) is refused.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, IntegrityError
from .textpipe import decode_text

FILE_NAME = "params.bin"
HEADER_SIZE = 97
_HEADER = re.compile(rb"charnmt-checkpoint 2 ([0-9a-f]{64}) (\d{10})\n")

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
# name, dtype, shape, offset, size; the numbers are nonnegative ASCII integers
_TENSOR_ENTRY = re.compile(r"([^\t]*)\t(float32|float64)\t(\d+(?:,\d+)*|)\t(\d+)\t(\d+)", re.ASCII)
_FILE_ENTRY = re.compile(r"([^\t]*)\t(\d+)\t(\d+)", re.ASCII)  # role, offset, size


@dataclass
class Checkpoint:
    config: dict[str, str]
    state: dict[str, int | float]
    tensors: dict[str, np.ndarray]
    files: dict[str, bytes]  # role -> the verified contents of its copy


def replace_into(path, write) -> None:
    """Run `write(tmp_path)` then atomically rename the result into place,
    so a failure leaves the old file and no temporary one. The result is
    fsynced before the rename and the directory after it (and the parent
    directory too when this call created it), so a crash leaves the old
    file or the whole new one. An OSError is raised again naming `path`.
    `write` may instead be the text to write."""
    if isinstance(write, str):
        text = write
        write = lambda tmp: tmp.write_text(text, encoding="utf-8")
    path = Path(path)
    created = not path.parent.is_dir()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        _fsync(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)
    _fsync(path.parent)
    if created:
        _fsync(path.parent.parent)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(directory, config: dict, state: dict, tensors: dict, files: dict) -> Path:
    """Write a checkpoint into `directory`. `files` maps role -> the bytes to bundle."""
    directory = Path(directory)
    for key, value in config.items():
        if "\n" in str(value) or "\t" in str(value):
            raise ContractError(f"config value for {key!r} contains control characters")
    parts, tensor_lines, file_lines, offset = [], [], [], 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype_name = {4: "float32", 8: "float64"}.get(arr.dtype.itemsize)
        if arr.dtype.kind != "f" or dtype_name is None:
            raise ContractError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_name])
        shape = ",".join(str(s) for s in arr.shape)
        tensor_lines.append(f"{name}\t{dtype_name}\t{shape}\t{offset}\t{raw.nbytes}")
        parts.append(raw)
        offset += raw.nbytes
    for role, data in files.items():
        file_lines.append(f"{role}\t{offset}\t{len(data)}")
        parts.append(data)
        offset += len(data)

    lines = ["[config]", *(f"{k} = {v}" for k, v in config.items()),
             "[state]", *(f"{k} = {v}" for k, v in state.items()),
             "[files]", *file_lines, "[tensors]", *tensor_lines]
    manifest = "".join(line + "\n" for line in lines).encode("utf-8")
    manifest += b"\0" * (-(HEADER_SIZE + len(manifest)) % 8)
    digest = hashlib.sha256(manifest)
    for part in parts:
        digest.update(part)
    header = f"charnmt-checkpoint 2 {digest.hexdigest()} {len(manifest):010d}\n".encode()

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as f:
            for part in [header, manifest, *parts]:
                f.write(part)

    replace_into(directory / FILE_NAME, write)
    return directory


def _parse_manifest(text: str, where: str):
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines()[1:]:  # after the header
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif line:
            if current is None:
                raise IntegrityError(f"{where}: content before first section")
            sections[current].append(line)
    for required in ("config", "state", "files", "tensors"):
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
    views of the one buffer that holds the file."""
    directory = Path(directory)
    path = directory / FILE_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"{directory} is not a checkpoint (no {FILE_NAME})") from None
    header = _HEADER.fullmatch(data[:HEADER_SIZE])
    if header is None:
        if (directory / "manifest.txt").is_file():
            raise IntegrityError(f"{directory} is a version-1 checkpoint; "
                                 "this charnmt reads version 2 only")
        raise IntegrityError(f"{path}: not a version-2 checkpoint header")
    start = HEADER_SIZE + int(header[2])
    payload = len(data) - start
    if payload < 0 or start % 8:
        raise IntegrityError(f"{path}: manifest length {int(header[2])} does not fit the file")
    if hashlib.sha256(memoryview(data)[HEADER_SIZE:]).hexdigest() != header[1].decode():
        raise IntegrityError(f"checksum mismatch for {path}")
    sections = _parse_manifest(decode_text(data[:start].rstrip(b"\0"), path), str(path))

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

    tensors: dict[str, np.ndarray] = {}
    layouts = {}  # (dtype, shape) text -> (dtype, shape, bytes); moments repeat these
    end = 0  # where the previous entry's bytes end, in the payload
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
        end = _tile(f"tensor {name!r}", offset, size, end, payload)
        arr = np.ndarray(shape, dtype, data, start + offset)
        tensors[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
    files: dict[str, bytes] = {}
    for line in sections["files"]:
        entry = _FILE_ENTRY.fullmatch(line)
        if entry is None:
            raise IntegrityError(f"malformed file entry {line!r}")
        role, offset, size = entry[1], int(entry[2]), int(entry[3])
        end = _tile(f"file {role!r}", offset, size, end, payload)
        files[role] = data[start + offset : start + end]
    if end != payload:
        raise IntegrityError(f"entries end at byte {end} of a {payload}-byte payload")
    return Checkpoint(config=config, state=state, tensors=tensors, files=files)


def _tile(what: str, offset: int, size: int, end: int, payload: int) -> int:
    """The end of an entry that must start where the previous one ended."""
    if offset != end:
        raise IntegrityError(f"{what}: offset {offset}, expected {end}")
    if end + size > payload:
        raise IntegrityError(f"{what}: range outside the payload")
    return end + size
