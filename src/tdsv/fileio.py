"""Binary tensor container ("SVT1"/"SVT8") and atomic file helpers.

A tensor file is: a magic naming the value type, ``SVT1`` for float32 or
``SVT8`` for float64, u32 rank, u32 per-dimension extents, then the values
little-endian in row-major order.  Network parameters are written as
float32; backend matrices and fusion weights as float64, so they reload
exactly.

All writers go through a temp-file + rename so a failed command never
leaves a partially written artifact behind.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import TensorFormatError

DTYPES = {b"SVT1": np.dtype("<f4"), b"SVT8": np.dtype("<f8")}
MAGICS = {dtype: magic for magic, dtype in DTYPES.items()}
MAX_RANK = 8


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """Text of a UTF-8 file; undecodable bytes raise ``error`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def tensor_to_bytes(array: np.ndarray, dtype=np.float32) -> bytes:
    dtype = np.dtype(dtype)
    if dtype not in MAGICS:
        raise TensorFormatError(f"tensor dtype {dtype} is not float32 or float64")
    arr = np.ascontiguousarray(array, dtype=dtype)
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise TensorFormatError(f"tensor rank {arr.ndim} outside supported range 1..{MAX_RANK}")
    header = MAGICS[dtype] + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 8 or data[:4] not in DTYPES:
        raise TensorFormatError("bad magic: not an SVT1 or SVT8 tensor file")
    dtype = DTYPES[data[:4]]
    (rank,) = struct.unpack_from("<I", data, 4)
    if rank < 1 or rank > MAX_RANK:
        raise TensorFormatError(f"bad rank {rank}")
    if len(data) < 8 + 4 * rank:
        raise TensorFormatError("truncated dimension header")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"zero extent in dims {dims}")
    count = math.prod(dims)  # a Python int: np.prod's int64 wraps
    body = memoryview(data)[8 + 4 * rank:]  # a view; .copy() below is the one copy
    if len(body) != dtype.itemsize * count:
        raise TensorFormatError(f"payload holds {len(body) // dtype.itemsize} "
                                f"{dtype.name} values, header promises {count}")
    return np.frombuffer(body, dtype=dtype).reshape(dims).copy()


def write_tensor(path: str | Path, array: np.ndarray, dtype=np.float32) -> None:
    atomic_write_bytes(path, tensor_to_bytes(array, dtype))


def read_tensor(path: str | Path) -> np.ndarray:
    try:
        return tensor_from_bytes(Path(path).read_bytes())
    except TensorFormatError as exc:
        raise TensorFormatError(f"{path}: {exc}") from None


def write_manifest(path: str | Path, kind: str, version: int,
                   fields: dict[str, str], tensors: dict[str, str]) -> None:
    """Versioned text manifest: header line, key=value fields, tensor name->file map."""
    lines = [f"{kind} {version}"]
    lines += [f"{k}={v}" for k, v in fields.items()]
    lines += [f"tensor={name} file={fname}" for name, fname in tensors.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path, kind: str, version: int) -> tuple[dict[str, str], dict[str, str]]:
    try:
        text = read_utf8(path, TensorFormatError)
    except FileNotFoundError:
        raise FileNotFoundError(f"manifest not found: {path}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != [kind, str(version)]:
        head = lines[0] if lines else "<empty>"
        raise TensorFormatError(f"expected '{kind} {version}' header in {path}, got '{head}'")
    fields: dict[str, str] = {}
    tensors: dict[str, str] = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise TensorFormatError(f"bad manifest line in {path}: '{ln}'")
        key, value = ln.split("=", 1)
        entries, label = fields, "key"
        if key == "tensor":
            key, _, value = value.partition(" file=")
            if value != f"{key}.svt" or "/" in key:  # the writer's own form
                raise TensorFormatError(f"bad tensor line in {path}: '{ln}'")
            entries, label = tensors, "tensor"
        if key in entries:  # written once each; a repeat is ambiguous
            raise TensorFormatError(f"duplicate {label} '{key}' in {path}")
        entries[key] = value
    return fields, tensors


def write_tensor_dir(path: str | Path, kind: str, version: int,
                     fields: dict[str, str], tensors: dict[str, np.ndarray],
                     dtype=np.float32) -> None:
    """Directory artifact: one .svt file per named tensor, each stored as
    ``dtype``, plus a manifest.

    Tensor files land first and the manifest is written (atomically) last, so
    a directory with a readable manifest is complete.  A tensor name holding
    '/' could not name its file, and one holding ' file=' or a line break
    could not be read back from the manifest; either is a TensorFormatError
    before anything is written.
    """
    for name in sorted(tensors):
        if "/" in name:
            raise TensorFormatError(
                f"cannot write {kind} artifact: tensor name '{name}' contains '/'")
        # read_manifest splits lines as str.splitlines does, then each
        # tensor line at its first ' file='
        if " file=" in name or "".join(name.splitlines()) != name:
            raise TensorFormatError(
                f"cannot write {kind} artifact: tensor name {name!r} contains "
                "' file=' or a line break")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index: dict[str, str] = {}
    for name in sorted(tensors):
        fname = f"{name}.svt"
        write_tensor(root / fname, tensors[name], dtype)
        index[name] = fname
    write_manifest(root / "manifest.txt", kind, version, fields, index)


def read_tensor_dir(path: str | Path, kind: str, version: int) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Manifest fields and tensors of a directory artifact.  A tensor holding
    a non-finite value is a TensorFormatError naming its file: no writer
    saves one, and it would pass silently into every score it touches."""
    root = Path(path)
    fields, index = read_manifest(root / "manifest.txt", kind, version)
    tensors = {}
    for name, fname in index.items():
        tensors[name] = read_tensor(root / fname)
        if not np.isfinite(tensors[name]).all():
            raise TensorFormatError(f"{root / fname}: non-finite value")
    return fields, tensors
