"""Tensor container and manifest round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from tdsv import fileio
from tdsv.errors import TensorFormatError


def test_tensor_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "t.svt"
    fileio.write_tensor(path, arr)
    back = fileio.read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_container_layout():
    data = fileio.tensor_to_bytes(np.zeros((2, 3), dtype=np.float32))
    assert data[:4] == b"SVT1"
    assert int.from_bytes(data[4:8], "little") == 2
    assert int.from_bytes(data[8:12], "little") == 2
    assert int.from_bytes(data[12:16], "little") == 3
    assert len(data) == 16 + 2 * 3 * 4


@given(arrays(np.float32, array_shapes(min_dims=1, max_dims=4, max_side=6),
              elements=st.floats(-1e6, 1e6, width=32)))
@settings(max_examples=50)
def test_tensor_bytes_round_trip(arr):
    assert np.array_equal(fileio.tensor_from_bytes(fileio.tensor_to_bytes(arr)),
                          arr)


def test_float64_container_layout():
    arr = np.array([[0.1, -1e-300, 1e300]])
    data = fileio.tensor_to_bytes(arr, np.float64)
    assert data[:4] == b"SVT8"
    assert data[4:16] == fileio.tensor_to_bytes(np.zeros((1, 3)))[4:16]
    assert len(data) == 16 + 3 * 8
    back = fileio.tensor_from_bytes(data)
    assert back.dtype == np.float64 and np.array_equal(back, arr)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=6),
              elements=st.floats(allow_nan=False)))
@settings(max_examples=50)
def test_float64_bytes_round_trip(arr):
    back = fileio.tensor_from_bytes(fileio.tensor_to_bytes(arr, np.float64))
    assert back.dtype == np.float64 and np.array_equal(back, arr)


def test_tensor_from_bytes_owns_a_writable_copy():
    # layers write loaded tensors in place, and the array must not pin the
    # file's bytes
    data = fileio.tensor_to_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
    arr = fileio.tensor_from_bytes(data)
    assert arr.flags.owndata and arr.base is None
    assert arr.flags.writeable
    arr[0, 0] = 7.0
    assert np.array_equal(fileio.tensor_from_bytes(data),
                          np.arange(6, dtype=np.float32).reshape(2, 3))


def test_float32_is_the_default():
    arr = np.array([0.1, 0.2])
    assert (fileio.tensor_to_bytes(arr)
            == fileio.tensor_to_bytes(arr.astype(np.float32), np.float32))


def test_other_dtypes_rejected():
    with pytest.raises(TensorFormatError):
        fileio.tensor_to_bytes(np.ones(2), np.int32)


@pytest.mark.parametrize("mangle", [
    lambda d: b"XXXX" + d[4:],          # wrong magic
    lambda d: d[:-2],                   # truncated payload
    lambda d: d + b"\0\0\0\0",          # trailing bytes
    lambda d: d[:4],                    # header only
    # rank 4, four extents of 65536: 2**64 values, which wraps to 0 in int64
    lambda d: b"SVT1" + struct.pack("<5I", 4, *[65536] * 4),
])
def test_tensor_rejects_malformed(mangle):
    data = fileio.tensor_to_bytes(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(TensorFormatError):
        fileio.tensor_from_bytes(mangle(data))


def test_payload_must_match_the_magic():
    f4 = fileio.tensor_to_bytes(np.ones((2, 2)))
    f8 = fileio.tensor_to_bytes(np.ones((2, 2)), np.float64)
    for data in (b"SVT8" + f4[4:], b"SVT1" + f8[4:]):
        with pytest.raises(TensorFormatError, match="header promises 4"):
            fileio.tensor_from_bytes(data)


def test_atomic_write_replaces_not_appends(tmp_path):
    path = tmp_path / "f.txt"
    fileio.atomic_write_text(path, "long first version\n")
    fileio.atomic_write_text(path, "short\n")
    assert path.read_text() == "short\n"
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    fileio.write_manifest(path, "svnet", 1, {"k": "v", "n": "3"},
                          {"a.weight": "a.weight.svt"})
    fields, tensors = fileio.read_manifest(path, "svnet", 1)
    assert fields == {"k": "v", "n": "3"}
    assert tensors == {"a.weight": "a.weight.svt"}


def test_manifest_rejects_wrong_kind_or_version(tmp_path):
    path = tmp_path / "manifest.txt"
    fileio.write_manifest(path, "svnet", 1, {}, {})
    with pytest.raises(TensorFormatError):
        fileio.read_manifest(path, "svbackend", 1)
    with pytest.raises(TensorFormatError):
        fileio.read_manifest(path, "svnet", 2)


@pytest.mark.parametrize("entry", [
    "weights file=../outside.svt", "../outside file=../outside.svt",
    "weights file={outside}", "weights file=other.svt"])
def test_manifest_entry_must_name_its_own_file(tmp_path, entry):
    # an entry names <tensor>.svt in the artifact's own directory, the only
    # form write_tensor_dir writes; anything else could read another file
    fileio.write_tensor(tmp_path / "outside.svt", np.ones(2), np.float64)
    fileio.write_tensor_dir(tmp_path / "art", "svfusion", 2, {},
                            {"weights": np.ones(2), "other": np.ones(2)},
                            np.float64)
    manifest = tmp_path / "art" / "manifest.txt"
    bad = "tensor=" + entry.format(outside=tmp_path / "outside.svt")
    manifest.write_text(manifest.read_text().replace(
        "tensor=weights file=weights.svt", bad))
    with pytest.raises(TensorFormatError) as exc:
        fileio.read_tensor_dir(tmp_path / "art", "svfusion", 2)
    assert str(exc.value) == f"bad tensor line in {manifest}: '{bad}'"


def test_tensor_dir_round_trip(tmp_path):
    tensors = {"x": np.ones((2, 2), dtype=np.float32),
               "y.z": np.arange(3, dtype=np.float32)}
    fileio.write_tensor_dir(tmp_path / "art", "svbackend", 1,
                            {"phrases": "p0"}, tensors)
    fields, back = fileio.read_tensor_dir(tmp_path / "art", "svbackend", 1)
    assert fields == {"phrases": "p0"}
    assert set(back) == {"x", "y.z"}
    assert np.array_equal(back["y.z"], tensors["y.z"])


def test_tensor_dir_rejects_slash_in_name(tmp_path):
    tensors = {"a.x": np.ones(2), "b/c.x": np.ones(2)}
    with pytest.raises(TensorFormatError,
                       match="tensor name 'b/c.x' contains '/'"):
        fileio.write_tensor_dir(tmp_path / "art", "svbackend", 2, {}, tensors,
                                np.float64)
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("name", ["a file=b.x", "a\nb.x", "a.x\r", "a\u2028b.x"])
def test_tensor_dir_rejects_manifest_separators_in_name(tmp_path, name):
    # the manifest reader splits lines with str.splitlines, then each tensor
    # line at its first ' file=': such a name could not be read back
    tensors = {"a.y": np.ones(2), name: np.ones(2)}
    with pytest.raises(TensorFormatError, match="' file=' or a line break") as exc:
        fileio.write_tensor_dir(tmp_path / "art", "svbackend", 4, {}, tensors,
                                np.float64)
    assert "\n" not in str(exc.value) and repr(name) in str(exc.value)
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_dir_rejects_non_finite_tensor(tmp_path, bad, dtype):
    tensors = {"a": np.ones(3), "b": np.array([[0.5, bad], [1.0, 2.0]])}
    fileio.write_tensor_dir(tmp_path / "art", "svfusion", 2, {}, tensors, dtype)
    with pytest.raises(TensorFormatError) as exc:
        fileio.read_tensor_dir(tmp_path / "art", "svfusion", 2)
    assert str(exc.value) == f"{tmp_path / 'art' / 'b.svt'}: non-finite value"


def test_tensor_dir_float64_round_trip(tmp_path):
    tensors = {"w": np.array([1.0 / 3.0, -2.0 / 7.0])}
    fileio.write_tensor_dir(tmp_path / "art", "svfusion", 2, {}, tensors,
                            np.float64)
    assert (tmp_path / "art" / "w.svt").read_bytes()[:4] == b"SVT8"
    _, back = fileio.read_tensor_dir(tmp_path / "art", "svfusion", 2)
    assert np.array_equal(back["w"], tensors["w"])


def test_missing_manifest_names_the_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        fileio.read_manifest(tmp_path / "nope" / "manifest.txt", "svnet", 1)


def test_binary_manifest_is_a_format_error(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(b"svnet 1\n\x89PNG\xff")
    with pytest.raises(TensorFormatError, match="manifest.txt: not UTF-8"):
        fileio.read_manifest(tmp_path / "manifest.txt", "svnet", 1)
