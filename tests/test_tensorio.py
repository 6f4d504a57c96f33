import io
import struct

import numpy as np
import pytest

from anomgen import tensorio


@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4)])
def test_roundtrip(shape, tmp_path):
    arr = np.arange(int(np.prod(shape)) if shape else 1, dtype=np.float64).reshape(shape)
    path = tmp_path / "t.bin"
    tensorio.save_tensor(path, arr)
    out = tensorio.load_tensor(path)
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_byte_layout():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.array([1.0, 2.0]))
    raw = buf.getvalue()
    assert raw[:4] == b"APOT"
    assert struct.unpack("<I", raw[4:8]) == (1,)
    assert struct.unpack("<Q", raw[8:16]) == (2,)
    assert struct.unpack("<2d", raw[16:32]) == (1.0, 2.0)


def test_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        tensorio.read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 20))


def test_truncated_payload():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.ones(4))
    data = buf.getvalue()[:-8]
    with pytest.raises(ValueError, match="truncated"):
        tensorio.read_tensor(io.BytesIO(data))


def test_multiple_tensors_in_stream():
    buf = io.BytesIO()
    a, b = np.ones((2, 2)), np.zeros(3)
    tensorio.write_tensor(buf, a)
    tensorio.write_tensor(buf, b)
    buf.seek(0)
    assert np.array_equal(tensorio.read_tensor(buf), a)
    assert np.array_equal(tensorio.read_tensor(buf), b)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(value, tmp_path):
    # one bad element among finite ones; the error names the file
    arr = np.zeros((3, 4))
    arr[1, 2] = value
    path = tmp_path / "t.bin"
    tensorio.save_tensor(path, arr)
    with pytest.raises(ValueError, match="non-finite") as err:
        tensorio.load_tensor(path)
    assert str(path) in str(err.value)
