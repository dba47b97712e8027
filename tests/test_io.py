"""Tensor dump format and PGM image export."""
import io
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wau.tensor import ContractError, ShapeError
from wau.tensorio import read_tensor, write_pgm, write_tensor

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


class TestTensorDump:
    @given(shape=shapes, double=st.booleans(), data=st.data())
    def test_round_trip_bitwise(self, tmp_path_factory, shape, double, data):
        dtype = np.float64 if double else np.float32
        arr = data.draw(hnp.arrays(dtype, shape,
                                   elements=st.floats(-1e6, 1e6, width=32)))
        path = tmp_path_factory.mktemp("io") / "t.waut"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == dtype
        np.testing.assert_array_equal(back.reshape(shape), arr)

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "t.waut"
        write_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"WAUT"
        version, dtype_code, rank = struct.unpack("<BBB", raw[4:7])
        assert version == 2 and dtype_code == 0 and rank == 2
        dims = struct.unpack("<2I", raw[7:15])
        assert dims == (2, 3)
        assert len(raw) == 15 + 6 * 4

    @pytest.mark.parametrize("shape", [(8,), (1, 8), (1, 1, 8), (1, 1, 1, 8)])
    def test_true_rank_round_trips(self, tmp_path, shape):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(shape, dtype=np.float32))
        assert read_tensor(path).shape == shape

    def test_reads_version_1_padded_to_rank_4(self, tmp_path):
        path = tmp_path / "t.waut"
        arr = np.arange(6, dtype="<f4")
        path.write_bytes(b"WAUT" + struct.pack("<BB4I", 1, 0, 1, 1, 2, 3) + arr.tobytes())
        back = read_tensor(path)
        assert back.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(back.ravel(), arr)
        assert read_tensor(path, (2, 3)).shape == (2, 3)
        with pytest.raises(ShapeError):
            read_tensor(path, (3, 2))

    def test_expected_shape_must_match_exactly(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(8, dtype=np.float32))
        assert read_tensor(path, (8,)).shape == (8,)
        with pytest.raises(ShapeError, match="stored as"):
            read_tensor(path, (1, 8))

    def test_double_dtype_code(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(2, dtype=np.float64))
        assert path.read_bytes()[5] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(2, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractError):
            read_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(2, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractError):
            read_tensor(path)

    def test_bad_rank_rejected(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(2, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[6] = 5
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.waut"
        write_tensor(path, np.ones(4, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ContractError):
            read_tensor(path)

    def test_rank_above_4_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_tensor(tmp_path / "t.waut", np.ones((1, 1, 1, 1, 1),
                                                      dtype=np.float32))

    def test_integer_input_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_tensor(tmp_path / "t.waut", np.ones(3, dtype=np.int32))


class TestPgm:
    def read_pgm(self, path):
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        dims, rest = rest.split(b"\n", 1)
        maxval, pixels = rest.split(b"\n", 1)
        w, h = map(int, dims.split())
        assert header == b"P5" and maxval == b"255"
        return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)

    def test_min_max_normalization_endpoints(self, tmp_path):
        img = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        px = self.read_pgm(path)
        assert px[0, 0] == 0 and px[1, 1] == 255

    def test_constant_image_mid_gray(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((3, 5), 7.25))
        px = self.read_pgm(path)
        assert (px == 128).all()

    def test_deterministic_bytes(self, tmp_path):
        img = np.random.default_rng(0).normal(size=(6, 6))
        write_pgm(tmp_path / "a.pgm", img)
        write_pgm(tmp_path / "b.pgm", img)
        assert ((tmp_path / "a.pgm").read_bytes()
                == (tmp_path / "b.pgm").read_bytes())

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
