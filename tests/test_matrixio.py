import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec.data import DataError
from coldrec.matrixio import (load_ids, load_matrix, load_params, save_ids,
                              save_matrix, save_params)


class TestMatrixContainer:
    def test_empty_section_list(self, tmp_path):
        path = tmp_path / "m.csmx"
        save_matrix(path, {})
        assert load_matrix(path) == {}

    def test_single_value(self, tmp_path):
        path = tmp_path / "m.csmx"
        save_matrix(path, {"x": np.array([[3.5]])})
        out = load_matrix(path)
        assert out["x"][0, 0] == 3.5

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"a": rng.normal(size=(100, 200)),
                "b": rng.normal(size=(3, 7)).astype(np.float32)}
        path = tmp_path / "m.csmx"
        save_matrix(path, mats)
        out = load_matrix(path)
        assert np.array_equal(out["a"], mats["a"])
        assert out["a"].dtype == np.float64
        assert np.array_equal(out["b"], mats["b"])
        assert out["b"].dtype == np.float64  # float32 input is widened

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.csmx"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.csmx"
        save_matrix(path, {"a": np.ones((10, 10))})
        path.write_bytes(path.read_bytes()[:-60])
        with pytest.raises(DataError):
            load_matrix(path)

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "m.csmx"
        save_matrix(path, {"a": np.ones((4, 4))})
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            load_matrix(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "m.csmx"
        save_matrix(path, {"a": np.ones((2, 2))})
        raw = bytearray(path.read_bytes())
        raw[12 + 2 + 1 + 16] = 2  # after the header, name length, name and shape
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="unknown dtype code 2 in section 'a'"):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError, match="non-finite"):
            save_matrix(tmp_path / "m.csmx", {"a": np.array([[np.nan]])})

    def test_failed_save_leaves_earlier_file(self, tmp_path):
        """Every section is checked before the file is touched: a non-finite
        later section leaves no temp file and the earlier file unchanged."""
        path = tmp_path / "m.csmx"
        save_matrix(path, {"a": np.ones((2, 3))})
        before = path.read_bytes()
        with pytest.raises(DataError, match="section 'b' contains non-finite values"):
            save_matrix(path, {"a": np.zeros((4, 4)), "b": np.array([[1.0, np.inf]])})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csmx"]

    def test_load_holds_each_payload_once(self, tmp_path):
        """Payloads are read straight into their arrays: a load never holds
        the file's bytes beside the matrices built from them."""
        rng = np.random.default_rng(0)
        mats = {"a": rng.normal(size=(1280, 1024)), "b": rng.normal(size=(1024, 1280))}
        path = tmp_path / "m.csmx"
        save_matrix(path, mats)
        size = os.path.getsize(path)  # 20 MiB
        tracemalloc.start()
        try:
            out = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size, peak / size
        assert all(np.array_equal(out[k], mats[k]) for k in mats)

    def test_layout(self, tmp_path):
        """Header, then per section: name length, name, shape, dtype code,
        little-endian float64 payload and its CRC32."""
        a = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "m.csmx"
        save_matrix(path, {"a": a, "bc": np.zeros((0, 2))})
        payload = a.astype("<f8").tobytes()
        assert path.read_bytes() == (
            b"CSMX" + struct.pack("<II", 1, 2)
            + struct.pack("<H", 1) + b"a" + struct.pack("<QQB", 2, 3, 1)
            + payload + struct.pack("<I", zlib.crc32(payload))
            + struct.pack("<H", 2) + b"bc" + struct.pack("<QQB", 0, 2, 1)
            + struct.pack("<I", zlib.crc32(b"")))

    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), seed=st.integers(0, 50))
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        mat = np.random.default_rng(seed).normal(size=(rows, cols))
        path = tmp_path_factory.mktemp("csmx") / "m.csmx"
        save_matrix(path, {"m": mat})
        assert np.array_equal(load_matrix(path)["m"], mat)


class TestIds:
    def test_round_trip(self, tmp_path):
        ids = ["u1", "artist x", "söng"]
        save_ids(tmp_path / "x.ids", ids)
        assert load_ids(tmp_path / "x.ids") == ids

    def test_failed_save_leaves_earlier_file(self, tmp_path):
        """An id list that fails part-way through is never seen at the path."""
        path = tmp_path / "x.ids"
        save_ids(path, ["a", "b"])
        with pytest.raises(TypeError):
            save_ids(path, ["c", None])
        assert load_ids(path) == ["a", "b"]
        assert os.listdir(tmp_path) == ["x.ids"]


class TestParams:
    def test_round_trip_preserves_shapes(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {
            "trunk/0": {"W": rng.normal(size=(5, 3)), "b": rng.normal(size=3)},
            "trunk/2": {"W": rng.normal(size=(4, 2, 3)), "b": rng.normal(size=4)},
            "artist/1": {"gamma": np.ones(6), "beta": np.zeros(6),
                         "running_mean": rng.normal(size=6),
                         "running_var": np.abs(rng.normal(size=6))},
        }
        path = tmp_path / "p.csmx"
        save_params(path, params)
        out = load_params(path)
        assert set(out) == set(params)
        for layer in params:
            assert set(out[layer]) == set(params[layer])
            for key in params[layer]:
                assert np.array_equal(out[layer][key], params[layer][key])
                assert out[layer][key].shape == params[layer][key].shape

    @pytest.mark.parametrize("name", ["rows", "trunk/0:W:2:x,3", "trunk/0:W:3:2,3",
                                      "trunk/0:W:2:4,3"],
                             ids=["foreign", "bad-shape", "bad-ndim", "short-payload"])
    def test_section_that_is_not_a_tensor_names_file_and_section(self, tmp_path, name):
        path = tmp_path / "p.csmx"
        save_matrix(path, {name: np.ones((2, 3))})
        with pytest.raises(DataError, match=re.escape(f"{path}: section {name!r} does not name "
                                                      f"a layer:key:ndim:shape tensor of its "
                                                      f"2x3 payload")):
            load_params(path)
