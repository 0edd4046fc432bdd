"""Binary container for named dense matrices, with id-list sidecars."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .data import DataError, replacing

MAGIC = b"CSMX"
VERSION = 1
_FLOAT64 = 1  # the one dtype code: every section is little-endian float64


def save_matrix(path, sections: dict[str, np.ndarray]) -> None:
    """Write named 2-D matrices as float64; payloads are row-major with a CRC32 each.

    Every section is checked before the file is touched, and the file is
    replaced atomically, so a failed save leaves an earlier file intact.
    """
    mats = {}
    for name, mat in sections.items():
        mat = np.ascontiguousarray(np.atleast_2d(np.asarray(mat, dtype="<f8")))
        if not np.all(np.isfinite(mat)):
            raise DataError(f"section {name!r} contains non-finite values")
        mats[name] = mat
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(mats)))
        for name, mat in mats.items():
            payload = memoryview(mat.reshape(-1))
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<QQB", mat.shape[0], mat.shape[1], _FLOAT64))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_matrix(path) -> dict[str, np.ndarray]:
    """Named matrices from a container; each payload is read straight into its array."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DataError(f"{path}: bad magic, not a matrix container")
        try:
            version, count = struct.unpack("<II", fh.read(8))
        except struct.error:
            raise DataError(f"{path}: truncated header") from None
        if version != VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size
        sections: dict[str, np.ndarray] = {}
        for _ in range(count):
            try:
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                rows, cols, code = struct.unpack("<QQB", fh.read(17))
            except (struct.error, UnicodeDecodeError):
                raise DataError(f"{path}: truncated or corrupt section header") from None
            if code != _FLOAT64:
                raise DataError(f"{path}: unknown dtype code {code} in section {name!r}")
            # checked before allocating, so a corrupt shape cannot ask for more than the file holds
            if rows * cols * 8 > size - fh.tell():
                raise DataError(f"{path}: truncated payload in section {name!r}")
            mat = np.empty((rows, cols), "<f8")
            fh.readinto(mat)
            try:
                (crc,) = struct.unpack("<I", fh.read(4))
            except struct.error:
                raise DataError(f"{path}: missing checksum for section {name!r}") from None
            if zlib.crc32(mat) != crc:
                raise DataError(f"{path}: checksum mismatch in section {name!r}")
            sections[name] = mat
    return sections


def save_ids(path, ids: list[str]) -> None:
    with replacing(path, "wb") as fh:
        fh.write("".join(i + "\n" for i in ids).encode("utf-8"))


def load_ids(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.rstrip("\n")]


def save_params(path, params: dict[str, dict[str, np.ndarray]]) -> None:
    """Persist a network ParamSet, one section per layer tensor."""
    sections = {}
    for layer, tensors in params.items():
        for key, value in tensors.items():
            arr = np.asarray(value)
            sections[f"{layer}:{key}:{arr.ndim}:" + ",".join(map(str, arr.shape))] = \
                arr.reshape(arr.shape[0] if arr.ndim else 1, -1)
    save_matrix(path, sections)


def load_params(path) -> dict[str, dict[str, np.ndarray]]:
    params: dict[str, dict[str, np.ndarray]] = {}
    for name, mat in load_matrix(path).items():
        layer, key, ndim, shape_s = name.rsplit(":", 3)
        shape = tuple(int(s) for s in shape_s.split(",")) if shape_s else ()
        params.setdefault(layer, {})[key] = mat.reshape(shape)
    return params
