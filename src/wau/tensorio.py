"""On-disk formats: raw tensor dumps and binary PGM images.

Tensor dump layout (little-endian throughout):
    4 bytes   magic "WAUT"
    1 byte    format version (currently 2)
    1 byte    dtype: 0 = single, 1 = double
    1 byte    rank r, 1..4
    r x u32   dimensions
    payload   raw scalars, row-major

Version 1 had no rank byte and stored four dimensions, padding lower ranks
with leading 1s, so (8,) and (1, 8) wrote the same header. It is still
read, as rank 4.

PGM output is binary (P5), one byte per pixel, min-max normalized; a
constant map renders as all 128 so "nothing to see" is visually distinct
from "black".
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tensor import ContractError, ShapeError

MAGIC = b"WAUT"
VERSION = 2
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_CODE:
        raise ContractError(f"dump supports float32/float64 only, got {arr.dtype}")
    if not 1 <= arr.ndim <= 4:
        raise ShapeError(f"dump supports rank 1..4, got shape {arr.shape}")
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBB", VERSION, _DTYPE_CODE[arr.dtype], arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(le).tobytes())


def read_tensor(path, shape=None) -> np.ndarray:
    """Read a tensor dump; with `shape`, its stored dims must be exactly that.

    A version-1 dump reads as rank 4, and `shape` is then compared padded
    with leading 1s to rank 4, the only form version 1 could store.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 7 or raw[:4] != MAGIC:
        raise ContractError(f"{path}: not a tensor dump (bad magic)")
    version, dcode = struct.unpack("<BB", raw[4:6])
    if version == 1:
        rank, start = 4, 6
    elif version == 2:
        rank, start = raw[6], 7
    else:
        raise ContractError(f"{path}: unsupported dump version {version}")
    if dcode not in _CODE_DTYPE:
        raise ContractError(f"{path}: unknown dtype code {dcode}")
    if not 1 <= rank <= 4:
        raise ContractError(f"{path}: rank {rank} outside 1..4")
    end = start + 4 * rank
    if len(raw) < end:
        raise ContractError(f"{path}: header truncated")
    dims = struct.unpack(f"<{rank}I", raw[start:end])
    if shape is not None:
        want = tuple(shape) if version > 1 else (1,) * (4 - len(shape)) + tuple(shape)
        if dims != want:
            raise ShapeError(f"{path}: stored as {dims}, expected {tuple(shape)}")
    dtype = _CODE_DTYPE[dcode]
    count = int(np.prod(dims))
    payload = raw[end:]
    if len(payload) != count * dtype.itemsize:
        raise ContractError(
            f"{path}: payload holds {len(payload)} bytes, header promises "
            f"{count * dtype.itemsize}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims if shape is None else shape)
    return np.ascontiguousarray(arr).astype(dtype.newbyteorder("="))


def write_pgm(path, values: np.ndarray) -> None:
    """Render a 2-D float map as a binary PGM with min-max normalization."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"PGM wants a 2-D map, got shape {values.shape}")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        pixels = np.rint(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        pixels = np.full(values.shape, 128, dtype=np.uint8)
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
