"""Window partitioning of feature maps into token blocks.

A map (N, C, H, W) splits into non-overlapping M x M windows ordered
batch-major then raster (top-left to bottom-right); a window of None is
one window spanning the whole map, H x W, which makes windowed attention
global attention. Each window is a channel-major block (C, tokens): one row
per channel, tokens row-major within the window, the layout attention
consumes, so splitting a block into heads is a free reshape. Partition and
merge are exact inverse permutations of the underlying scalars, so a round
trip is bitwise lossless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, record


@dataclass
class WindowGrid:
    """Window token blocks plus the geometry needed to merge them back."""

    blocks: Tensor            # (num_windows, C, tokens per window), channel-major
    source_shape: tuple[int, int, int, int]
    window: int | None        # None: one window spanning the map

    @property
    def size(self) -> tuple[int, int]:
        """Window height and width."""
        if self.window is None:
            return self.source_shape[2], self.source_shape[3]
        return self.window, self.window

    @property
    def tiles(self) -> tuple[int, int]:
        (_, _, H, W), (mh, mw) = self.source_shape, self.size
        return H // mh, W // mw

    @property
    def num_windows(self) -> int:
        th, tw = self.tiles
        return self.source_shape[0] * th * tw


def partition(x: Tensor, window: int | None) -> WindowGrid:
    if x.ndim != 4:
        raise ShapeError(f"partition expects (N, C, H, W), got {x.shape}")
    N, C, H, W = x.shape
    if window is not None:
        if window < 1:
            raise ShapeError(f"window must be >= 1, got {window}")
        if H % window or W % window:
            raise ShapeError(f"window {window} does not divide H={H}, W={W}")
    mh, mw = (H, W) if window is None else (window, window)
    th, tw = H // mh, W // mw
    out_data = (x.data.reshape(N, C, th, mh, tw, mw)
                .transpose(0, 2, 4, 1, 3, 5)
                .reshape(N * th * tw, C, mh * mw))
    out = Tensor(np.ascontiguousarray(out_data))

    def fn(g, acc):
        acc.add(0, g.reshape(N, th, tw, C, mh, mw)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(N, C, H, W))

    record("window_partition", (x,), out, fn)
    return WindowGrid(blocks=out, source_shape=(N, C, H, W), window=window)


def merge(grid: WindowGrid) -> Tensor:
    N, C, H, W = grid.source_shape
    (th, tw), (mh, mw) = grid.tiles, grid.size
    blocks = grid.blocks
    if blocks.shape != (N * th * tw, C, mh * mw):
        raise ShapeError(
            f"merge: blocks shape {blocks.shape} inconsistent with grid "
            f"{grid.source_shape} window {grid.window}")
    out_data = (blocks.data.reshape(N, th, tw, C, mh, mw)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(N, C, H, W))
    out = Tensor(np.ascontiguousarray(out_data))

    def fn(g, acc):
        acc.add(0, g.reshape(N, C, th, mh, tw, mw)
                .transpose(0, 2, 4, 1, 3, 5)
                .reshape(N * th * tw, C, mh * mw))

    record("window_merge", (blocks,), out, fn)
    return out


def paired_partition(query_map: Tensor, kv_map: Tensor, kv_window: int | None,
                     ratio: int) -> tuple[WindowGrid, WindowGrid]:
    """Partition a query map and a kv map into spatially aligned windows.

    The query map must be exactly `ratio` times the kv map in each spatial
    dimension; query windows of size ratio*kv_window then cover the same
    image region as their kv counterparts, and the two grids have identical
    window counts in identical order. A kv_window of None pairs the two
    whole maps.
    """
    if query_map.ndim != 4 or kv_map.ndim != 4:
        raise ShapeError("paired_partition expects rank-4 maps")
    qn, _, qh, qw = query_map.shape
    kn, _, kh, kw = kv_map.shape
    if qn != kn:
        raise ShapeError(f"batch sizes differ: {qn} vs {kn}")
    if qh != ratio * kh or qw != ratio * kw:
        raise ShapeError(
            f"query map {qh}x{qw} is not {ratio}x the kv map {kh}x{kw}")
    if kv_window is not None and (kh % kv_window or kw % kv_window):
        raise ShapeError(f"window {kv_window} does not divide kv map {kh}x{kw}")
    q_window = None if kv_window is None else ratio * kv_window
    return partition(query_map, q_window), partition(kv_map, kv_window)
