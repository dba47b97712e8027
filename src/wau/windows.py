"""Square window partitioning of feature maps into token blocks.

A map (N, C, H, W) splits into non-overlapping M x M windows ordered
batch-major then raster (top-left to bottom-right). Each window is a
channel-major block (C, M*M): one row per channel, tokens row-major within
the window, the layout attention consumes, so splitting a block into heads
is a free reshape. Partition and merge are exact inverse permutations of
the underlying scalars, so a round trip is bitwise lossless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, record


@dataclass
class WindowGrid:
    """Window token blocks plus the geometry needed to merge them back."""

    blocks: Tensor            # (num_windows, C, M*M), channel-major
    source_shape: tuple[int, int, int, int]
    window: int

    @property
    def tiles(self) -> tuple[int, int]:
        _, _, H, W = self.source_shape
        return H // self.window, W // self.window

    @property
    def num_windows(self) -> int:
        th, tw = self.tiles
        return self.source_shape[0] * th * tw

    def coords(self) -> list[tuple[int, int, int]]:
        """(batch, tile_row, tile_col) for each window, in block order."""
        th, tw = self.tiles
        return [(n, r, c)
                for n in range(self.source_shape[0])
                for r in range(th)
                for c in range(tw)]


def partition(x: Tensor, window: int) -> WindowGrid:
    if x.ndim != 4:
        raise ShapeError(f"partition expects (N, C, H, W), got {x.shape}")
    N, C, H, W = x.shape
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    if H % window or W % window:
        raise ShapeError(f"window {window} does not divide H={H}, W={W}")
    th, tw = H // window, W // window
    M = window
    out_data = (x.data.reshape(N, C, th, M, tw, M)
                .transpose(0, 2, 4, 1, 3, 5)
                .reshape(N * th * tw, C, M * M))
    out = Tensor(np.ascontiguousarray(out_data))

    def fn(g, acc):
        acc.add(x, g.reshape(N, th, tw, C, M, M)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(N, C, H, W))

    record("window_partition", (x,), out, fn)
    return WindowGrid(blocks=out, source_shape=(N, C, H, W), window=window)


def merge(grid: WindowGrid) -> Tensor:
    N, C, H, W = grid.source_shape
    M = grid.window
    th, tw = grid.tiles
    blocks = grid.blocks
    if blocks.shape != (N * th * tw, C, M * M):
        raise ShapeError(
            f"merge: blocks shape {blocks.shape} inconsistent with grid "
            f"{grid.source_shape} window {M}")
    out_data = (blocks.data.reshape(N, th, tw, C, M, M)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(N, C, H, W))
    out = Tensor(np.ascontiguousarray(out_data))

    def fn(g, acc):
        acc.add(blocks, g.reshape(N, C, th, M, tw, M)
                .transpose(0, 2, 4, 1, 3, 5)
                .reshape(N * th * tw, C, M * M))

    record("window_merge", (blocks,), out, fn)
    return out


def paired_partition(query_map: Tensor, kv_map: Tensor, kv_window: int,
                     ratio: int) -> tuple[WindowGrid, WindowGrid]:
    """Partition a query map and a kv map into spatially aligned windows.

    The query map must be exactly `ratio` times the kv map in each spatial
    dimension; query windows of size ratio*kv_window then cover the same
    image region as their kv counterparts, and the two grids have identical
    window counts in identical order.
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
    if kh % kv_window or kw % kv_window:
        raise ShapeError(f"window {kv_window} does not divide kv map {kh}x{kw}")
    qgrid = partition(query_map, ratio * kv_window)
    kgrid = partition(kv_map, kv_window)
    return qgrid, kgrid
