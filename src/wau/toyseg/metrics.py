"""Overlap and boundary metrics on integer label masks.

Conventions, fixed here and relied on by the trainer:
  dice   both masks empty -> 1.0 (perfect agreement on absence)
  hausdorff  both empty -> 0.0; exactly one empty -> the image diagonal
             sqrt((H-1)^2 + (W-1)^2), the largest possible distance.
Hausdorff is the exact symmetric max-min over all foreground pixel pairs.
Each directed term is separable (the first stage of the exact squared
Euclidean distance transform, Felzenszwalb & Huttenlocher 2012): per target
row, the squared horizontal distance to that row's nearest target pixel; then,
per source pixel outside the target, a min over target rows of (row gap)^2 plus
that distance. Work is (source pixels outside the target) * (target rows), in
blocks of bounded size, so memory does not grow with |A|*|B|.
"""
from __future__ import annotations

import numpy as np

from ..tensor import ShapeError


def dice_score(pred: np.ndarray, target: np.ndarray, label: int) -> float:
    if pred.shape != target.shape:
        raise ShapeError(f"dice: shape mismatch {pred.shape} vs {target.shape}")
    a = pred == label
    b = target == label
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (na + nb)


def mean_dice(pred: np.ndarray, target: np.ndarray, classes: int) -> float:
    """Mean Dice over foreground labels 1..classes."""
    return sum(dice_score(pred, target, c) for c in range(1, classes + 1)) / classes


BLOCK_PAIRS = 1 << 16


def _directed_sq(src: np.ndarray, dst: np.ndarray) -> int:
    """max over src pixels of the squared distance to the nearest dst pixel.

    src pixels inside dst are at 0. For one outside at (y, x),
    min over (y', x') in dst of (y-y')^2 + (x-x')^2 equals
    min over dst rows y' of [(y-y')^2 + D[y', x]], where D[y', x] is the squared
    distance from column x to the nearest dst pixel in row y'. D comes from a
    running max of dst columns from the left and a running min from the right,
    and is kept as a (W, rows) table so each source pixel gathers one
    contiguous row. Integers are exact: int32 while (H-1)^2 + (W-1)^2 < 2^31,
    else int64."""
    oy, ox = np.nonzero(src > dst)
    if len(oy) == 0:
        return 0
    h, w = dst.shape
    dtype = np.int32 if (h - 1) ** 2 + (w - 1) ** 2 < 1 << 31 else np.int64
    rows = np.flatnonzero(dst.any(axis=1)).astype(dtype)
    hit = dst[rows]
    cols = np.arange(w, dtype=dtype)
    # Each row holds a dst pixel, so a side with none (a sentinel at least w
    # away) never wins the min below.
    left = np.maximum.accumulate(np.where(hit, cols, -w), axis=1)
    right = np.minimum.accumulate(np.where(hit, cols, 2 * w)[:, ::-1], axis=1)[:, ::-1]
    gap = np.minimum(cols - left, right - cols)
    table = np.ascontiguousarray((gap * gap).T)
    oy = oy.astype(dtype)
    worst = 0
    step = max(1, BLOCK_PAIRS // len(rows))
    for lo in range(0, len(oy), step):
        dist = oy[lo:lo + step, None] - rows
        dist *= dist
        dist += table.take(ox[lo:lo + step], axis=0)
        worst = max(worst, int(dist.min(axis=1).max()))
    return worst


def hausdorff(pred: np.ndarray, target: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two boolean foreground masks."""
    if pred.shape != target.shape:
        raise ShapeError(f"hausdorff: shape mismatch {pred.shape} vs {target.shape}")
    if pred.ndim != 2:
        raise ShapeError(f"hausdorff: masks must be 2-D, got shape {pred.shape}")
    a = np.asarray(pred, dtype=bool)
    b = np.asarray(target, dtype=bool)
    if not (a.any() and b.any()):
        h, w = pred.shape
        return float(np.hypot(h - 1, w - 1)) if a.any() or b.any() else 0.0
    return float(np.sqrt(max(_directed_sq(a, b), _directed_sq(b, a))))


def mean_hausdorff(pred: np.ndarray, target: np.ndarray, classes: int) -> float:
    """Mean per-class Hausdorff over foreground labels 1..classes."""
    return sum(hausdorff(pred == c, target == c) for c in range(1, classes + 1)) / classes
