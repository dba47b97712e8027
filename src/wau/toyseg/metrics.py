"""Overlap and boundary metrics on integer label masks.

Conventions, fixed here and relied on by the trainer:
  dice   both masks empty -> 1.0 (perfect agreement on absence)
  hausdorff  both empty -> 0.0; exactly one empty -> the image diagonal
             sqrt((H-1)^2 + (W-1)^2), the largest possible distance.
Hausdorff is the exact symmetric max-min over all foreground pixel pairs,
scanned from source pixels outside the target to target boundary pixels
only, in blocks of bounded size, so memory does not grow with |A|*|B|.
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
    src pixels inside dst are at 0. For one outside, the nearest dst pixel's
    4-neighbour toward it lies in the image and outside dst, so only such edge
    pixels are scanned (off-image neighbours count as inside). Exact integers."""
    oy, ox = np.nonzero(src > dst)
    if len(oy) == 0:
        return 0
    inner = dst.copy()
    inner[1:] &= dst[:-1]
    inner[:-1] &= dst[1:]
    inner[:, 1:] &= dst[:, :-1]
    inner[:, :-1] &= dst[:, 1:]
    ey, ex = np.nonzero(dst > inner)
    worst = 0
    rows = max(1, BLOCK_PAIRS // len(ey))
    for lo in range(0, len(oy), rows):
        dy = oy[lo:lo + rows, None] - ey
        dx = ox[lo:lo + rows, None] - ex
        worst = max(worst, int((dy * dy + dx * dx).min(axis=1).max()))
    return worst


def hausdorff(pred: np.ndarray, target: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two boolean foreground masks."""
    if pred.shape != target.shape:
        raise ShapeError(f"hausdorff: shape mismatch {pred.shape} vs {target.shape}")
    a = np.asarray(pred, dtype=bool)
    b = np.asarray(target, dtype=bool)
    if not (a.any() and b.any()):
        h, w = pred.shape
        return float(np.hypot(h - 1, w - 1)) if a.any() or b.any() else 0.0
    return float(np.sqrt(max(_directed_sq(a, b), _directed_sq(b, a))))


def mean_hausdorff(pred: np.ndarray, target: np.ndarray, classes: int) -> float:
    """Mean per-class Hausdorff over foreground labels 1..classes."""
    return sum(hausdorff(pred == c, target == c) for c in range(1, classes + 1)) / classes
