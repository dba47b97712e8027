"""Overlap and boundary metrics on integer label masks, and predicted labels.

Masks come in `data.label_dtype(K)` (uint8 up to 255 classes), and
`predicted_labels` turns logits into labels of that same dtype, so a
prediction and its target compare without widening either.

Conventions, fixed here and relied on by the trainer:
  dice   both masks empty -> 1.0 (perfect agreement on absence)
  hausdorff  both empty -> 0.0; exactly one empty -> the image diagonal
             sqrt((H-1)^2 + (W-1)^2), the largest possible distance.
Hausdorff is the exact symmetric max-min over all foreground pixel pairs.
Each directed term is separable (the first stage of the exact squared
Euclidean distance transform, Felzenszwalb & Huttenlocher 2012): per target
column, the squared vertical distance to that column's nearest target pixel;
then, per source pixel outside the target, a min over target columns of
(column gap)^2 plus that distance. Work is (source pixels outside the target)
* (target columns), in blocks of bounded size, so memory does not grow with
|A|*|B|, in the narrowest integer type that holds the squared image diagonal.
"""
from __future__ import annotations

import numpy as np

from ..tensor import ShapeError
from .data import label_dtype


def predicted_labels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel labels of (N, K+1, H, W) finite logits, in label_dtype(K).

    Equal to logits.argmax(axis=1), first maximum on ties: a channel takes a
    pixel only when it is strictly greater than every earlier channel there,
    so +0.0 never beats an earlier -0.0."""
    if logits.ndim != 4 or logits.shape[1] < 2:
        raise ShapeError(f"predicted_labels expects (N, K+1, H, W) logits with "
                         f"K >= 1, got {logits.shape}")
    ch = logits.shape[1]
    best = logits[:, 0]
    labels = np.greater(logits[:, 1], best).astype(label_dtype(ch - 1))
    for c in range(2, ch):
        best = np.maximum(best, logits[:, c - 1])
        labels[logits[:, c] > best] = c
    return labels


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
    min over dst columns x' of [(x-x')^2 + D[x', y]], where D[x', y] is the
    squared distance from row y to the nearest dst pixel in column x': a
    (columns, H) table from a running max down each dst column and a running
    min up it. Source pixels come in row-major order, so a (columns, pixels)
    block gathers D by repeating each row y by its pixel count. Integers are
    exact: int16 while (H-1)^2 + (W-1)^2 < 2^15, int32 below 2^31, else int64;
    flat indices (< H*W), gaps and sentinels (<= 2H) fit the same type."""
    out = np.flatnonzero(src > dst)
    if len(out) == 0:
        return 0
    h, w = dst.shape
    diag = (h - 1) ** 2 + (w - 1) ** 2
    dtype = np.int16 if diag < 1 << 15 else np.int32 if diag < 1 << 31 else np.int64
    oy, ox = np.divmod(out.astype(dtype), w)
    cols = np.flatnonzero(dst.any(axis=0)).astype(dtype)
    hit = dst.T[cols]
    ys = np.arange(h, dtype=dtype)
    # Each column holds a dst pixel, so a side with none (a sentinel at least h
    # away) never wins the min below.
    up = np.maximum.accumulate(np.where(hit, ys, -h), axis=1)
    down = np.minimum.accumulate(np.where(hit, ys, 2 * h)[:, ::-1], axis=1)[:, ::-1]
    table = np.minimum(ys - up, down - ys)
    table *= table
    worst = 0
    step = max(1, BLOCK_PAIRS // len(cols))
    for lo in range(0, len(oy), step):
        dist = cols[:, None] - ox[lo:lo + step]
        dist *= dist
        dist += np.repeat(table, np.bincount(oy[lo:lo + step], minlength=h), axis=1)
        worst = max(worst, int(np.minimum.reduce(dist, axis=0).max()))
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
