"""Training objective: pixelwise cross-entropy plus soft Dice, weighted 1:1.

The Dice term is 1 minus the mean soft Dice over foreground classes, with a
small smoothing constant so empty-vs-empty agreement scores 1 rather than
dividing by zero. Both terms are built from tape primitives, so the loss is
differentiable end to end.
"""
from __future__ import annotations

import numpy as np

from ..tensor import (ContractError, ShapeError, Tensor, add, add_scalar, channel_slice, div,
                      log_softmax_rows, mul, permute, scale, softmax_rows, sum_all, tensor)

SMOOTH = 1e-6


def _one_hot(masks: np.ndarray, classes: int, dtype) -> np.ndarray:
    n, h, w = masks.shape
    oh = np.zeros((n, classes + 1, h, w), dtype=dtype)
    for c in range(classes + 1):
        oh[:, c][masks == c] = 1.0
    return oh


def seg_loss(logits: Tensor, masks: np.ndarray, classes: int) -> Tensor:
    """Cross-entropy + (1 - mean soft Dice over classes 1..classes)."""
    if logits.ndim != 4:
        raise ShapeError(f"seg_loss expects (N, K+1, H, W) logits, got {logits.shape}")
    n, ch, h, w = logits.shape
    if ch != classes + 1:
        raise ShapeError(f"logits have {ch} channels, expected {classes + 1}")
    if masks.shape != (n, h, w):
        raise ShapeError(f"masks shape {masks.shape} does not match logits {logits.shape}")
    if masks.min() < 0 or masks.max() > classes:
        raise ContractError(f"mask labels outside 0..{classes}")

    onehot_data = _one_hot(masks, classes, logits.data.dtype)
    onehot = tensor(onehot_data, precision=logits.precision)

    # channel-last view so the row axis is the class axis
    ch_last = permute(logits, (0, 2, 3, 1))
    log_probs = permute(log_softmax_rows(ch_last), (0, 3, 1, 2))
    ce = scale(sum_all(mul(log_probs, onehot)), -1.0 / (n * h * w))

    probs = permute(softmax_rows(ch_last), (0, 3, 1, 2))
    dice_terms = None
    for c in range(1, classes + 1):
        p_c = channel_slice(probs, c)
        g_c = tensor(onehot_data[:, c:c + 1], precision=logits.precision)
        inter = sum_all(mul(p_c, g_c))
        denom = add(sum_all(p_c), sum_all(g_c))
        dice_c = div(add_scalar(scale(inter, 2.0), SMOOTH), add_scalar(denom, SMOOTH))
        dice_terms = dice_c if dice_terms is None else add(dice_terms, dice_c)
    mean_dice = scale(dice_terms, 1.0 / classes)
    dice_loss = add_scalar(scale(mean_dice, -1.0), 1.0)
    return add(ce, dice_loss)
