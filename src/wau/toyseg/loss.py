"""Training objective: pixelwise cross-entropy plus soft Dice, weighted 1:1.

    L = CE + 1 - (1/K) Σ_{c=1..K} D_c,   CE = -(1/M) Σ y·log p,
    D_c = (2·Σ p_c·y_c + SMOOTH) / den_c,   den_c = Σ p_c + Σ y_c + SMOOTH

over the M = N·H·W pixels, with p the softmax of the (N, K+1, H, W) logits
over the class axis and y the one-hot masks. SMOOTH makes empty-vs-empty
agreement score 1 rather than divide by zero.

The loss is one tape op, "seg_loss". Its forward takes a single log-softmax
and gets p as its exp. Its backward, with g_p,c = -(2·y_c - D_c)/(K·den_c)
for c ≥ 1 and 0 for the background, is

    dz = p∘(g_p - Σ_c p_c·g_p,c) + (p - y)/M

and keeps only the log-probabilities and the per-class D_c and den_c. It
rebuilds the one-hot from a reference to the caller's integer masks, of any
integer dtype (generated masks come in `data.label_dtype`).
"""
from __future__ import annotations

import numpy as np

from ..tensor import ContractError, ShapeError, Tensor, op_result
from .data import label_dtype

SMOOTH = 1e-6


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

    z = logits.data
    pixels, dtype = n * h * w, z.dtype

    # Labels 0..classes in the generator's dtype, so its masks compare
    # without widening; other integer masks promote as usual.
    labels = np.arange(ch, dtype=label_dtype(classes))

    def one_hot() -> np.ndarray:
        return (masks[:, None] == labels.reshape(ch, 1, 1)).astype(dtype)

    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    onehot = one_hot()
    ce = -(log_probs * onehot).sum() / pixels
    fg_p, fg_y = np.exp(log_probs[:, 1:]), onehot[:, 1:]
    den = (fg_p.sum(axis=(0, 2, 3), keepdims=True) + fg_y.sum(axis=(0, 2, 3), keepdims=True)
           + SMOOTH)
    dice = (2 * (fg_p * fg_y).sum(axis=(0, 2, 3), keepdims=True) + SMOOTH) / den

    def fn(g, acc):
        onehot = one_hot()
        p = np.exp(log_probs)
        g_p = np.zeros_like(p)
        g_p[:, 1:] = (dice - 2 * onehot[:, 1:]) / (classes * den)
        g_p -= (p * g_p).sum(axis=1, keepdims=True)
        g_p *= p
        g_p += (p - onehot) / pixels
        acc.add(0, g_p * g)

    return op_result("seg_loss", (logits,), (ce + 1 - dice.mean()).reshape(1), fn)
