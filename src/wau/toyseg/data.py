"""Synthetic segmentation data: noisy images of ellipses and rectangles.

Every sample is a pure function of (seed, index), so datasets regenerate
identically across runs and machines without touching disk. Class c paints
at intensity c/K on a zero background; with zero noise the mask is exactly
recoverable by thresholding, which pins down the labels-vs-image alignment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import ContractError


@dataclass
class SynthSample:
    image: np.ndarray   # (1, H, W) float32, channel first
    mask: np.ndarray    # (H, W)  integer labels in 0..K
    index: int


def _draw_shape(mask: np.ndarray, label: int, rng: np.random.Generator) -> None:
    h, w = mask.shape
    cy = rng.uniform(0.2 * h, 0.8 * h)
    cx = rng.uniform(0.2 * w, 0.8 * w)
    # Radii are kept small so foreground stays sparse (~10% of pixels):
    # that keeps an untrained or constant predictor near-chance (DSC well
    # below 0.3) and leaves headroom between chance and a trained net.
    ry = rng.uniform(0.08 * h, 0.18 * h)
    rx = rng.uniform(0.08 * w, 0.18 * w)
    yy, xx = np.ogrid[0:h, 0:w]
    if rng.integers(2) == 0:
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    else:
        inside = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
    mask[inside] = label


def make_sample(index: int, h: int, w: int, classes: int, seed: int,
                noise_sigma: float = 0.1) -> SynthSample:
    rng = np.random.default_rng([seed, index])
    mask = np.zeros((h, w), dtype=np.int64)
    for label in range(1, classes + 1):
        for _ in range(int(rng.integers(1, 4))):
            _draw_shape(mask, label, rng)
    image = (mask.astype(np.float64) / classes)
    if noise_sigma > 0:
        image = image + rng.normal(0.0, noise_sigma, size=(h, w))
    return SynthSample(image=image.astype(np.float32)[None], mask=mask, index=index)


def gen_dataset(count: int, h: int, w: int, classes: int, seed: int,
                noise_sigma: float = 0.1, start_index: int = 0) -> list[SynthSample]:
    """Generate `count` samples deterministic in (seed, start_index + i)."""
    if count < 0:
        raise ContractError(f"count must be >= 0, got {count}")
    if classes < 1:
        raise ContractError(f"classes must be >= 1, got {classes}")
    if h < 4 or w < 4:
        raise ContractError(f"images must be at least 4x4, got {h}x{w}")
    return [make_sample(start_index + i, h, w, classes, seed, noise_sigma)
            for i in range(count)]


def augment(image: np.ndarray, mask: np.ndarray, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray]:
    """Random 90-degree rotation and axis flips, applied jointly."""
    quarter = int(rng.integers(4))
    flip_v = bool(rng.integers(2))
    flip_h = bool(rng.integers(2))
    img, msk = image, mask
    if quarter:
        img = np.rot90(img, quarter, axes=(1, 2))
        msk = np.rot90(msk, quarter, axes=(0, 1))
    if flip_v:
        img = np.flip(img, axis=1)
        msk = np.flip(msk, axis=0)
    if flip_h:
        img = np.flip(img, axis=2)
        msk = np.flip(msk, axis=1)
    return np.ascontiguousarray(img), np.ascontiguousarray(msk)
