"""Grayscale exports of what the decoder attends to and produces.

Two views of a trained segmentation net on one validation sample:

* attention maps — for each attention-bearing decoder stage, the recorded
  per-window weights are averaged over every window whose image footprint
  contains ground-truth-positive pixels (and over heads), giving one
  row-stochastic (M1^2, M2^2) matrix. It is rendered as an M1 x M1 mosaic
  of M2 x M2 tiles: tile (r, c) shows where query position (r, c) of the
  window looks inside the key/value window.
* feature maps — the channel mean of each decoder stage's output.

All images are binary PGM, min-max normalized per file (constant maps
render mid-gray). A sample whose ground truth selects no windows yields a
notice instead of a file.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metering
from .config import RunConfig
from .tensor import ContractError, tensor
from .tensorio import write_pgm
from .toyseg.data import make_sample
from .toyseg.model import ToyNet


@dataclass
class VizResult:
    """What one export produced: files written and stages skipped."""

    files: list[Path]
    notices: list[str]


def _val_sample(cfg: RunConfig, sample_index: int):
    d = cfg.data
    if not 0 <= sample_index < d.val_count:
        raise ContractError(
            f"sample index {sample_index} outside the validation split "
            f"[0, {d.val_count})")
    return make_sample(d.train_count + sample_index, d.height, d.width,
                       d.classes, cfg.train.seed, d.noise_sigma)


def _trace(model: ToyNet, cfg: RunConfig, sample_index: int):
    """Forward one validation sample; return it and the recorded values."""
    s = _val_sample(cfg, sample_index)
    x = tensor(s.image[None], precision=cfg.train.precision)
    with metering.recording() as trace:
        model.forward(x)
    return s, trace


def positive_window_mean(weights: np.ndarray, query_shape, ratio: int, window: int,
                         mask: np.ndarray) -> np.ndarray | None:
    """Average (heads and windows) of weights whose footprint hits the mask.

    The (N, th, tw) windows, batch-major raster, tile the query map in
    ratio*window squares; the query map covers the image of mask.shape, so
    window tile (tr, tc) covers the same tile of the mask in every batch
    item. Returns the (M1^2, M2^2) mean, or None when no window overlaps a
    positive pixel.
    """
    m1 = ratio * window
    n, th, tw = query_shape[0], query_shape[2] // m1, query_shape[3] // m1
    H, W = mask.shape
    hits = (mask > 0).reshape(th, H // th, tw, W // tw).any(axis=(1, 3))
    if not hits.any():
        return None
    tiles = weights.reshape((n, th, tw) + weights.shape[1:])
    return tiles[np.broadcast_to(hits, (n, th, tw))].mean(axis=(0, 1))


def attention_mosaic(mean_weights: np.ndarray, ratio: int, window: int) -> np.ndarray:
    """Lay out one (M1^2, M2^2) weight matrix as an M1-grid of M2-tiles."""
    m1, m2 = ratio * window, window
    if mean_weights.shape != (m1 * m1, m2 * m2):
        raise ContractError(
            f"weights shape {mean_weights.shape} does not match "
            f"window sizes ({m1 * m1}, {m2 * m2})")
    img = np.empty((m1 * m2, m1 * m2), dtype=np.float64)
    for q in range(m1 * m1):
        qr, qc = divmod(q, m1)
        img[qr * m2:(qr + 1) * m2, qc * m2:(qc + 1) * m2] = \
            mean_weights[q].reshape(m2, m2)
    return img


def export_attention(model: ToyNet, cfg: RunConfig, sample_index: int,
                     out_dir) -> VizResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sample, trace = _trace(model, cfg, sample_index)
    result = VizResult([], [])
    records = trace.get("attention", [])
    if not records:
        result.notices.append(
            "no attention-bearing decoder stages in this model")
        return result
    for rec in records:
        mean = positive_window_mean(rec.weights, rec.query_shape, rec.ratio, rec.window,
                                    sample.mask)
        stage = rec.layer_index + 1
        if mean is None:
            result.notices.append(
                f"stage{stage}: no window overlaps a positive pixel; skipped")
            continue
        path = out / f"stage{stage}_attn.pgm"
        write_pgm(path, attention_mosaic(mean, rec.ratio, rec.window))
        result.files.append(path)
    return result


def export_features(model: ToyNet, cfg: RunConfig, sample_index: int,
                    out_dir) -> VizResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, trace = _trace(model, cfg, sample_index)
    result = VizResult([], [])
    for i, stage_out in enumerate(trace["stage_output"]):
        path = out / f"stage{i + 1}_features.pgm"
        write_pgm(path, stage_out[0].mean(axis=0))
        result.files.append(path)
    return result
