"""Shared fixtures and independent oracles.

The oracles here are deliberately naive — explicit nested loops over output
pixels — so they share no code path with the vectorized implementations
they check.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 groups: int = 1) -> np.ndarray:
    """Direct-summation convolution: same padding, stride 1, odd kernel."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, k, _ = w.shape
    pad = k // 2
    out = np.zeros((n, c_out, h, wd), dtype=np.float64)
    per_g_out = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            g = co // per_g_out
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for ci in range(c_in_g):
                        for ky in range(k):
                            for kx in range(k):
                                iy, ix = y + ky - pad, xx + kx - pad
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += (x[ni, g * c_in_g + ci, iy, ix]
                                            * w[co, ci, ky, kx])
                    out[ni, co, y, xx] = acc
            if b is not None:
                out[ni, co] += b[co]
    return out


def naive_bilinear(x: np.ndarray, factor: int) -> np.ndarray:
    """Per-output-pixel half-pixel bilinear interpolation."""
    n, c, h, w = x.shape
    oh, ow = h * factor, w * factor
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for y in range(oh):
        sy = min(max((y + 0.5) / factor - 0.5, 0.0), h - 1)
        y0, fy = int(np.floor(sy)), sy - np.floor(sy)
        y1 = min(y0 + 1, h - 1)
        for xx in range(ow):
            sx = min(max((xx + 0.5) / factor - 0.5, 0.0), w - 1)
            x0, fx = int(np.floor(sx)), sx - np.floor(sx)
            x1 = min(x0 + 1, w - 1)
            out[:, :, y, xx] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                + (1 - fy) * fx * x[:, :, y0, x1]
                                + fy * (1 - fx) * x[:, :, y1, x0]
                                + fy * fx * x[:, :, y1, x1])
    return out


def naive_transposed(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                     factor: int) -> np.ndarray:
    """Direct scatter transposed convolution, output-centred padding.

    Output pixel (y, x) receives input (i, j) through kernel tap (ky, kx)
    whenever y = i*factor - lo + ky with lo = (k - factor) // 2.
    """
    n, c_in, h, wd = x.shape
    _, c_out, k, _ = w.shape
    oh, ow = h * factor, wd * factor
    lo = (k - factor) // 2
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(c_in):
            for i in range(h):
                for j in range(wd):
                    for ky in range(k):
                        for kx in range(k):
                            y, xx = i * factor - lo + ky, j * factor - lo + kx
                            if 0 <= y < oh and 0 <= xx < ow:
                                out[ni, :, y, xx] += x[ni, ci, i, j] * w[ci, :, ky, kx]
    if b is not None:
        out += b[None, :, None, None]
    return out


def naive_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """Per block and head: softmax(q^T k / sqrt(d)) over keys, applied to v.

    q is (B, E, Tq) and k, v are (B, E, Tk), channel-major. Returns the
    (B, E, Tq) context and the (B, heads, Tq, Tk) weights.
    """
    B, E, Tq = q.shape
    d = E // heads
    out = np.empty_like(q)
    weights = np.empty((B, heads, Tq, k.shape[2]), dtype=q.dtype)
    for b in range(B):
        for h in range(heads):
            c = slice(h * d, (h + 1) * d)
            scores = q[b, c].T @ k[b, c] / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights[b, h] = e / e.sum(axis=1, keepdims=True)
            out[b, c] = v[b, c] @ weights[b, h].T
    return out, weights


def exhaustive_hausdorff(pred: np.ndarray, target: np.ndarray) -> float:
    """Symmetric Hausdorff distance by a full |A| x |B| scan of foreground pairs."""
    a = np.argwhere(pred).astype(np.float64)
    b = np.argwhere(target).astype(np.float64)
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        h, w = pred.shape
        return float(np.hypot(h - 1, w - 1))

    def directed_sq(src, dst):     # every pair, 256 source pixels at a time
        return max(float(((src[lo:lo + 256, None, :] - dst[None, :, :]) ** 2)
                         .sum(axis=2).min(axis=1).max()) for lo in range(0, len(src), 256))

    return float(np.sqrt(max(directed_sq(a, b), directed_sq(b, a))))
