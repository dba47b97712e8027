"""2-D convolution family: regular, grouped, depthwise-separable; plus the
bilinear and transposed-convolution upsamplers and 2x2 max pooling.

All convolutions are stride 1 with zero "same" padding and odd kernels, so
spatial dimensions are preserved. Every variant runs on one shifted-tap
kernel, `_correlate`. The input's zero-padded rows are laid end to end, so
tap (di, dj) is a contiguous slice at offset di*Wp + dj (Wp the padded
width), and the output is k*k stacked GEMMs on the padded-width grid, with
no patch matrix.

The kernel walks that grid in blocks of whole output rows, of at most
_BLOCK_COLS = 4096 columns unless one row is wider (Goto & van de Geijn,
ACM TOMS 2008), so a block's tap products and running sum stay in L2 cache.
Each sum is cropped to the W valid columns, plus bias, straight into the
output. numpy issues one BLAS call per batch item and group, and the split
depends on the map alone, never on the batch size N, so a batch item gets
exactly the calls it gets on its own and results are bitwise independent of
batching. (A split that moved with N would break this: a matrix-vector
product, one output channel per group, can round a column differently by
its place in the call.) The input gradient is the same kernel run on the
zero-padded upstream gradient, with transposed taps at mirrored offsets; the
weight gradient walks the same blocks; an input that needs no gradient (the
image) gets none. The transposed upsampler runs on the same kernel, as n*n
phase convolutions followed by a pixel shuffle.

A taped conv keeps nothing for its backward but its output and references
to its input and weights: the backward re-pads the input (at padding 0 a
reshape, not a copy) instead of holding the forward's padded copy.

The kernel counts no multiply-adds itself (the phase form runs zero taps);
each layer reports its logical count.

Max pooling keeps no argmax array. Its forward pass is the max of each column
pair, then of each row pair; its backward rebuilds the routing mask from the
saved input and output, sending each window's gradient to the first slot, in
row-major order, that equals the maximum.
"""
from __future__ import annotations

import functools

import numpy as np

from . import metering
from .tensor import (ContractError, ShapeError, Tensor, op_result, record, uniform_param,
                     zeros, _match_precision)

CONV_VARIANTS = ("regular", "grouped", "depthwise_separable")


class ConvSpec:
    """A convolution layer: variant, geometry, and its weight/bias tensors.

    regular               weight (C_out, C_in, k, k)
    grouped               weight (C_out, C_in/groups, k, k)
    depthwise_separable   weight (C_in, 1, k, k) + point_weight (C_out, C_in, 1, 1)

    Bias is one scalar per output channel (attached to the pointwise stage
    for the separable variant) and is initialized to zero. Weights use
    fan-in-scaled uniform initialization from the provided generator.
    """

    def __init__(self, variant: str, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, groups: int = 1, bias: bool = True,
                 precision: str = "single"):
        if variant not in CONV_VARIANTS:
            raise ContractError(f"unknown conv variant {variant!r}")
        if kernel < 1 or kernel % 2 == 0:
            raise ContractError(f"kernel must be odd and positive, got {kernel}")
        if in_channels < 1 or out_channels < 1:
            raise ContractError("channel counts must be positive")
        if variant == "regular":
            groups = 1
        if variant == "grouped":
            if groups < 1 or in_channels % groups or out_channels % groups:
                raise ContractError(
                    f"groups={groups} must divide in={in_channels} and out={out_channels}")
        self.variant = variant
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.groups = groups
        self.point_weight: Tensor | None = None

        if variant == "depthwise_separable":
            self.weight = uniform_param((in_channels, 1, kernel, kernel),
                                        fan_in=kernel * kernel, rng=rng, precision=precision)
            self.point_weight = uniform_param((out_channels, in_channels, 1, 1),
                                              fan_in=in_channels, rng=rng, precision=precision)
        else:
            fan_in = (in_channels // groups) * kernel * kernel
            self.weight = uniform_param((out_channels, in_channels // groups, kernel, kernel),
                                        fan_in=fan_in, rng=rng, precision=precision)
        self.bias = zeros((out_channels,), precision=precision, requires_grad=True) if bias else None

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [("weight", self.weight)]
        if self.point_weight is not None:
            out.append(("point_weight", self.point_weight))
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self)


# Padded-width columns per block at most: a block's tap product and running
# sum (float32, batch 4, 8 channels: 512 KiB each) stay in L2. Not scaled by
# N, which would break bitwise batch invariance (see the module docstring).
_BLOCK_COLS = 4096


def _block_rows(H: int, Wp: int) -> int:
    """Output rows per block: H rows of Wp padded-width columns split evenly
    into as few blocks as keep each within _BLOCK_COLS (one row at least)."""
    n_blocks = -(-H * Wp // _BLOCK_COLS)
    return -(-H // n_blocks)


def _pad_flat(a: np.ndarray, groups: int, p: int) -> np.ndarray:
    """(N, C, H, W) as (N, G, C/G, (H+2p)(W+2p) + 2p): zero-padded rows laid end
    to end, plus 2p zeros so the last tap's slice stays in bounds. At p = 0 it
    is a reshape of `a`."""
    N, C, H, W = a.shape
    if p == 0:
        return a.reshape(N, groups, C // groups, H * W)
    Hp, Wp = H + 2 * p, W + 2 * p
    flat = np.zeros((N, groups, C // groups, Hp * Wp + 2 * p), dtype=a.dtype)
    flat[..., :Hp * Wp].reshape(N, C, Hp, Wp)[:, :, p:p + H, p:p + W] = a
    return flat


def _tap_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One tap's stacked product a @ b into `out`. At inner dimension 1 it is a
    broadcast multiply: the same products, without matmul's slow path there."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _correlate(src: np.ndarray, taps: np.ndarray, offsets: list[int], out: np.ndarray,
               Wp: int, bias) -> None:
    """out[n, (g, o), i, j] = bias + sum_t (taps[t, g] @ src[n, g, :, offsets[t] + i*Wp + j])[o].

    Walks the output rows in blocks of _block_rows: each block's k*k tap
    products go to one block-sized temporary and add, in tap order, into a
    block-sized sum, which is cropped to the W valid columns, plus `bias`, into
    `out` (N, C, H, W). `bias=None` copies the sum as it is.
    """
    N, C, H, W = out.shape
    G, c = taps.shape[1:3]
    rows = _block_rows(H, Wp)
    full = np.empty((N, G, c, min(rows, H) * Wp), dtype=out.dtype)
    full_tmp = np.empty_like(full)
    for r0 in range(0, H, rows):
        r1 = min(r0 + rows, H)
        c0, c1 = r0 * Wp, r1 * Wp
        acc, tmp = full, full_tmp
        if c1 - c0 < full.shape[-1]:
            # contiguous views of the last block: matmul cannot write a strided `out` with BLAS
            acc = full.reshape(-1)[:N * C * (c1 - c0)].reshape(N, G, c, c1 - c0)
            tmp = full_tmp.reshape(-1)[:acc.size].reshape(acc.shape)
        _tap_product(taps[0], src[..., offsets[0] + c0:offsets[0] + c1], acc)
        for t in range(1, len(offsets)):
            acc += _tap_product(taps[t], src[..., offsets[t] + c0:offsets[t] + c1], tmp)
        block = acc.reshape(N, C, r1 - r0, Wp)[..., :W]
        if bias is None:
            out[:, :, r0:r1] = block
        else:
            np.add(block, bias, out=out[:, :, r0:r1])


def _grouped_conv(x: Tensor, weight: Tensor, bias: Tensor | None, groups: int,
                  op_name: str) -> Tensor:
    xd = x.data
    N, C, H, W = xd.shape
    C_out, ci_g, k, _ = weight.shape
    G, co_g, p = groups, C_out // groups, k // 2
    Wp = W + 2 * p
    offsets = [di * Wp + dj for di in range(k) for dj in range(k)]
    # (k*k, G, co_g, ci_g): contiguous, so every tap product is a BLAS call
    taps = np.ascontiguousarray(
        weight.data.reshape(G, co_g, ci_g, k * k).transpose(3, 0, 1, 2))
    out_data = np.empty((N, C_out, H, W), dtype=xd.dtype)
    _correlate(_pad_flat(xd, G, p), taps, offsets, out_data, Wp,
               None if bias is None else bias.data.reshape(1, C_out, 1, 1))
    need_gx, has_bias = x.requires_grad, bias is not None

    def fn(grad, acc):
        # The upstream gradient padded like the input: output column i*Wp + j
        # of the forward's grid sits at p*Wp + p + i*Wp + j.
        gf = _pad_flat(grad, G, p)
        if need_gx:
            # The adjoint correlates gf with the transposed taps at mirrored
            # offsets, in the same tap order. Adding +0.0 turns the -0 that
            # negative taps times a zero gradient can sum to into +0.0.
            gx = np.empty_like(xd)
            _correlate(gf, taps.transpose(0, 1, 3, 2), [offsets[-1] - off for off in offsets],
                       gx, Wp, 0.0)
            acc.add(0, gx)
        # Re-padded rather than kept from the forward, so a taped conv holds
        # no padded copy of its input.
        xf = _pad_flat(xd, G, p)
        g_wide = gf[..., p * Wp + p:]
        gw = np.zeros((k * k, N, G, co_g, ci_g), dtype=xd.dtype)
        rows = _block_rows(H, Wp)
        for r0 in range(0, H, rows):
            c0, c1 = r0 * Wp, min(r0 + rows, H) * Wp
            g_blk = g_wide[..., c0:c1]
            for t, off in enumerate(offsets):
                gw[t] += np.matmul(g_blk, xf[..., off + c0:off + c1].swapaxes(-1, -2))
        acc.add(1, gw.sum(axis=1).transpose(1, 2, 3, 0).reshape(C_out, ci_g, k, k))
        if has_bias:
            acc.add(2, grad.sum(axis=(0, 2, 3), dtype=xd.dtype))

    return op_result(op_name, (x, weight) + ((bias,) if has_bias else ()), out_data, fn)


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """Apply a ConvSpec: same padding, stride 1, spatial size preserved."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (N, C, H, W), got {x.shape}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"conv2d: input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    _match_precision(x, spec.weight, "conv2d")
    N, C, H, W = x.shape
    taps = N * H * W * spec.kernel * spec.kernel
    if spec.variant == "depthwise_separable":
        mid = _grouped_conv(x, spec.weight, None, C, "depthwise_conv")
        out = _grouped_conv(mid, spec.point_weight, spec.bias, 1, "pointwise_conv")
        metering.add_macs(taps * C + N * H * W * C * spec.out_channels)
        return out
    out = _grouped_conv(x, spec.weight, spec.bias, spec.groups, "conv2d")
    metering.add_macs(taps * C // spec.groups * spec.out_channels)
    return out


# ---------------------------------------------------------------------------
# Upsampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _axis_matrix(in_size: int, factor: int, dtype: np.dtype) -> np.ndarray:
    """(in_size*factor, in_size) half-pixel-aligned two-tap weights of one axis.
    Cached per (in_size, factor, dtype), so the array is read-only."""
    src = (np.arange(in_size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    i0 = np.floor(src).astype(np.int64)
    frac = (src - i0).astype(dtype)
    rows = np.arange(src.size)
    u = np.zeros((src.size, in_size), dtype=dtype)
    u[rows, i0] = 1.0 - frac
    u[rows, np.minimum(i0 + 1, in_size - 1)] += frac
    u.flags.writeable = False
    return u


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Bilinear interpolation by an integer factor with half-pixel centers.

    Source coordinate for output pixel d is (d + 0.5)/factor - 0.5, clamped
    to the valid range; factor 1 reproduces the input exactly. The filter is
    separable: with per-axis matrices Uy (Ho x H) and Ux (Wo x W), each
    (H, W) slice maps to Uy @ x @ Ux^T, and backward to Uy^T @ g @ Ux.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects (N, C, H, W), got {x.shape}")
    if factor < 1:
        raise ContractError(f"factor must be >= 1, got {factor}")
    xd = x.data
    uy = _axis_matrix(xd.shape[2], factor, xd.dtype)
    ux = _axis_matrix(xd.shape[3], factor, xd.dtype)

    def fn(g, acc):
        acc.add(0, uy.T @ g @ ux)

    return op_result("bilinear_upsample", (x,), uy @ xd @ ux.T, fn)


class TransposedConv:
    """Learned n-fold upsampling by transposed convolution.

    Kernel defaults to 2n with total zero padding kernel - n (split low/high),
    so the output is exactly n times the input in each spatial dimension.
    Runs on the shifted-tap kernel as n*n phase convolutions plus a pixel
    shuffle (see transposed_conv_upsample).
    """

    def __init__(self, in_channels: int, out_channels: int, factor: int,
                 rng: np.random.Generator, kernel: int | None = None,
                 precision: str = "single"):
        if factor < 1:
            raise ContractError(f"factor must be >= 1, got {factor}")
        kernel = 2 * factor if kernel is None else kernel
        if kernel < factor:
            raise ContractError(f"kernel {kernel} must be >= factor {factor}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.factor = factor
        self.kernel = kernel
        self.weight = uniform_param((in_channels, out_channels, kernel, kernel),
                                    fan_in=in_channels * kernel * kernel,
                                    rng=rng, precision=precision)
        self.bias = zeros((out_channels,), precision=precision, requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]

    def __call__(self, x: Tensor) -> Tensor:
        return transposed_conv_upsample(x, self)


def transposed_conv_upsample(x: Tensor, layer: TransposedConv) -> Tensor:
    """The transposed convolution as n*n phase convolutions plus a pixel shuffle.

    Output row n*m + phase receives input row m + d through kernel tap
    a = phase + lo - n*d, with lo = (k - n)//2, so each tap has exactly one
    (phase, d). The weight thus re-lays, zero-filled, into a phase weight
    (n*n*C_out, C, K, K) with K = 2*max|d| + 1 for the shifted-tap kernel;
    its output channel (co, py, px) is output pixel (n*i + py, n*j + px) of
    channel co.
    """
    if x.ndim != 4:
        raise ShapeError(f"transposed_conv_upsample expects (N, C, H, W), got {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"transposed conv: input has {x.shape[1]} channels, layer wants {layer.in_channels}")
    _match_precision(x, layer.weight, "transposed_conv_upsample")
    N, C, H, W = x.shape
    n, k, C_out = layer.factor, layer.kernel, layer.out_channels
    a = np.arange(k)
    phase = (a - (k - n) // 2) % n
    d = (phase + (k - n) // 2 - a) // n
    p = int(np.abs(d).max())
    tap, K = d + p, 2 * p + 1
    # (C_out, n, n, C, K, K) positions of the (k, k, C_out, C) kernel taps:
    # one-to-one, so the weight gradient is a gather of the phase gradient.
    where = (slice(None), phase[:, None], phase[None, :], slice(None), tap[:, None], tap[None, :])
    wide = np.zeros((C_out, n, n, C, K, K), dtype=x.data.dtype)
    wide[where] = layer.weight.data.transpose(2, 3, 1, 0)
    phase_weight = Tensor(wide.reshape(n * n * C_out, C, K, K))
    wide_shape = wide.shape
    record("transposed_phase_weight", (layer.weight,), phase_weight,
           lambda g, acc: acc.add(0, g.reshape(wide_shape)[where].transpose(3, 2, 0, 1)))

    phases = _grouped_conv(x, phase_weight, None, 1, "transposed_conv_upsample")
    metering.add_macs(N * H * W * C * C_out * k * k)

    # One strided copy per phase: a single 6-d transpose copy is ~3x slower.
    shuffled = np.empty((N, C_out, H, n, W, n), dtype=x.data.dtype)
    by_phase = phases.data.reshape(N, C_out, n, n, H, W)
    bias = layer.bias.data.reshape(1, C_out, 1, 1)
    for py in range(n):
        for px in range(n):
            np.add(by_phase[:, :, py, px], bias, out=shuffled[:, :, :, py, :, px])
    shuffled_shape, phases_shape, dtype = shuffled.shape, phases.shape, x.data.dtype

    def fn(g, acc):
        acc.add(0, g.reshape(shuffled_shape).transpose(0, 1, 3, 5, 2, 4)
                .reshape(phases_shape))
        acc.add(1, g.sum(axis=(0, 2, 3), dtype=dtype))

    return op_result("pixel_shuffle", (phases, layer.bias),
                     shuffled.reshape(N, C_out, n * H, n * W), fn)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first slot.

    Forward is the max of each column pair, then of each row pair: for window
    slots p = 2*di + dj that is max(max(s0, s1), max(s2, s3)). No argmax is
    kept. Backward rebuilds the routing from the saved input and output: each
    window's gradient goes to the first slot, in p order, equal to the maximum.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 expects (N, C, H, W), got {x.shape}")
    N, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    xd = x.data
    cols = np.maximum(xd[..., 0::2], xd[..., 1::2])
    out_data = np.maximum(cols[:, :, 0::2], cols[:, :, 1::2])

    def fn(g, acc):
        # slot p = 2*di + dj wins where it holds the max and no earlier slot
        # does (on bools, a > b is a and not b); slot 3 wins where none of 0-2 does
        hit = [xd[:, :, di::2, dj::2] == out_data for di, dj in ((0, 0), (0, 1), (1, 0))]
        top = hit[0] | hit[1]
        first = (hit[0], hit[1] > hit[0], hit[2] > top, ~(top | hit[2]))
        # a product, not a masked copy, keeps -0.0 where g < 0
        gx = np.empty_like(xd)
        for p, mask in enumerate(first):
            di, dj = divmod(p, 2)
            np.multiply(mask, g, out=gx[:, :, di::2, dj::2])
        acc.add(0, gx)

    return op_result("maxpool2", (x,), out_data, fn)
