"""2-D convolution family: regular, grouped, depthwise-separable; plus the
bilinear and transposed-convolution upsamplers and 2x2 max pooling.

All convolutions are stride 1 with zero "same" padding and odd kernels, so
spatial dimensions are preserved. Each group is one stacked matmul of its
weights with (N, C_in*k*k, H*W) im2col patches: one GEMM per batch item, so
results are bitwise independent of batching. Backward rebuilds the patches.
"""
from __future__ import annotations

import numpy as np

from . import metering
from .tensor import (ContractError, ShapeError, Tensor, record, uniform_param,
                     zeros, _check_finite, _match_precision)

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


def _im2col(xp: np.ndarray, k: int, H: int, W: int) -> np.ndarray:
    """(N, C, H+k-1, W+k-1) zero-padded input -> (N, C*k*k, H*W) patches (a view if k = 1)."""
    N, C = xp.shape[:2]
    if k == 1:
        return xp.reshape(N, C, H * W)
    cols = np.empty((N, C, k * k, H, W), dtype=xp.dtype)
    for idx in range(k * k):
        di, dj = divmod(idx, k)
        cols[:, :, idx] = xp[:, :, di:di + H, dj:dj + W]
    return cols.reshape(N, C * k * k, H * W)


def _col2im(gcols: np.ndarray, grad_xp: np.ndarray, k: int, H: int, W: int) -> None:
    """Scatter-add (N, C*k*k, H*W) patch gradients back into the padded map."""
    N, C = grad_xp.shape[:2]
    g = gcols.reshape(N, C, k * k, H, W)
    for idx in range(k * k):
        di, dj = divmod(idx, k)
        grad_xp[:, :, di:di + H, dj:dj + W] += g[:, :, idx]


def _grouped_conv(x: Tensor, weight: Tensor, bias: Tensor | None, groups: int,
                  op_name: str) -> Tensor:
    xd = x.data
    N, C, H, W = xd.shape
    C_out, C_in_g, k, _ = weight.shape
    co_g = C_out // groups
    pad = k // 2
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    w_flat = [weight.data[g * co_g:(g + 1) * co_g].reshape(co_g, -1) for g in range(groups)]

    def patches(g: int) -> np.ndarray:
        return _im2col(xp[:, g * C_in_g:(g + 1) * C_in_g], k, H, W)

    out_data = np.empty((N, C_out, H * W), dtype=xd.dtype)
    for g in range(groups):
        np.matmul(w_flat[g], patches(g), out=out_data[:, g * co_g:(g + 1) * co_g])
    out_data = out_data.reshape(N, C_out, H, W)
    if bias is not None:
        out_data += bias.data.reshape(1, C_out, 1, 1)
    _check_finite(out_data, op_name)
    out = Tensor(out_data)

    metering.add_macs(N * H * W * C_in_g * k * k * C_out)

    def fn(grad, acc):
        gx = np.zeros_like(xp)
        gw = np.empty_like(weight.data)
        grad3 = grad.reshape(N, C_out, H * W)
        for g in range(groups):
            gg = grad3[:, g * co_g:(g + 1) * co_g]
            gw[g * co_g:(g + 1) * co_g] = np.matmul(gg, patches(g).transpose(0, 2, 1)) \
                .sum(axis=0).reshape(co_g, C_in_g, k, k)
            _col2im(np.matmul(w_flat[g].T, gg), gx[:, g * C_in_g:(g + 1) * C_in_g], k, H, W)
        acc.add(x, gx[:, :, pad:pad + H, pad:pad + W] if pad else gx)
        acc.add(weight, gw)
        if bias is not None:
            acc.add(bias, grad.sum(axis=(0, 2, 3), dtype=xd.dtype))

    record(op_name, (x, weight) + ((bias,) if bias is not None else ()), out, fn)
    return out


def _depthwise_conv(x: Tensor, weight: Tensor) -> Tensor:
    xd = x.data
    N, C, H, W = xd.shape
    k = weight.shape[2]
    pad = k // 2
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_data = np.zeros((N, C, H, W), dtype=xd.dtype)
    for di in range(k):
        for dj in range(k):
            out_data += xp[:, :, di:di + H, dj:dj + W] * \
                weight.data[:, 0, di, dj].reshape(1, C, 1, 1)
    _check_finite(out_data, "depthwise_conv")
    out = Tensor(out_data)

    metering.add_macs(N * H * W * C * k * k)

    def fn(grad, acc):
        gx = np.zeros_like(xp)
        gw = np.zeros_like(weight.data)
        for di in range(k):
            for dj in range(k):
                gx[:, :, di:di + H, dj:dj + W] += grad * \
                    weight.data[:, 0, di, dj].reshape(1, C, 1, 1)
                gw[:, 0, di, dj] = (grad * xp[:, :, di:di + H, dj:dj + W]).sum(
                    axis=(0, 2, 3), dtype=xd.dtype)
        acc.add(x, gx[:, :, pad:pad + H, pad:pad + W] if pad else gx)
        acc.add(weight, gw)

    record("depthwise_conv", (x, weight), out, fn)
    return out


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """Apply a ConvSpec: same padding, stride 1, spatial size preserved."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (N, C, H, W), got {x.shape}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"conv2d: input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    _match_precision(x, spec.weight, "conv2d")
    if spec.variant == "depthwise_separable":
        mid = _depthwise_conv(x, spec.weight)
        return _grouped_conv(mid, spec.point_weight, spec.bias, 1, "pointwise_conv")
    return _grouped_conv(x, spec.weight, spec.bias, spec.groups, "conv2d")


# ---------------------------------------------------------------------------
# Upsampling
# ---------------------------------------------------------------------------

def _axis_matrix(in_size: int, factor: int, dtype) -> np.ndarray:
    """(in_size*factor, in_size) half-pixel-aligned two-tap weights of one axis."""
    src = (np.arange(in_size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    i0 = np.floor(src).astype(np.int64)
    frac = (src - i0).astype(dtype)
    rows = np.arange(src.size)
    u = np.zeros((src.size, in_size), dtype=dtype)
    u[rows, i0] = 1.0 - frac
    u[rows, np.minimum(i0 + 1, in_size - 1)] += frac
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
    out_data = uy @ xd @ ux.T
    _check_finite(out_data, "bilinear_upsample")
    out = Tensor(out_data)

    def fn(g, acc):
        acc.add(x, uy.T @ g @ ux)

    record("bilinear_upsample", (x,), out, fn)
    return out


class TransposedConv:
    """Learned n-fold upsampling by transposed convolution.

    Kernel defaults to 2n with total zero padding kernel - n (split low/high),
    so the output is exactly n times the input in each spatial dimension.
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
    if x.ndim != 4:
        raise ShapeError(f"transposed_conv_upsample expects (N, C, H, W), got {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"transposed conv: input has {x.shape[1]} channels, layer wants {layer.in_channels}")
    _match_precision(x, layer.weight, "transposed_conv_upsample")
    xd = x.data
    N, C, H, W = xd.shape
    n, k = layer.factor, layer.kernel
    lo = (k - n) // 2
    Ho, Wo = n * H, n * W
    wt = layer.weight.data
    C_out = layer.out_channels

    def spans(offset: int, in_size: int, out_size: int):
        # Input index range whose strided targets ro + n*i stay in bounds.
        ro = offset - lo
        i_start = -(ro // n) if ro < 0 else 0
        i_stop = min(in_size - 1, (out_size - 1 - ro) // n)
        return ro, i_start, i_stop

    out_data = np.zeros((N, C_out, Ho, Wo), dtype=xd.dtype)
    for a in range(k):
        ra, ia0, ia1 = spans(a, H, Ho)
        if ia1 < ia0:
            continue
        for b in range(k):
            rb, ib0, ib1 = spans(b, W, Wo)
            if ib1 < ib0:
                continue
            t = np.tensordot(xd[:, :, ia0:ia1 + 1, ib0:ib1 + 1], wt[:, :, a, b],
                             axes=([1], [0]))  # (N, h, w, C_out)
            out_data[:, :, ra + n * ia0:ra + n * ia1 + 1:n,
                     rb + n * ib0:rb + n * ib1 + 1:n] += t.transpose(0, 3, 1, 2)
    out_data += layer.bias.data.reshape(1, C_out, 1, 1)
    _check_finite(out_data, "transposed_conv_upsample")
    out = Tensor(out_data)

    metering.add_macs(N * H * W * C * C_out * k * k)

    def fn(g, acc):
        gx = np.zeros_like(xd)
        gw = np.zeros_like(wt)
        for a in range(k):
            ra, ia0, ia1 = spans(a, H, Ho)
            if ia1 < ia0:
                continue
            for b in range(k):
                rb, ib0, ib1 = spans(b, W, Wo)
                if ib1 < ib0:
                    continue
                gs = g[:, :, ra + n * ia0:ra + n * ia1 + 1:n,
                       rb + n * ib0:rb + n * ib1 + 1:n]  # (N, C_out, h, w)
                gx[:, :, ia0:ia1 + 1, ib0:ib1 + 1] += np.tensordot(
                    gs, wt[:, :, a, b], axes=([1], [1])).transpose(0, 3, 1, 2)
                gw[:, :, a, b] = np.tensordot(
                    xd[:, :, ia0:ia1 + 1, ib0:ib1 + 1], gs,
                    axes=([0, 2, 3], [0, 2, 3]))
        acc.add(x, gx)
        acc.add(layer.weight, gw)
        acc.add(layer.bias, g.sum(axis=(0, 2, 3), dtype=xd.dtype))

    record("transposed_conv_upsample", (x, layer.weight, layer.bias), out, fn)
    return out


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties resolve to the first position."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 expects (N, C, H, W), got {x.shape}")
    N, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    xd = x.data
    win = xd.reshape(N, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(N, C, H // 2, W // 2, 4)
    arg = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    _check_finite(out_data, "maxpool2")
    out = Tensor(out_data)

    def fn(g, acc):
        # window slot p = 2*di + dj; a product, not a masked copy, keeps -0.0 where g < 0
        gx = np.empty_like(xd)
        for p in range(4):
            di, dj = divmod(p, 2)
            np.multiply(arg == p, g, out=gx[:, :, di::2, dj::2])
        acc.add(x, gx)

    record("maxpool2", (x,), out, fn)
    return out
