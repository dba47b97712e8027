"""2-D convolution family: regular, grouped, depthwise-separable; plus the
bilinear and transposed-convolution upsamplers and 2x2 max pooling.

All convolutions are stride 1 with zero "same" padding and odd kernels, so
spatial dimensions are preserved. GEMMs are issued per batch item, which
keeps results bitwise independent of how many items are batched together.
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
    """(N, C, H+k-1, W+k-1) zero-padded input -> (N, H*W, C*k*k) patches."""
    N, C = xp.shape[:2]
    cols = np.empty((N, C, k * k, H, W), dtype=xp.dtype)
    idx = 0
    for di in range(k):
        for dj in range(k):
            cols[:, :, idx] = xp[:, :, di:di + H, dj:dj + W]
            idx += 1
    return cols.reshape(N, C * k * k, H * W).transpose(0, 2, 1)


def _col2im(gcols: np.ndarray, grad_xp: np.ndarray, k: int, H: int, W: int) -> None:
    """Scatter-add (N, H*W, C*k*k) patch gradients back into the padded map."""
    N = gcols.shape[0]
    C = grad_xp.shape[1]
    g = gcols.transpose(0, 2, 1).reshape(N, C, k * k, H, W)
    idx = 0
    for di in range(k):
        for dj in range(k):
            grad_xp[:, :, di:di + H, dj:dj + W] += g[:, :, idx]
            idx += 1


def _grouped_conv(x: Tensor, weight: Tensor, bias: Tensor | None, groups: int,
                  op_name: str) -> Tensor:
    xd = x.data
    N, C, H, W = xd.shape
    C_out, C_in_g, k, _ = weight.shape
    pad = k // 2
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_data = np.empty((N, C_out, H, W), dtype=xd.dtype)
    w_flat = [weight.data[g * (C_out // groups):(g + 1) * (C_out // groups)]
              .reshape(C_out // groups, -1).T for g in range(groups)]
    cols_by_group = []
    for g in range(groups):
        xg = xp[:, g * C_in_g:(g + 1) * C_in_g]
        cols = _im2col(xg, k, H, W)
        cols_by_group.append(cols)
        og = np.empty((N, H * W, C_out // groups), dtype=xd.dtype)
        for n in range(N):
            og[n] = cols[n] @ w_flat[g]
        out_data[:, g * (C_out // groups):(g + 1) * (C_out // groups)] = \
            og.transpose(0, 2, 1).reshape(N, C_out // groups, H, W)
    if bias is not None:
        out_data += bias.data.reshape(1, C_out, 1, 1)
    _check_finite(out_data, op_name)
    out = Tensor(out_data)

    metering.add_macs(N * H * W * C_in_g * k * k * C_out)

    def fn(grad, acc):
        gx = np.zeros_like(xp)
        gw = np.zeros_like(weight.data)
        co_g = C_out // groups
        for g in range(groups):
            g2 = grad[:, g * co_g:(g + 1) * co_g].reshape(N, co_g, H * W).transpose(0, 2, 1)
            cols = cols_by_group[g]
            gwg = np.zeros((C_in_g * k * k, co_g), dtype=xd.dtype)
            gcols = np.empty((N, H * W, C_in_g * k * k), dtype=xd.dtype)
            for n in range(N):
                gwg += cols[n].T @ g2[n]
                gcols[n] = g2[n] @ w_flat[g].T
            gw[g * co_g:(g + 1) * co_g] = gwg.T.reshape(co_g, C_in_g, k, k)
            _col2im(gcols, gx[:, g * C_in_g:(g + 1) * C_in_g], k, H, W)
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
        onehot = (np.arange(4, dtype=arg.dtype) == arg[..., None])
        gwin = onehot * g[..., None]
        gx = gwin.reshape(N, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5) \
            .reshape(N, C, H, W).astype(xd.dtype)
        acc.add(x, gx)

    record("maxpool2", (x,), out, fn)
    return out
