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
image) gets none.

The factor-n transposed upsampler is one tap op on the same kernel. Its
forward runs only each output phase's real taps, batched over the phases
where their taps are shifts of each other, and writes each block straight
into the interleaved output. Its backward is that of n*n zero-filled phase
convolutions, whose per-tap products keep their current rounding.

A taped conv keeps nothing for its backward but its output and references
to its input and weights: the backward re-pads the input (at padding 0 a
reshape, not a copy) instead of holding the forward's padded copy.

The kernel counts no multiply-adds itself (the transposed backward runs
zero taps); each layer reports its logical count.

Max pooling keeps no argmax array. Its forward pass is the max of each column
pair, then of each row pair; its backward rebuilds the routing mask from the
saved input and output, sending each window's gradient to the first slot, in
row-major order, that equals the maximum.
"""
from __future__ import annotations

import functools

import numpy as np

from . import metering
from .tensor import (ContractError, ShapeError, Tensor, op_result, uniform_param, zeros,
                     _match_precision)
from .tensor import record  # not called here; perfbench's tracer needs wau.conv.record

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


def _block_rows(H: int, Wp: int, cols: int = _BLOCK_COLS) -> int:
    """Output rows per block: H rows of Wp padded-width columns split evenly
    into as few blocks as keep each within `cols` (one row at least)."""
    n_blocks = -(-H * Wp // cols)
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
               Wp: int, bias, block_cols: int = _BLOCK_COLS) -> None:
    """out[n, g.., o, i, j] = bias + sum_t (taps[t, g..] @ src[n, g.., :, offsets[t] + i*Wp + j])[o].

    `g..` are the channel-block axes: a conv's groups, or the transposed
    upsampler's phases. Walks the output rows in blocks of at most
    `block_cols` padded-width columns: each block's tap products go to one
    block-sized temporary and add, in tap order, into a block-sized sum, which
    is cropped to the W valid columns, plus `bias`, into `out`: (N, C, H, W)
    with the channels in (g.., o) order, or split as (N, g.., o, H, W).
    `bias=None` copies the sum as it is.
    """
    lead, (H, W) = out.shape[:-2], out.shape[-2:]
    rows = _block_rows(H, Wp, block_cols)
    full = np.empty(lead[:1] + taps.shape[1:-1] + (min(rows, H) * Wp,), dtype=out.dtype)
    full_tmp = np.empty_like(full)
    for r0 in range(0, H, rows):
        r1 = min(r0 + rows, H)
        c0, c1 = r0 * Wp, r1 * Wp
        acc, tmp = full, full_tmp
        if c1 - c0 < full.shape[-1]:
            # contiguous views of the last block: matmul cannot write a strided `out` with BLAS
            acc = full.reshape(-1)[:full.size // full.shape[-1] * (c1 - c0)].reshape(
                full.shape[:-1] + (c1 - c0,))
            tmp = full_tmp.reshape(-1)[:acc.size].reshape(acc.shape)
        _tap_product(taps[0], src[..., offsets[0] + c0:offsets[0] + c1], acc)
        for t in range(1, len(offsets)):
            acc += _tap_product(taps[t], src[..., offsets[t] + c0:offsets[t] + c1], tmp)
        block = acc.reshape(lead + (r1 - r0, Wp))[..., :W]
        if bias is None:
            out[..., r0:r1, :] = block
        else:
            np.add(block, bias, out=out[..., r0:r1, :])


def _tap_grads(gf: np.ndarray, xd: np.ndarray, taps: np.ndarray, offsets: list[int],
               Wp: int, need_gx: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """The input gradient (None unless `need_gx`) and the per-tap weight
    gradient (k*k, G, co_g, ci_g) of a shifted-tap correlation of `xd` with
    `taps` (k*k, G, co_g, ci_g), from `gf`, its upstream gradient padded like
    the input: output column i*Wp + j of the forward's grid sits at p*Wp + p + i*Wp + j."""
    N, C, H, W = xd.shape
    G, p = taps.shape[1], (Wp - W) // 2
    gx = None
    if need_gx:
        # The adjoint correlates gf with the transposed taps at mirrored
        # offsets, in the same tap order. Adding +0.0 turns the -0 that
        # negative taps times a zero gradient can sum to into +0.0.
        gx = np.empty_like(xd)
        _correlate(gf, taps.transpose(0, 1, 3, 2), [offsets[-1] - off for off in offsets],
                   gx, Wp, 0.0)
    # Re-padded rather than kept from the forward, so a taped conv holds
    # no padded copy of its input.
    xf = _pad_flat(xd, G, p)
    g_wide = gf[..., p * Wp + p:]
    gw = np.zeros((len(offsets), N) + taps.shape[1:], dtype=xd.dtype)
    rows = _block_rows(H, Wp)
    for r0 in range(0, H, rows):
        c0, c1 = r0 * Wp, min(r0 + rows, H) * Wp
        g_blk = g_wide[..., c0:c1]
        for t, off in enumerate(offsets):
            gw[t] += np.matmul(g_blk, xf[..., off + c0:off + c1].swapaxes(-1, -2))
    return gx, gw.sum(axis=1)


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
        gx, gw = _tap_grads(_pad_flat(grad, G, p), xd, taps, offsets, Wp, need_gx)
        if need_gx:
            acc.add(0, gx)
        acc.add(1, gw.transpose(1, 2, 3, 0).reshape(C_out, ci_g, k, k))
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
    Runs on the shifted-tap kernel as one tap op over the n*n output phases
    (see transposed_conv_upsample).
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


def _phase_taps(n: int, k: int) -> tuple[np.ndarray, np.ndarray, int, list]:
    """One axis of a factor-n, kernel-k transposed convolution in phase form.

    Output row n*m + phase receives input row m + d through kernel tap
    a = phase + lo - n*d, with lo = (k - n)//2, so each tap has exactly one
    (phase, d). Returns each tap's phase and padded-input row d + p, the
    padding p = max|d|, and the phase groups the forward batches into one
    call: (first phase, row stride s, taps (phases, slots)), slot j of the
    group's i-th phase reading padded row row[taps[0, j]] + i*s. The phases
    form one group when their rows are such shifts of each other (factor 2,
    kernel 4: rows {0, 1} and {1, 2}); else each is its own group.
    """
    a = np.arange(k)
    phase = (a - (k - n) // 2) % n
    d = (phase + (k - n) // 2 - a) // n
    p = int(np.abs(d).max())
    row = d + p
    # within a phase d falls as a rises, so reversed taps read rows in ascending order
    by_phase = [a[phase == py][::-1] for py in range(n)]
    if k % n == 0:
        stacked = np.stack(by_phase)
        rows = row[stacked]
        s = int(rows[1, 0] - rows[0, 0]) if n > 1 else 0
        if (rows == rows[0] + s * np.arange(n)[:, None]).all():
            return phase, row, p, [(0, s, stacked)]
    return phase, row, p, [(py, 0, taps[None]) for py, taps in enumerate(by_phase)]


def transposed_conv_upsample(x: Tensor, layer: TransposedConv) -> Tensor:
    """The transposed convolution as one tap op over its n*n output phases.

    Output pixel (n*i + py, n*j + px) of channel co is phase (py, px): a
    stride-1 correlation of the input, padded by p (see _phase_taps), with
    only that phase's real taps, added in ascending (row, column) order of
    the input they read, plus the bias. The forward runs `_correlate` once
    per phase group, over a strided (phase_y, phase_x) view of the padded
    input, and writes each block straight into the shuffled output. The
    sums equal those of one conv over zero-filled (K, K) phase kernels,
    K = 2p + 1, bit for bit where C_out > 1 (at C_out = 1 BLAS can round a
    one-row product differently).

    The backward runs on those zero-filled phase taps: the upstream gradient
    padded into the phase-major layout in one copy, then the conv's input
    and weight gradients; the weight's is the gather at the real taps. Their
    GEMMs keep the zero rows, because OpenBLAS rounds a row of an (M x K)
    product by M once K is large (K = H*W for the weight gradient).
    """
    if x.ndim != 4:
        raise ShapeError(f"transposed_conv_upsample expects (N, C, H, W), got {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"transposed conv: input has {x.shape[1]} channels, layer wants {layer.in_channels}")
    _match_precision(x, layer.weight, "transposed_conv_upsample")
    xd, wd = x.data, layer.weight.data
    N, C, H, W = xd.shape
    n, k, C_out = layer.factor, layer.kernel, layer.out_channels
    phase, row, p, groups = _phase_taps(n, k)
    Hp, Wp = H + 2 * p, W + 2 * p
    xf = _pad_flat(xd, 1, p)
    item = xf.itemsize
    wt = wd.transpose(2, 3, 1, 0)                           # (k, k, C_out, C)
    out = np.empty((N, C_out, H, n, W, n), dtype=xd.dtype)
    by_phase = out.transpose(0, 3, 5, 1, 2, 4)              # (N, n, n, C_out, H, W)
    bias = layer.bias.data.reshape(C_out, 1, 1)
    for py0, sy, ay in groups:
        for px0, sx, ax in groups:
            (ny, ty), (nx, tx) = ay.shape, ax.shape
            taps = wt[ay.T[:, None, :, None], ax.T[None, :, None, :]].reshape(
                ty * tx, ny, nx, C_out, C)
            offsets = [ry * Wp + rx for ry in row[ay[0]] for rx in row[ax[0]]]
            # src[m, i, j, c, col] = xf[m, 0, c, col + i*sy*Wp + j*sx]
            src = np.lib.stride_tricks.as_strided(
                xf, (N, ny, nx, C, xf.shape[-1] - (ny - 1) * sy * Wp - (nx - 1) * sx),
                (xf.strides[0], sy * Wp * item, sx * item, xf.strides[2], item), writeable=False)
            # a block holds ny*nx phases of C_out rows: as many bytes as a conv's
            _correlate(src, taps, offsets, by_phase[:, py0:py0 + ny, px0:px0 + nx], Wp, bias,
                       _BLOCK_COLS // (ny * nx))
    metering.add_macs(N * H * W * C * C_out * k * k)
    need_gx, dtype, K = x.requires_grad, xd.dtype, 2 * p + 1
    # (K, K, C_out, n, n, C) positions of the (k, k, C_out, C) kernel taps:
    # one-to-one, so the weight gradient is a gather of the phase gradient.
    where = (row[:, None], row[None, :], slice(None), phase[:, None], phase[None, :])

    def fn(g, acc):
        gf = np.zeros((N, 1, n * n * C_out, Hp * Wp + 2 * p), dtype=dtype)
        gf[..., :Hp * Wp].reshape(N, C_out, n, n, Hp, Wp)[..., p:p + H, p:p + W] = \
            g.reshape(N, C_out, H, n, W, n).transpose(0, 1, 3, 5, 2, 4)
        wide = np.zeros((K, K, C_out, n, n, C), dtype=dtype)
        wide[where] = wd.transpose(2, 3, 1, 0)
        gx, gw = _tap_grads(gf, xd, wide.reshape(K * K, 1, n * n * C_out, C),
                            [di * Wp + dj for di in range(K) for dj in range(K)], Wp, need_gx)
        if need_gx:
            acc.add(0, gx)
        acc.add(1, gw.reshape(wide.shape)[where].transpose(3, 2, 0, 1))
        acc.add(2, g.sum(axis=(0, 2, 3), dtype=dtype))

    return op_result("transposed_conv_upsample", (x, layer.weight, layer.bias),
                     out.reshape(N, C_out, n * H, n * W), fn)


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
