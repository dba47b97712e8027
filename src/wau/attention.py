"""Cross-attention decoding: queries from a high-resolution lateral map,
keys and values from the low-resolution map being upsampled.

Both maps are layer-normalized over channels and projected by convolutions
(distinct weights for k and v) to the lateral width. Attention runs per
head over channel splits and restricts each query window to its spatially
aligned kv window. Global attention is the same decode with `window=None`:
one window spanning the whole map, so every query attends to every kv
position. A final convolution mixes the merged context map. No positional
encoding is added and windows are never shifted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metering
from .conv import ConvSpec
from .tensor import ContractError, ShapeError, Tensor, layer_norm, tensor, window_attention, zeros
from .windows import WindowGrid, merge, paired_partition, partition


@dataclass
class WauConfig:
    """Knobs for one upsampling stage.

    ratio   upsampling factor n (output is n times the source map)
    window  kv window size; query windows are ratio * window. None is one
            window spanning the source map: global attention
    heads   attention heads; must divide the lateral width
    """

    ratio: int = 2
    window: int | None = 4
    heads: int = 4
    proj_variant: str = "regular"
    proj_groups: int = 1
    proj_kernel: int = 3
    out_kernel: int = 3

    def validate(self) -> None:
        if self.ratio < 2:
            raise ContractError(f"ratio must be >= 2, got {self.ratio}")
        if self.window is not None and self.window < 1:
            raise ContractError(f"window must be >= 1, got {self.window}")
        if self.heads < 1:
            raise ContractError(f"heads must be >= 1, got {self.heads}")
        for k in (self.proj_kernel, self.out_kernel):
            if k < 1 or k % 2 == 0:
                raise ContractError(f"kernels must be odd and positive, got {k}")


@dataclass
class AttentionRecord:
    """Detached attention weights captured during one decode."""

    weights: np.ndarray  # (num_windows, heads, Tq, Tkv), windows batch-major raster
    layer_index: int
    ratio: int
    window: int | None
    heads: int
    query_shape: tuple[int, int, int, int]


class AttentionDecoder:
    """Parameters and forward passes for one attention decoding stage."""

    def __init__(self, cfg: WauConfig, lateral_channels: int, source_channels: int,
                 rng: np.random.Generator, layer_index: int = 0):
        cfg.validate()
        if lateral_channels % cfg.heads:
            raise ContractError(
                f"heads {cfg.heads} does not divide the lateral width {lateral_channels}")
        self.cfg = cfg
        self.embed_dim = lateral_channels
        self.lateral_channels = lateral_channels
        self.source_channels = source_channels
        self.layer_index = layer_index

        self.ln_q_gamma = tensor(np.ones(lateral_channels), requires_grad=True)
        self.ln_q_beta = zeros((lateral_channels,), requires_grad=True)
        self.ln_kv_gamma = tensor(np.ones(source_channels), requires_grad=True)
        self.ln_kv_beta = zeros((source_channels,), requires_grad=True)

        def proj(in_ch):
            return ConvSpec(cfg.proj_variant, in_ch, lateral_channels, cfg.proj_kernel, rng,
                            groups=cfg.proj_groups)

        self.q_proj = proj(lateral_channels)
        self.k_proj = proj(source_channels)
        self.v_proj = proj(source_channels)
        self.out_conv = ConvSpec("regular", lateral_channels, lateral_channels, cfg.out_kernel, rng)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [("ln_q.gamma", self.ln_q_gamma), ("ln_q.beta", self.ln_q_beta),
               ("ln_kv.gamma", self.ln_kv_gamma), ("ln_kv.beta", self.ln_kv_beta)]
        for prefix, spec in (("q_proj", self.q_proj), ("k_proj", self.k_proj),
                             ("v_proj", self.v_proj), ("out_conv", self.out_conv)):
            out.extend((f"{prefix}.{n}", t) for n, t in spec.parameters())
        return out

    # -- projections --------------------------------------------------------

    def project_qkv(self, lateral: Tensor, source: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Normalize both maps and project to q (lateral) and k, v (source)."""
        if lateral.shape[0] != source.shape[0]:
            raise ShapeError(
                f"batch sizes differ: lateral {lateral.shape} vs source {source.shape}")
        if lateral.shape[1] != self.lateral_channels:
            raise ShapeError(
                f"lateral has {lateral.shape[1]} channels, expected {self.lateral_channels}")
        if source.shape[1] != self.source_channels:
            raise ShapeError(
                f"source has {source.shape[1]} channels, expected {self.source_channels}")
        ln_lat = layer_norm(lateral, self.ln_q_gamma, self.ln_q_beta)
        ln_src = layer_norm(source, self.ln_kv_gamma, self.ln_kv_beta)
        with metering.tagged("proj_q"):
            q = self.q_proj(ln_lat)
        with metering.tagged("proj_k"):
            k = self.k_proj(ln_src)
        with metering.tagged("proj_v"):
            v = self.v_proj(ln_src)
        metering.track_buffer("q", q.size)
        metering.track_buffer("k", k.size)
        metering.track_buffer("v", v.size)
        return q, k, v

    def wad_forward(self, lateral: Tensor, source: Tensor) -> Tensor:
        """Windowed attention decode, global when `cfg.window` is None:
        (N, E, nH, nW) from source (N, C, H, W).

        Inside `metering.recording()` it observes an AttentionRecord under
        "attention".
        """
        q, k, v = self.project_qkv(lateral, source)
        window = self.cfg.window
        qgrid, kgrid = paired_partition(q, k, window, self.cfg.ratio)
        vgrid = partition(v, window)
        ctx, w = window_attention(qgrid.blocks, kgrid.blocks, vgrid.blocks, self.cfg.heads)
        feats = merge(WindowGrid(ctx, qgrid.source_shape, qgrid.window))
        metering.observe("attention", lambda: AttentionRecord(
            weights=w(), layer_index=self.layer_index,
            ratio=self.cfg.ratio, window=window, heads=self.cfg.heads,
            query_shape=feats.shape))
        with metering.tagged("out_conv"):
            out = self.out_conv(feats)
        metering.release_buffers()
        return out
