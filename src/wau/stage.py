"""Upsampling stages: one per decoder level, chosen by name from UPSAMPLERS.

The full attention upsampler adds a bilinear residual of the source map to
the windowed attention decode, so the attention branch starts as a learned
correction on top of plain interpolation. When the source channel count
differs from the stage's output width, a 1x1 convolution adapts the
bilinear branch; that adapter is an extension of this implementation, not
part of the operator as originally framed, and carries parameters the pure
residual form would not have. It runs at the source resolution, before the
interpolation: both maps are linear and every bilinear row sums to 1, so
this equals adapting the interpolated map, only rounded differently, with
ratio² times fewer adapter multiply-adds (4x at ratio 2) and a narrower map
to interpolate.

Every stage maps (source, lateral) to the upsampled tensor; the decoder that
chains them is ToyNet's. Attention weights are read through
`metering.recording()`, not through the stage's return value.
"""
from __future__ import annotations

import numpy as np

from .attention import AttentionDecoder, WauConfig
from .conv import ConvSpec, TransposedConv, bilinear_upsample
from .tensor import ContractError, Tensor, add

UPSAMPLERS = ("bilinear", "transposed", "wau", "wad_only")


class BilinearStage:
    """Parameter-free interpolation stage; ignores laterals."""

    def __init__(self, channels: int, ratio: int):
        self.ratio = ratio
        self.out_channels = channels

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []

    def forward(self, source: Tensor, lateral: Tensor | None = None) -> Tensor:
        return bilinear_upsample(source, self.ratio)


class TransposedStage:
    """Learned transposed-convolution stage; ignores laterals."""

    def __init__(self, in_channels: int, out_channels: int, ratio: int,
                 rng: np.random.Generator, precision: str = "single"):
        self.ratio = ratio
        self.out_channels = out_channels
        self.up = TransposedConv(in_channels, out_channels, ratio, rng, precision=precision)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"up.{n}", t) for n, t in self.up.parameters()]

    def forward(self, source: Tensor, lateral: Tensor | None = None) -> Tensor:
        return self.up(source)


class WadStage:
    """Windowed attention decoding without the bilinear residual."""

    def __init__(self, cfg: WauConfig, lateral_channels: int, source_channels: int,
                 rng: np.random.Generator, layer_index: int = 0):
        self.cfg = cfg
        self.ratio = cfg.ratio
        self.decoder = AttentionDecoder(cfg, lateral_channels, source_channels, rng,
                                        layer_index=layer_index)
        self.out_channels = self.decoder.embed_dim

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"attn.{n}", t) for n, t in self.decoder.parameters()]

    def forward(self, source: Tensor, lateral: Tensor | None = None) -> Tensor:
        if lateral is None:
            raise ContractError("attention stages need a lateral map")
        return self.decoder.wad_forward(lateral, source)


class WauStage(WadStage):
    """Windowed attention decode plus a bilinear residual of the source.

    With the attention output convolution zeroed, the stage reduces exactly
    to bilinear interpolation of the source (of the adapted source if an
    adapter is present).
    """

    def __init__(self, cfg: WauConfig, lateral_channels: int, source_channels: int,
                 rng: np.random.Generator, layer_index: int = 0):
        super().__init__(cfg, lateral_channels, source_channels, rng, layer_index=layer_index)
        self.residual_proj: ConvSpec | None = None
        if source_channels != self.out_channels:
            # Artifact extension: 1x1 adapter so the residual can be added.
            self.residual_proj = ConvSpec("regular", source_channels, self.out_channels,
                                          1, rng, precision=cfg.precision)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = super().parameters()
        if self.residual_proj is not None:
            out.extend((f"residual_proj.{n}", t) for n, t in self.residual_proj.parameters())
        return out

    def residual(self, source: Tensor) -> Tensor:
        if self.residual_proj is not None:
            source = self.residual_proj(source)
        return bilinear_upsample(source, self.ratio)

    def forward(self, source: Tensor, lateral: Tensor | None = None) -> Tensor:
        if lateral is None:
            raise ContractError("attention stages need a lateral map")
        attn = self.decoder.wad_forward(lateral, source)
        return add(attn, self.residual(source))


def build_stage(name: str, cfg: WauConfig, source_channels: int,
                lateral_channels: int, rng: np.random.Generator,
                layer_index: int = 0):
    """Construct upsampler `name` for one decoder level.

    `cfg` supplies the ratio and precision of every stage and the attention
    knobs of the attention stages. The transposed stage outputs the lateral
    width; bilinear keeps the source width.
    """
    cfg.validate()
    if name in ("wau", "wad_only"):
        cls = WauStage if name == "wau" else WadStage
        return cls(cfg, lateral_channels, source_channels, rng, layer_index=layer_index)
    if name == "bilinear":
        return BilinearStage(source_channels, cfg.ratio)
    if name == "transposed":
        return TransposedStage(source_channels, lateral_channels, cfg.ratio, rng,
                               precision=cfg.precision)
    raise ContractError(f"unknown upsampler {name!r}; expected one of {UPSAMPLERS}")
