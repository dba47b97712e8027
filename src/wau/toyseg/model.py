"""A small encoder-decoder segmentation net with a pluggable upsampler.

Encoder: depth blocks of [conv3, conv3, maxpool2], channel width doubling
per block, with a lateral tap before every pool. Decoder: one upsampling
stage per level (attention stages consume the matching lateral; the plain
baselines ignore it). Head: a 1x1 convolution to classes+1 logits at the
input resolution.
"""
from __future__ import annotations

import numpy as np

from .. import metering
from ..attention import WauConfig
from ..conv import ConvSpec, maxpool2
from ..stage import WadStage, build_stage
from ..tensor import ContractError, ShapeError, Tensor, relu


class EncoderBlock:
    def __init__(self, in_ch: int, out_ch: int, rng):
        self.conv1 = ConvSpec("regular", in_ch, out_ch, 3, rng)
        self.conv2 = ConvSpec("regular", out_ch, out_ch, 3, rng)

    def parameters(self):
        return ([(f"conv1.{n}", t) for n, t in self.conv1.parameters()] +
                [(f"conv2.{n}", t) for n, t in self.conv2.parameters()])

    def forward(self, x: Tensor) -> Tensor:
        return relu(self.conv2(relu(self.conv1(x))))


class ToyNet:
    """The segmentation net. Its parameters are built in float64 from stream
    (seed, 0); build_model_from_config casts them to `[train] precision`."""

    def __init__(self, depth: int, base_channels: int, upsampler: str, classes: int,
                 *, window: int = 4, heads: int = 4, proj_conv: str = "regular",
                 proj_groups: int = 1, proj_kernel: int = 3, out_kernel: int = 3,
                 in_channels: int = 1, seed: int = 0):
        if depth < 1:
            raise ContractError(f"depth must be >= 1, got {depth}")
        if classes < 1:
            raise ContractError(f"classes must be >= 1, got {classes}")
        self.depth = depth
        self.upsampler = upsampler
        self.classes = classes
        rng = np.random.default_rng([seed, 0])

        widths = [base_channels * (1 << i) for i in range(depth)]
        self.encoder: list[EncoderBlock] = []
        ch = in_channels
        for wch in widths:
            self.encoder.append(EncoderBlock(ch, wch, rng))
            ch = wch

        # Decoder runs bottom-up: stage i consumes lateral depth-1-i.
        cfg = WauConfig(ratio=2, window=window, heads=heads, proj_variant=proj_conv,
                        proj_groups=proj_groups, proj_kernel=proj_kernel,
                        out_kernel=out_kernel)
        self.decoder = []
        src_ch = widths[-1]
        for i in range(depth):
            stage = build_stage(upsampler, cfg, src_ch, widths[depth - 1 - i], rng,
                                layer_index=i)
            self.decoder.append(stage)
            src_ch = stage.out_channels

        self.head = ConvSpec("regular", src_ch, classes + 1, 1, rng)

    # -- parameters ----------------------------------------------------------

    def parameter_groups(self) -> dict[str, list[tuple[str, Tensor]]]:
        groups: dict[str, list[tuple[str, Tensor]]] = {"encoder": [], "decoder": [], "head": []}
        for i, blk in enumerate(self.encoder):
            groups["encoder"].extend(
                (f"encoder.block{i + 1}.{n}", t) for n, t in blk.parameters())
        for i, st in enumerate(self.decoder):
            groups["decoder"].extend(
                (f"decoder.stage{i + 1}.{n}", t) for n, t in st.parameters())
        groups["head"].extend((f"head.{n}", t) for n, t in self.head.parameters())
        return groups

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for group in self.parameter_groups().values():
            out.extend(group)
        return out

    # -- forward -------------------------------------------------------------

    def min_divisor(self) -> int:
        """Spatial divisibility the input must satisfy."""
        div = 1 << self.depth
        if isinstance(self.decoder[0], WadStage):
            # Deepest source map is input / 2^depth and must tile into windows.
            cfg_window = self.decoder[0].cfg.window
            div = max(div, cfg_window << self.depth)
        return div

    def forward(self, x: Tensor) -> Tensor:
        """Logits (N, classes+1, H, W).

        Inside `metering.recording()` each decoder stage's output is observed
        under "stage_output" as a copied array, and the attention stages add
        their "attention" records.
        """
        if x.ndim != 4:
            raise ShapeError(f"forward expects (N, C, H, W), got {x.shape}")
        h, w = x.shape[2], x.shape[3]
        div = 1 << self.depth
        if h % div or w % div:
            raise ShapeError(f"input {h}x{w} not divisible by 2^depth = {div}")
        laterals: list[Tensor] = []
        feats = x
        for blk in self.encoder:
            feats = blk.forward(feats)
            laterals.append(feats)
            feats = maxpool2(feats)

        z = feats
        for i, stage in enumerate(self.decoder):
            z = stage.forward(z, laterals[self.depth - 1 - i])
            metering.observe("stage_output", z.data.copy)
        return self.head(z)
