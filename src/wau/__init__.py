"""Window-attention upsampling built on a from-scratch autodiff core.

The operator: queries come from a high-resolution lateral feature map,
keys/values from the low-resolution map being upsampled, attention is
restricted to aligned windows (query windows n times larger than key/value
windows so window counts match), and a bilinear branch is added as a
residual. Everything down to conv kernels, the backward pass, and the
optimizer is implemented here on plain numpy arrays, which is what makes
the closed-form cost accounting and the gradient audits exact.
"""
from .analysis import flops_ad, flops_wad, gradcheck, measure, mem_ad, mem_wad
from .attention import AttentionDecoder, AttentionRecord, WauConfig
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .conv import ConvSpec, bilinear_upsample, conv2d, transposed_conv_upsample
from .stage import UpsampleStack, UpsamplerKind, build_stage
from .tensor import ContractError, NumericsError, ShapeError, Tape, Tensor
from .windows import WindowGrid, merge, paired_partition, partition

__version__ = "0.1.0"

__all__ = [
    "AttentionDecoder", "AttentionRecord", "ConfigError", "ContractError",
    "ConvSpec", "NumericsError", "RunConfig", "ShapeError", "Tape", "Tensor",
    "UpsampleStack", "UpsamplerKind", "WauConfig", "WindowGrid",
    "bilinear_upsample", "build_stage", "conv2d", "flops_ad", "flops_wad",
    "gradcheck", "measure", "mem_ad", "mem_wad", "merge", "paired_partition",
    "parse_config", "partition", "serialize_config", "transposed_conv_upsample",
]
