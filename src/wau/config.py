"""Run configuration: four dataclasses and a strict INI-style file format.

Files are `key = value` lines under [model], [train], [data], [analysis]
headers. Every key has a default, so any section (or the whole file) may be
omitted, but unknown sections or keys are hard errors: a typo must never
silently fall back to a default. parse/serialize round-trip exactly.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .conv import CONV_VARIANTS
from .stage import UPSAMPLERS
from .tensor import PRECISIONS


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass
class ModelConfig:
    depth: int = 2
    base_channels: int = 8
    in_channels: int = 1
    upsampler: str = "wau"          # bilinear | transposed | wau | wad_only
    heads: int = 4
    window: int = 4
    proj_conv: str = "regular"      # regular | grouped | depthwise_separable
    proj_groups: int = 1
    proj_kernel: int = 3
    out_kernel: int = 3


@dataclass
class DataConfig:
    train_count: int = 200
    val_count: int = 50
    height: int = 32
    width: int = 32
    classes: int = 1
    noise_sigma: float = 0.1


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 4
    lr: float = 1e-4
    warmup_epochs: int = 2
    seed: int = 0
    augment: bool = True
    precision: str = "single"
    checkpoint_every: int = 0       # steps; 0 = checkpoint only at the end


@dataclass
class AnalysisConfig:
    op: str = "wad"                 # ad | wad
    h2: int = 8
    w2: int = 8
    channels: int = 16
    kernel: int = 3
    ratio: int = 2
    window: int = 4
    sweep_points: int = 4
    mem_budget_elems: int = 2_000_000
    target: str = "wau_stage"       # gradcheck target, see analysis module
    step: float = 1e-5
    threshold: float = 1e-4


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


_SECTIONS = {"model": ModelConfig, "data": DataConfig,
             "train": TrainConfig, "analysis": AnalysisConfig}

_CHOICES = {
    ("model", "upsampler"): UPSAMPLERS,
    ("model", "proj_conv"): CONV_VARIANTS,
    ("train", "precision"): tuple(PRECISIONS),
    ("analysis", "op"): ("ad", "wad"),
}


def _convert(section: str, key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {target_type.__name__}")


def parse_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; expected one of "
                              f"{sorted(_SECTIONS)}")
        target = getattr(cfg, section)
        fields = {f.name: f.type for f in dataclasses.fields(target)}
        types = {f.name: type(getattr(target, f.name)) for f in dataclasses.fields(target)}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; expected one of "
                    f"{sorted(fields)}")
            value = _convert(section, key, raw, types[key])
            choices = _CHOICES.get((section, key))
            if choices and value not in choices:
                raise ConfigError(
                    f"[{section}] {key}: {value!r} not one of {choices}")
            setattr(target, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for section in _SECTIONS:
        part = getattr(cfg, section)
        for f in dataclasses.fields(part):
            v = getattr(part, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"[{section}] {f.name} must be finite, got {v}")
    m, d, t, a = cfg.model, cfg.data, cfg.train, cfg.analysis
    positive = {
        "[model] depth": m.depth, "[model] base_channels": m.base_channels,
        "[model] heads": m.heads, "[model] window": m.window,
        "[model] proj_groups": m.proj_groups,
        "[data] train_count": d.train_count, "[data] val_count": d.val_count,
        "[data] height": d.height, "[data] width": d.width,
        "[data] classes": d.classes,
        "[train] epochs": t.epochs, "[train] batch_size": t.batch_size,
        "[analysis] h2": a.h2, "[analysis] w2": a.w2,
        "[analysis] channels": a.channels, "[analysis] window": a.window,
        "[analysis] sweep_points": a.sweep_points,
    }
    for name, v in positive.items():
        if v < 1:
            raise ConfigError(f"{name} must be >= 1, got {v}")
    for name, v in (("[model] proj_kernel", m.proj_kernel),
                    ("[model] out_kernel", m.out_kernel),
                    ("[analysis] kernel", a.kernel)):
        if v < 1 or v % 2 == 0:
            raise ConfigError(f"{name} must be odd and positive, got {v}")
    if m.in_channels != 1:
        # Kept as a key because every checkpoint's config.ini carries it.
        raise ConfigError(
            f"[model] in_channels must be 1 (the generated images have one "
            f"channel), got {m.in_channels}")
    if t.lr <= 0:
        raise ConfigError(f"[train] lr must be positive, got {t.lr}")
    if t.warmup_epochs < 0 or t.warmup_epochs >= t.epochs:
        raise ConfigError(
            f"[train] warmup_epochs must lie in [0, epochs), got {t.warmup_epochs}")
    if t.checkpoint_every < 0:
        raise ConfigError(f"[train] checkpoint_every must be >= 0, got {t.checkpoint_every}")
    if d.noise_sigma < 0:
        raise ConfigError(f"[data] noise_sigma must be >= 0, got {d.noise_sigma}")
    if a.ratio < 2:
        raise ConfigError(f"[analysis] ratio must be >= 2, got {a.ratio}")
    if a.step <= 0 or a.threshold <= 0:
        raise ConfigError("[analysis] step and threshold must be positive")


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section in ("model", "data", "train", "analysis"):
        lines.append(f"[{section}]")
        for f in dataclasses.fields(getattr(cfg, section)):
            value = getattr(getattr(cfg, section), f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        lines.append("")
    return "\n".join(lines)
