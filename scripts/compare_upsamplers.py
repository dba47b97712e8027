#!/usr/bin/env python3
"""Train the four upsampler variants on the same data and compare them.

Runs bilinear, transposed, wau, and wad_only back to back with identical
seed/schedule/data, then prints their final validation DSC/HD side by side
(the structural analog of the upsampling-operator ablation). Variant runs
land in <out>/<variant>/ with full metrics CSVs and checkpoints.
"""
from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wau.cli import CONFIG_ERRORS
from wau.config import RunConfig, parse_config
from wau.stage import UPSAMPLERS
from wau.toyseg.train import METRICS_HEADER, train

COLUMNS = METRICS_HEADER.split(",")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, default=None,
                    help="base INI config (upsampler key is overridden)")
    ap.add_argument("--out", type=Path, default=Path("compare-out"))
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    try:
        return compare(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def compare(args) -> int:
    base = parse_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        base.train.seed = args.seed

    results = {}
    for variant in UPSAMPLERS:
        cfg = copy.deepcopy(base)
        cfg.model.upsampler = variant
        t0 = time.time()
        run = train(cfg, args.out / variant)
        elapsed = time.time() - t0
        last = dict(zip(COLUMNS, run.history[-1].split(",")))
        results[variant] = (float(last["val_dsc"]), float(last["val_hd"]), elapsed)
        print(f"[{variant}] done in {elapsed:.1f}s")

    print()
    print(f"{'upsampler':<12} {'val_dsc':>10} {'val_hd':>10} {'seconds':>9}")
    for variant in UPSAMPLERS:
        dsc, hd, sec = results[variant]
        print(f"{variant:<12} {dsc:>10.4f} {hd:>10.4f} {sec:>9.1f}")
    ordering = sorted(UPSAMPLERS, key=lambda v: -results[v][0])
    print(f"\nDSC ordering: {' > '.join(ordering)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
