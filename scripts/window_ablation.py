#!/usr/bin/env python3
"""Window-size ablation: accuracy vs attention cost as M2 grows.

Trains the window-attention upsampler at several key/value window sizes on
identical data and reports, per size, the final validation DSC alongside
the per-stage attention multiply-add count from the closed form — the
accuracy/cost trade the window size buys. Window sizes must divide the
deepest decoder map (height / 2^depth).
"""
from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wau.analysis import flops_wad
from wau.cli import CONFIG_ERRORS
from wau.config import RunConfig, parse_config
from wau.toyseg.train import METRICS_HEADER, train

COLUMNS = METRICS_HEADER.split(",")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, default=None)
    ap.add_argument("--out", type=Path, default=Path("ablation-out"))
    ap.add_argument("--windows", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    if min(args.windows) < 1:
        ap.error(f"window sizes must be >= 1, got {min(args.windows)}")
    try:
        return ablate(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def ablate(args) -> int:
    base = parse_config(args.config) if args.config else RunConfig()
    base.model.upsampler = "wau"
    if args.seed is not None:
        base.train.seed = args.seed

    deepest = base.data.height >> base.model.depth
    rows = []
    for m2 in args.windows:
        if deepest % m2:
            print(f"[m2={m2}] skipped: does not divide the deepest map "
                  f"({deepest})", file=sys.stderr)
            continue
        cfg = copy.deepcopy(base)
        cfg.model.window = m2
        t0 = time.time()
        run = train(cfg, args.out / f"window{m2}")
        elapsed = time.time() - t0
        dsc = float(dict(zip(COLUMNS, run.history[-1].split(",")))["val_dsc"])
        # attention cost of the deepest decoder stage under the closed form
        c = base.model.base_channels << (base.model.depth - 1)
        cost = flops_wad(deepest, deepest, c, base.model.proj_kernel, 2, m2)
        rows.append((m2, dsc, cost, elapsed))
        print(f"[m2={m2}] done in {elapsed:.1f}s")

    print()
    print(f"{'window':>6} {'val_dsc':>10} {'stage_flops':>12} {'seconds':>9}")
    for m2, dsc, cost, sec in rows:
        print(f"{m2:>6} {dsc:>10.4f} {cost:>12} {sec:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
