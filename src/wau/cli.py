"""Command-line front end.

Verbs: gradcheck, flops, train, eval, export-viz. Every verb reads the same
INI config (all keys optional, defaults documented in config.py); eval and
export-viz default to the config echoed inside the checkpoint they load.
Exit codes: 0 success, 1 a check or run failed, 2 usage or config errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (AnalysisError, attention_flops, build_gradcheck_target,
                       gradcheck, measure)
from .config import ConfigError, RunConfig, parse_config
from .tensor import ContractError, NumericsError, ShapeError
from .toyseg.train import (TrainingAborted, TrainRun, build_model_from_config,
                           evaluate, load_parameters, resolve_checkpoint, train)
from .viz import export_attention, export_features

# Bad input: reported as "config error: ..." with exit code 2.
CONFIG_ERRORS = (ConfigError, ContractError, ShapeError)

FLOPS_HEADER = ("op,h2,w2,c,k,n,m2,flops_analytic,flops_measured,"
                "mem_analytic,mem_measured,attn_flops,flops_ratio")


def _load_config(args, default_from_checkpoint: bool = False) -> RunConfig:
    if args.config is not None:
        cfg = parse_config(args.config)
    elif default_from_checkpoint and getattr(args, "checkpoint", None):
        ckpt_cfg = resolve_checkpoint(args.checkpoint) / "config.ini"
        if not ckpt_cfg.is_file():
            raise ConfigError(f"checkpoint has no config.ini: {args.checkpoint}")
        cfg = parse_config(ckpt_cfg)
    else:
        cfg = RunConfig()
    if args.seed is not None:
        cfg.train.seed = args.seed
    return cfg


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    a = cfg.analysis
    forward, wrt = build_gradcheck_target(a.target, seed=cfg.train.seed)
    report = gradcheck(forward, wrt, step=a.step)
    print(report)
    if report.max_rel_error < a.threshold:
        print(f"PASS: max relative error {report.max_rel_error:.3e} "
              f"< threshold {a.threshold:.0e}")
        return 0
    print(f"FAIL: max relative error {report.max_rel_error:.3e} "
          f">= threshold {a.threshold:.0e}")
    return 1


def cmd_flops(args) -> int:
    cfg = _load_config(args)
    a = cfg.analysis
    points = a.sweep_points if args.sweep else 1
    m2 = a.window if a.op == "wad" else None
    # A window that divides h2 and w2 also divides every doubled sweep point.
    if m2 is not None and (a.h2 % m2 or a.w2 % m2):
        raise ConfigError(
            f"[analysis] window {m2} does not divide h2 x w2 = {a.h2}x{a.w2}")
    print(FLOPS_HEADER)
    prev = None
    for i in range(points):
        h2, w2 = a.h2 << i, a.w2 << i
        rep = measure(a.op, h2, w2, a.channels, a.kernel, a.ratio, m2=m2,
                      seed=cfg.train.seed)
        attn = attention_flops(h2, w2, a.channels, a.ratio, m2)
        ratio = "" if prev is None else repr(rep.analytic_flops / prev)
        print(f"{rep.csv_row()},{attn},{ratio}")
        if rep.analytic_mem_elems > a.mem_budget_elems:
            print(f"warning: {a.op} at h2={h2} w2={w2} holds "
                  f"{rep.analytic_mem_elems} intermediate elements, over the "
                  f"budget of {a.mem_budget_elems}", file=sys.stderr)
        prev = rep.analytic_flops
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    try:
        run = train(cfg, args.out, resume=args.resume)
    except TrainingAborted as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    print(f"finished {run.cfg.train.epochs} epochs; metrics at "
          f"{Path(args.out) / 'metrics.csv'}")
    if run.history:
        print(f"final row: {run.history[-1]}")
    print(f"checkpoint: {Path(args.out) / 'checkpoints' / 'final'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args, default_from_checkpoint=True)
    metrics = evaluate(cfg, args.checkpoint)
    print(f"val_dsc = {metrics['val_dsc']!r}")
    print(f"val_hd = {metrics['val_hd']!r}")
    return 0


def cmd_export_viz(args) -> int:
    cfg = _load_config(args, default_from_checkpoint=True)
    model = build_model_from_config(cfg)
    load_parameters(model, args.checkpoint)
    export = export_attention if args.attn else export_features
    result = export(model, cfg, args.sample, args.out)
    for note in result.notices:
        print(f"notice: {note}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wau",
        description="window-attention upsampling: checks, costs, training")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, out_default=None):
        sp.add_argument("--config", type=Path, default=None,
                        help="INI config path (defaults documented in config.py)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the [train] seed")
        if out_default is not None:
            sp.add_argument("--out", type=Path, default=Path(out_default),
                            help="output directory")

    sp = sub.add_parser("gradcheck", help="central-difference gradient audit")
    common(sp)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("flops", help="analytic vs measured cost report (CSV)")
    common(sp)
    sp.add_argument("--sweep", action="store_true",
                    help="double h2,w2 across [analysis] sweep_points rows")
    sp.set_defaults(fn=cmd_flops)

    sp = sub.add_parser("train", help="train the toy segmentation net")
    common(sp, out_default="train-out")
    sp.add_argument("--resume", type=Path, default=None,
                    help="checkpoint directory to continue from")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="validation metrics of a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", type=Path, required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("export-viz", help="attention / feature PGM export")
    common(sp, out_default="viz")
    sp.add_argument("--checkpoint", type=Path, required=True)
    sp.add_argument("--sample", type=int, default=0,
                    help="validation sample index")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--attn", action="store_true",
                      help="positive-window attention mosaics")
    mode.add_argument("--features", action="store_true",
                      help="channel-mean feature maps")
    sp.set_defaults(fn=cmd_export_viz)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, NumericsError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
