"""Benchmark command: one workload, one seed, one process, one BLAS thread.

    python3 perfbench/run.py --workload train32 --seed 1 --seconds 50 --trace 0

Run from the repository root. `--trace 0` measures with nothing wrapped and
prints the end-to-end metrics; `--trace 1` alternates traced and untraced
operations, prints the per-layer metrics and the tracing overhead, and
writes the spans to .perfbench-out/. Human-readable lines come first; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Exit code 0 when every check passed, 1 when an
operation or check failed, 2 when the program's sources are missing.
See perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import ctypes
import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fix_allocator() -> str:
    """Keep freed large buffers in the process heap (glibc only).

    By default glibc maps each large numpy temporary fresh and unmaps it on
    free, so every train step at 128x128 page-faults its whole working set
    again. In a virtual machine that kernel time swung from 0.2 to 0.7 s per
    wau step, step to step, which swamped every other effect. With both
    thresholds at 1 GiB, buffers come from the heap and stay there.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    if mallopt(M_MMAP_THRESHOLD, 1 << 30) and mallopt(M_TRIM_THRESHOLD, 1 << 30):
        return "glibc mmap_threshold=trim_threshold=2^30"
    return "default (mallopt refused)"


ALLOCATOR = fix_allocator()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from names import BWD_OPS, END_TO_END, PER_LAYER, UPSAMPLERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build and warm up the workload, then exit (times setup_s)")
    return p.parse_args(argv)


def median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else float("nan")


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}, 10 beyond"


def time_setups(args) -> list[float]:
    """Wall time of fresh processes that start, import, build and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def rate(work_per_op: float, times: list[float]) -> float:
    """Work done per second of the time spent on it.

    Not work over the median time: on a shared host the speed of a stream
    can switch between two levels for seconds at a time, and a median then
    jumps between them from run to run, where the total follows the share
    of time spent at each.
    """
    return work_per_op * len(times) / sum(times)


def end_to_end(loop, setups: list[float], rss_mb: float) -> dict[str, float]:
    from workloads import BATCH, PAIR_CYCLE
    m = {}
    for u in UPSAMPLERS:
        m[f"train_samples_per_s.{u}"] = rate(BATCH, loop.times("train", u))
        m[f"infer_samples_per_s.{u}"] = rate(BATCH, loop.times("infer", u))
    # Whole cycles only: each covers every foreground-level combination once.
    pairs = loop.times("pair")
    m["metric_pairs_per_s"] = rate(1, pairs[:len(pairs) - len(pairs) % PAIR_CYCLE])
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mb"] = rss_mb
    return m


def per_layer(loop, tracer, extras: dict[str, float], notes: list[str]) -> dict[str, float]:
    totals = tracer.step_totals()
    traced = [s for s in loop.samples if s.traced]

    def steps(kind, u=""):
        return [s for s in traced if s.kind == kind and s.upsampler == u]

    def med(kind, u, *names):
        return median_ms([sum(totals[s.step].get(n, 0.0) for n in names) for s in steps(kind, u)])

    m = {}
    for u in UPSAMPLERS:
        walls = [s.seconds for s in steps("train", u)]
        m[f"train.step_ms_p50.{u}"] = median_ms(walls)
        value, label = tail(walls)
        m[f"train.step_ms_tail.{u}"] = value * 1e3
        notes.append(f"train.step_ms_tail.{u}: {label}")
        m[f"model.forward_ms.{u}"] = med("train", u, "model.forward")
        m[f"tensor.backward_ms.{u}"] = med("train", u, "tensor.backward")
        m[f"tensor.writeback_self_ms.{u}"] = median_ms(
            [totals[s.step].get("tensor.backward", 0.0) - totals[s.step].get("bwd.*", 0.0)
             for s in steps("train", u)])
        nodes = {tracer.step_counts[s.step]["nodes"] for s in steps("train", u)}
        if len(nodes) != 1:
            notes.append(f"tensor.nodes_per_step.{u} varies: {sorted(nodes)}")
        m[f"tensor.nodes_per_step.{u}"] = max(nodes)
        m[f"stage.forward_ms.{u}"] = med("infer", u, "stage.forward")
    split = ("model.forward", "loss.seg_loss", "tensor.backward", "optim.adam_step",
             "tensor.reset", "data.augment")
    m["train.unaccounted_ms.wau"] = median_ms(
        [s.seconds - sum(totals[s.step].get(n, 0.0) for n in split) for s in steps("train", "wau")])
    for name, span in (("loss.seg_loss_ms", "loss.seg_loss"), ("optim.adam_step_ms", "optim.adam_step"),
                       ("tensor.reset_ms", "tensor.reset"), ("data.augment_ms", "data.augment")):
        m[name] = med("train", "wau", span)
    listed = tuple(f"bwd.{op}" for op in BWD_OPS)
    for op in BWD_OPS:
        m[f"tensor.bwd_op_ms.{op}"] = med("train", "wau", f"bwd.{op}")
    m["tensor.bwd_op_ms.other"] = median_ms(
        [totals[s.step].get("bwd.*", 0.0) - sum(totals[s.step].get(n, 0.0) for n in listed)
         for s in steps("train", "wau")])
    m["tensor.bwd_op_ms.transposed_conv_upsample"] = med(
        "train", "transposed", "bwd.transposed_conv_upsample")
    counts = [tracer.step_counts[s.step] for s in steps("train", "wau")]
    ratios = {c["leaf_elems"] / c["grad_elems"] for c in counts}
    if len(ratios) != 1:
        notes.append(f"tensor.useful_grad_ratio varies: {sorted(ratios)}")
    m["tensor.useful_grad_ratio"] = max(ratios)
    m["conv.conv2d_fwd_ms"] = med("infer", "wau", "conv.conv2d")
    m["conv.maxpool_fwd_ms"] = med("infer", "wau", "conv.maxpool")
    m["windows.fwd_ms"] = med("infer", "wau", "windows.partition", "windows.paired_partition",
                              "windows.merge")
    m["attention.project_qkv_ms"] = med("infer", "wau", "attention.project_qkv")
    m["attention.wad_forward_ms"] = med("infer", "wau", "attention.wad_forward")
    m["conv.bilinear_fwd_ms"] = med("infer", "bilinear", "conv.bilinear")
    m["conv.transposed_fwd_ms"] = med("infer", "transposed", "conv.transposed")
    m["metrics.dice_ms"] = med("pair", "", "metrics.mean_dice")
    m["metrics.hausdorff_ms"] = med("pair", "", "metrics.mean_hausdorff")
    for kind in ("train", "infer"):
        for u in UPSAMPLERS:
            m[f"trace.overhead_pct.{kind}.{u}"] = overhead_pct(loop, kind, u)
    m["trace.overhead_pct.pair"] = overhead_pct(loop, "pair", "")
    m.update(extras)
    return m


def overhead_pct(loop, kind: str, u: str) -> float:
    """Traced over untraced median time, minus one; pairs compare like with like."""
    on, off = loop.times(kind, u, traced=True), loop.times(kind, u, traced=False)
    if kind == "pair":
        return 100.0 * (statistics.median(a / b for a, b in zip(on, off)) - 1.0)
    return 100.0 * (statistics.median(on) / statistics.median(off) - 1.0)


def trace_extras(bench, tracer, wl, seed) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures measured once, outside the loop."""
    import probes
    m = {}
    macs, peak = probes.count_macs(lambda: bench.runs["wau"].model.forward(bench.val_batches[0]))
    m.update({f"macs.{tag}": n for tag, n in macs.items()})
    m["metering.peak_elems"] = peak
    m.update(probes.memory_of_step(bench, "wau"))
    from workloads import PAIR_CYCLE
    fg = [int((p > 0).sum() + (t > 0).sum()) for p, t in map(bench.pairs.pair, range(PAIR_CYCLE))]
    m["metrics.fg_pixels_per_pair"] = sum(fg) / len(fg)
    step = tracer.new_step("ckpt", "wau")
    with tracer.installed():
        size, problems = probes.checkpoint_round_trip(
            bench, "wau", OUT / f"ckpt-{wl.name}-seed{seed}")
    spans = tracer.step_totals()[step]
    m["ckpt.save_ms"] = spans.get("train.save_checkpoint", 0.0) * 1e3
    m["ckpt.load_ms"] = spans.get("train.load_checkpoint", 0.0) * 1e3
    m["ckpt.bytes"] = size
    return m, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wau" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wau
    if Path(wau.__file__).resolve().parent != (SRC / "wau").resolve():
        print(f"error: imported wau from {wau.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Bench, Loop
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        Bench(wl, args.seed).warm_up()
        return 0

    import checks
    import probes
    from tracing import Tracer

    setups = [] if args.trace else time_setups(args)
    calib_ms = probes.calibrate()
    t0 = time.perf_counter()
    bench = Bench(wl, args.seed)
    bench.warm_up()
    main_setup_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    loop = Loop(bench, tracer)
    measured_s = loop.run(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One failure per failed operation: a loop op, an upsampler's float64
    # replay, a re-scored pair, or the checkpoint round trip.
    failures = list(loop.failures)
    attempted = loop.attempted + len(UPSAMPLERS)
    failures += ["; ".join(p) for p in checks.check_precision(bench).values() if p]
    checked, pair_problems = checks.check_pairs(bench)
    attempted += checked
    failures += pair_problems

    notes: list[str] = []
    if args.trace:
        extras, ckpt_problems = trace_extras(bench, tracer, wl, args.seed)
        attempted += 1
        failures += ["; ".join(ckpt_problems)] if ckpt_problems else []
        extras["env.calib_ms"] = calib_ms
        metrics = per_layer(loop, tracer, extras, notes)
        table = PER_LAYER
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.write(spans_path)
        notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(loop, setups, rss_mb)
        table = END_TO_END
        notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))

    env = probes.environment(args.seed, calib_ms)
    env["allocator"] = ALLOCATOR
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}: {wl.size}x{wl.size}, window {wl.window}, "
          f"measured {measured_s:.2f} s, in-process setup {main_setup_s:.3f} s")
    for kind in ("train", "infer"):
        for u in UPSAMPLERS:
            n = len(loop.times(kind, u))
            print(f"  {kind} {u}: {n} untraced ops, median {median_ms(loop.times(kind, u)):.3f} ms")
    print(f"  pair: {len(loop.times('pair'))} untraced ops")
    for note in notes:
        print("  " + note)
    for name, unit in table:
        print(f"{name} = {metrics[name]!r} {unit}")
    failed = len(failures)
    print(f"error_rate = {failed / attempted!r} ratio ({failed} of {attempted} operations failed)")
    for problem in failures[:20]:
        print("FAILED: " + problem, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
