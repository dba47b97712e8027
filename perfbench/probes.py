"""One-off measurements made outside the timed loop: operation counts from
CostMeter, tracemalloc memory of one step, a checkpoint round trip, a fixed
calibration kernel, and the machine environment."""
from __future__ import annotations

import os
import platform
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from wau import metering
from wau.tensor import Tape
from wau.toyseg.loss import seg_loss
from wau.toyseg.train import TrainRun

from names import MAC_TAGS
from workloads import CLASSES, Bench

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1024.0 * 1024.0


def count_macs(fn) -> tuple[dict[str, int], int]:
    """Multiply-adds per metering tag, and peak tracked elements, of one fn()."""
    meter = metering.CostMeter()
    with meter.active():
        fn()
    unknown = set(meter.macs) - set(MAC_TAGS)
    if unknown:
        raise RuntimeError(f"untracked metering tags {sorted(unknown)}")
    return {tag: meter.macs.get(tag, 0) for tag in MAC_TAGS}, meter.peak_elems


def memory_of_step(bench: Bench, u: str) -> dict[str, float]:
    """tracemalloc figures of one wau forward + loss + backward (no Adam step)."""
    run = bench.runs[u]
    x = bench.val_batches[0]
    masks = np.stack([s.mask for s in run.val_set[:x.shape[0]]])
    tracemalloc.start()
    try:
        with Tape() as tape:
            logits = run.model.forward(x)
            loss = seg_loss(logits, masks, CLASSES)
            live_after_fwd, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape.backward(loss)
            _, bwd_peak = tracemalloc.get_traced_memory()
        tape.reset()
    finally:
        tracemalloc.stop()
    return {"mem.fwd_peak_mb": fwd_peak / MB, "mem.bwd_peak_mb": bwd_peak / MB,
            "mem.live_after_fwd_mb": live_after_fwd / MB}


def checkpoint_round_trip(bench: Bench, u: str, directory: Path) -> tuple[int, list[str]]:
    """Save and reload one TrainRun; returns the bytes written and any mismatch."""
    run = bench.runs[u]
    shutil.rmtree(directory, ignore_errors=True)
    try:
        run.save_checkpoint(directory)
        size = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
        loaded = TrainRun.load_checkpoint(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    saved = dict(run.model.parameters())
    problems = [f"checkpoint parameter {name} differs after reload"
                for name, p in loaded.model.parameters()
                if not np.array_equal(p.data, saved[name].data)]
    return size, problems


def calibrate(repeats: int = 15) -> float:
    """Median ms of a fixed float64 kernel: separates machine drift from code."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        b = a
        for _ in range(4):
            b = np.tanh(b @ a) + a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(seed: int, calib_ms: float) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "env.calib_ms": calib_ms,
    }
