"""The benchmark workloads and the closed loop that drives them.

Every workload runs the same three kinds of operation at its own geometry,
so every end-to-end metric is defined on every workload:

  train   one TrainRun step (batch, augment, forward, loss, backward, Adam,
          tape reset, train Dice) of wau, bilinear or transposed;
  infer   one tape-free ToyNet.forward + argmax batch of one upsampler;
  pair    mean_dice + mean_hausdorff on one generated mask pair.

Mask pairs set a validation-distribution target against a prediction from
an independent generator stream. Their cost grows with the foreground of
both masks, so the pairs cycle through fixed foreground levels (5..17%,
about 11% on average, like the generator's own spread): every PAIR_CYCLE
consecutive pairs cover every combination of levels, and the cost of a
cycle does not depend on which masks the seed happened to draw.

What differs between workloads is the geometry and the share of wall time
each kind of operation gets. The loop is closed: one caller, and the next
operation starts only when the previous one has returned. Streams of
operations are interleaved, so machine drift hits all of them alike.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from wau.config import RunConfig
from wau.tensor import tensor
from wau.toyseg import metrics
from wau.toyseg.data import make_sample
from wau.toyseg.train import TrainRun

from names import UPSAMPLERS

STREAMS = ([("train", u) for u in UPSAMPLERS] + [("infer", u) for u in UPSAMPLERS]
           + [("pair", "")])
BATCH = 4
TRAIN_COUNT = 32
VAL_COUNT = 8
CLASSES = 1
NOISE = 0.1
# Predicted masks come from an independent generator stream.
PRED_SEED_OFFSET = 7919
FG_LEVELS = (0.05, 0.08, 0.11, 0.14, 0.17)
FG_TOL = 0.005
MASKS_PER_LEVEL = 4
MAX_DRAWS = 5000
PAIR_CYCLE = len(FG_LEVELS) ** 2   # consecutive pairs that cover every level combination
MIN_OPS = 6             # per stream, even past the deadline; pairs run whole cycles


@dataclass(frozen=True)
class Workload:
    name: str
    size: int               # square image side
    window: int             # kv window of the attention stages
    shares: dict            # kind -> share of measured wall time


# Reference geometry of configs/acceptance.ini (depth 2, base 8, heads 4,
# window 4, 32x32, batch 4), and the same net at 128x128 with window 8. At
# 128 the infer and pair shares are larger: that size is where tape-free
# forward and Hausdorff cost enough to measure layer by layer.
WORKLOADS = {
    "train32": Workload("train32", 32, 4, {"train": 0.7, "infer": 0.15, "pair": 0.15}),
    "train128": Workload("train128", 128, 8, {"train": 0.6, "infer": 0.2, "pair": 0.2}),
}


def run_config(wl: Workload, upsampler: str, seed: int) -> RunConfig:
    cfg = RunConfig()
    m, d, t = cfg.model, cfg.data, cfg.train
    m.depth, m.base_channels, m.heads = 2, 8, 4
    m.window, m.upsampler = wl.window, upsampler
    d.height = d.width = wl.size
    d.train_count, d.val_count = TRAIN_COUNT, VAL_COUNT
    d.classes, d.noise_sigma = CLASSES, NOISE
    t.batch_size, t.lr, t.warmup_epochs, t.seed = BATCH, 1e-4, 2, seed
    t.epochs = 10 ** 6      # never reached: the loop stops on time
    return cfg


def _masks_by_level(size: int, seed: int, first_index: int) -> list[list[np.ndarray]]:
    """The first MASKS_PER_LEVEL generated masks within FG_TOL of each level."""
    levels: list[list[np.ndarray]] = [[] for _ in FG_LEVELS]
    for index in range(first_index, first_index + MAX_DRAWS):
        mask = make_sample(index, size, size, CLASSES, seed, NOISE).mask
        frac = np.count_nonzero(mask) / mask.size
        for bucket, level in zip(levels, FG_LEVELS):
            if abs(frac - level) <= FG_TOL and len(bucket) < MASKS_PER_LEVEL:
                bucket.append(mask)
        if all(len(b) == MASKS_PER_LEVEL for b in levels):
            return levels
    raise RuntimeError(f"{MAX_DRAWS} draws did not fill every foreground level")


class PairPool:
    """Mask pairs for the metric operations, indexed 0, 1, 2, ..."""

    def __init__(self, size: int, seed: int):
        self.targets = _masks_by_level(size, seed, TRAIN_COUNT)
        self.preds = _masks_by_level(size, seed + PRED_SEED_OFFSET, 0)

    def pair(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(prediction, target). Every five consecutive pairs cover all levels on
        both sides; every PAIR_CYCLE consecutive pairs cover all combinations."""
        n = len(FG_LEVELS)
        j = (k // n) % MASKS_PER_LEVEL
        return self.preds[(k // n + k) % n][j], self.targets[k % n][j]


class Bench:
    """The program state one workload drives, built from the workload seed."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.runs = {u: TrainRun(run_config(wl, u, seed)) for u in UPSAMPLERS}
        for run in self.runs.values():
            run.perm = run.rng.permutation(len(run.train_set))
        val = self.runs["wau"].val_set
        self.val_batches = [tensor(np.stack([s.image for s in val[lo:lo + BATCH]]))
                            for lo in range(0, len(val), BATCH)]
        self.next_batch = {u: 0 for u in UPSAMPLERS}
        self.pairs = PairPool(wl.size, seed)
        self.next_pair = 0
        self.pair_values: list[tuple[int, float, float]] = []

    def train_step(self, u: str) -> float:
        """One TrainRun step; returns its loss. Epochs wrap without validation."""
        run = self.runs[u]
        if run.batch_pos == run.steps_per_epoch:
            run.epoch += 1
            run.batch_pos = 0
            run.perm = run.rng.permutation(len(run.train_set))
            run.dsc_sum, run.sample_count = 0.0, 0
        run.loss_sum = 0.0
        run._train_step()
        return run.loss_sum

    def infer_batch(self, u: str) -> np.ndarray:
        i = self.next_batch[u]
        self.next_batch[u] = (i + 1) % len(self.val_batches)
        return self.runs[u].model.forward(self.val_batches[i]).data.argmax(axis=1)

    def take_pair(self) -> tuple[int, np.ndarray, np.ndarray]:
        i = self.next_pair
        self.next_pair += 1
        return (i,) + self.pairs.pair(i)

    @staticmethod
    def score_pair(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
        return (metrics.mean_dice(pred, target, CLASSES),
                metrics.mean_hausdorff(pred, target, CLASSES))

    def warm_up(self) -> None:
        for u in UPSAMPLERS:
            self.train_step(u)
            self.infer_batch(u)
        _, pred, target = self.take_pair()
        self.score_pair(pred, target)
        self.next_pair = 0


@dataclass
class Sample:
    kind: str
    upsampler: str          # "" for pairs
    seconds: float
    traced: bool
    step: int               # tracer step id, -1 when untraced


class Loop:
    """Runs operations for a fixed wall time and keeps one Sample per operation.

    Each stream (train or infer of one upsampler, or pairs) gets an equal
    part of its kind's time share, so cheap operations collect more samples
    than dear ones. The next operation always comes from the stream furthest
    below its share, which interleaves the streams.
    """

    def __init__(self, bench: Bench, tracer=None):
        self.bench = bench
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.counts = {s: 0 for s in STREAMS}

    def _op(self, kind: str, u: str, traced: bool, fn, check):
        """Time fn(); check its result outside the timer. Any exception fails it."""
        self.attempted += 1
        step = self.tracer.new_step(kind, u) if traced else -1
        try:
            if traced:
                with self.tracer.installed():
                    t0 = time.perf_counter()
                    out = fn()
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            problem = check(out)
        except Exception as exc:  # a failed operation must not stop the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{kind} {u} step {step}: {problem}")
            return None
        self.samples.append(Sample(kind, u, dt, traced, step))
        return out

    def _next(self, stream: tuple[str, str]) -> None:
        kind, u = stream
        b = self.bench
        n = self.counts[stream]
        if kind == "train":
            self._op(kind, u, self._traced(n), lambda: b.train_step(u), _check_loss)
        elif kind == "infer":
            self._op(kind, u, self._traced(n), lambda: b.infer_batch(u),
                     lambda preds: _check_preds(preds, b.wl))
        else:
            i, pred, target = b.take_pair()
            # With tracing, score each pair both ways, in alternating order,
            # so the overhead is measured on identical inputs.
            modes = [False] if self.tracer is None else [self._traced(n), not self._traced(n)]
            for mode in modes:
                val = self._op(kind, u, mode, lambda: b.score_pair(pred, target), _check_pair)
                if val is not None and not mode:
                    b.pair_values.append((i,) + val)

    def _traced(self, n: int) -> bool:
        """With a tracer, every other operation of a stream runs traced."""
        return self.tracer is not None and n % 2 == 0

    def run(self, seconds: float) -> float:
        shares = {s: self.bench.wl.shares[s[0]] / (1 if s[0] == "pair" else len(UPSAMPLERS))
                  for s in STREAMS}
        spent = {s: 0.0 for s in STREAMS}
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            lacking = [s for s in STREAMS
                       if self.counts[s] < (PAIR_CYCLE if s[0] == "pair" else MIN_OPS)]
            if time.perf_counter() >= deadline:
                if not lacking:
                    break
                pool = lacking
            else:
                pool = STREAMS
            stream = min(pool, key=lambda s: spent[s] / shares[s])
            t0 = time.perf_counter()
            self._next(stream)
            spent[stream] += time.perf_counter() - t0
            self.counts[stream] += 1
        return time.perf_counter() - start

    def times(self, kind: str, u: str = "", traced: bool = False) -> list[float]:
        return [s.seconds for s in self.samples
                if s.kind == kind and s.upsampler == u and s.traced == traced]


def _check_loss(loss: float) -> str:
    return "" if math.isfinite(loss) else f"non-finite loss {loss}"


def _check_preds(preds: np.ndarray, wl: Workload) -> str:
    if preds.shape != (BATCH, wl.size, wl.size):
        return f"prediction shape {preds.shape}"
    if preds.min() < 0 or preds.max() > CLASSES:
        return "prediction labels out of range"
    return ""


def _check_pair(val: tuple[float, float]) -> str:
    dice, hd = val
    if not 0.0 <= dice <= 1.0 or not math.isfinite(hd) or hd < 0:
        return f"metric values out of range: dice {dice}, hausdorff {hd}"
    return ""
