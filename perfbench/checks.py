"""Correctness gates, run outside the timed loop.

  - one float32 train step per upsampler against a float64 replay of the
    same weights and batch: the loss and every leaf gradient;
  - float32 inference logits against float64, per upsampler;
  - Dice and Hausdorff values of a sample of the scored pairs against the
    exhaustive references below.

Tolerances were fixed from the seed code at both geometries, over seeds and
training states the workloads reach. Largest errors seen: loss 8.2e-8
relative, logits 2.0e-7 relative; leaf gradients 3.1e-6 per parameter (as
in `_grad_error`) and 6.7e-7 over all leaves (`_global_error`).

Now and then the two precisions take different sides of a ReLU or max-pool
branch for one element, where two values agree to about 1e-8: the gradient
then flows through another element, and the leaf gradients differ by up to
2.3e-4 over all leaves and 1.1e-3 for one parameter although both
computations are right. The replay therefore uses the first validation
sample on which both precisions take the same branches everywhere.
"""
from __future__ import annotations

import copy
import math
from contextlib import contextmanager

import numpy as np

import wau.toyseg.model as model_module
from wau.tensor import Tape, tensor
from wau.toyseg.loss import seg_loss
from wau.toyseg.train import build_model_from_config

from workloads import CLASSES, UPSAMPLERS, Bench

LOSS_RTOL = 1e-5
GRAD_TOL = 1e-4          # relative L2 error over all leaf gradients
PARAM_GRAD_TOL = 1e-4    # per parameter, see _grad_error
LOGIT_RTOL = 1e-5
PAIRS_CHECKED = 8
CHUNK_ELEMS = 1 << 20   # distance-matrix elements per reference chunk


def _double_model(run):
    cfg = copy.deepcopy(run.cfg)
    cfg.train.precision = "double"
    model = build_model_from_config(cfg)
    weights = {name: p.data for name, p in run.model.parameters()}
    for name, p in model.parameters():
        p.data = weights[name].astype(np.float64)
    return model


@contextmanager
def _branches_recorded(log: list):
    """Append the branch each ReLU and max-pool takes, element by element.

    They are the only ops whose gradient route depends on comparing values,
    and the model module is where they are looked up. The program's own ops
    still do the work.
    """
    relu, maxpool2 = model_module.relu, model_module.maxpool2

    def relu_logged(a):
        log.append(a.data > 0)
        return relu(a)

    def maxpool2_logged(x):
        out = maxpool2(x)
        log.append(x.data == out.data.repeat(2, axis=2).repeat(2, axis=3))
        return out

    model_module.relu, model_module.maxpool2 = relu_logged, maxpool2_logged
    try:
        yield
    finally:
        model_module.relu, model_module.maxpool2 = relu, maxpool2


def _loss_and_grads(model, x: np.ndarray, masks: np.ndarray, precision: str):
    branches = []
    with _branches_recorded(branches), Tape() as tape:
        logits = model.forward(tensor(x, precision=precision))
        loss = seg_loss(logits, masks, CLASSES)
        tape.backward(loss)
    grads = {n: (None if p.grad is None else p.grad.astype(np.float64))
             for n, p in model.parameters()}
    tape.reset()
    return loss.item(), grads, branches


def _grad_error(g32: np.ndarray, g64: np.ndarray, global_max: float) -> float:
    """Max abs error over the parameter's own scale, floored at 1e-3 of the largest."""
    return float(np.abs(g32 - g64).max() / max(np.abs(g64).max(), 1e-3 * global_max))


def _global_error(g32: dict, g64: dict) -> float:
    """Relative L2 error of all leaf gradients taken as one vector."""
    num = sum(float(np.sum((g32[n] - g64[n]) ** 2)) for n in g64)
    den = sum(float(np.sum(g64[n] ** 2)) for n in g64)
    return math.sqrt(num / den)


def check_precision(bench: Bench) -> dict[str, list[str]]:
    """float32 vs float64 on one validation sample: problems per upsampler."""
    found = {}
    for u in UPSAMPLERS:
        found[u] = problems = []
        run = bench.runs[u]
        m64 = _double_model(run)
        for sample in run.val_set:
            x, masks = sample.image[None], sample.mask[None]
            l32, g32, b32 = _loss_and_grads(run.model, x, masks, "single")
            l64, g64, b64 = _loss_and_grads(m64, x, masks, "double")
            if all(np.array_equal(a, b) for a, b in zip(b32, b64)):
                break
        else:
            problems.append(f"{u}: float32 and float64 take different ReLU or max-pool "
                            "branches on every validation sample")
            continue
        if not (math.isfinite(l32) and abs(l32 - l64) <= LOSS_RTOL * max(1.0, abs(l64))):
            problems.append(f"{u}: float32 loss {l32!r} vs float64 {l64!r}")
        if any(g is None for g in list(g32.values()) + list(g64.values())):
            problems.append(f"{u}: a parameter received no gradient")
        else:
            err = _global_error(g32, g64)
            if not err <= GRAD_TOL:
                problems.append(f"{u}: leaf gradients off by {err:.3e} (relative L2)")
            top = max(float(np.abs(g).max()) for g in g64.values())
            for name in g64:
                err = _grad_error(g32[name], g64[name], top)
                if not err <= PARAM_GRAD_TOL:
                    problems.append(f"{u}: gradient of {name} off by {err:.3e}")
        o32 = run.model.forward(tensor(x)).data.astype(np.float64)
        o64 = m64.forward(tensor(x, precision="double")).data
        err = float(np.abs(o32 - o64).max() / (1.0 + np.abs(o64).max()))
        if not err <= LOGIT_RTOL:
            problems.append(f"{u}: float32 logits off by {err:.3e}")
    return found


def reference_dice(pred: np.ndarray, target: np.ndarray, label: int) -> float:
    a, b = pred == label, target == label
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def _directed_sq_chunked(src: np.ndarray, dst: np.ndarray) -> int:
    """max over src of min over dst of the squared distance, in exact integers."""
    rows = max(1, CHUNK_ELEMS // len(dst))
    worst = 0
    for lo in range(0, len(src), rows):
        chunk = src[lo:lo + rows]
        dy = chunk[:, None, 0] - dst[None, :, 0]
        dx = chunk[:, None, 1] - dst[None, :, 1]
        worst = max(worst, int((dy * dy + dx * dx).min(axis=1).max()))
    return worst


def reference_hausdorff(pred: np.ndarray, target: np.ndarray, label: int) -> float:
    a = np.argwhere(pred == label).astype(np.int64)
    b = np.argwhere(target == label).astype(np.int64)
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        h, w = pred.shape
        return math.hypot(h - 1, w - 1)
    return math.sqrt(max(_directed_sq_chunked(a, b), _directed_sq_chunked(b, a)))


def check_pairs(bench: Bench) -> tuple[int, list[str]]:
    """Re-score evenly spaced scored pairs with the references; exact equality."""
    values = bench.pair_values
    if not values:
        return 0, ["no pair was scored"]
    picks = sorted({values[round(j * (len(values) - 1) / max(1, PAIRS_CHECKED - 1))]
                    for j in range(PAIRS_CHECKED)})
    problems = []
    for i, dice, hd in picks:
        pred, target = bench.pairs.pair(i)
        labels = range(1, CLASSES + 1)
        want_d = float(np.mean([reference_dice(pred, target, c) for c in labels]))
        want_h = float(np.mean([reference_hausdorff(pred, target, c) for c in labels]))
        if dice != want_d or hd != want_h:
            problems.append(f"pair {i}: dice {dice!r} hausdorff {hd!r}, "
                            f"reference {want_d!r} {want_h!r}")
    return len(picks), problems
