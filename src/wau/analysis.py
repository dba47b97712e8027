"""Closed-form cost model for the attention decoders, verified against an
instrumented forward pass, plus parameter counting and gradient checking.

Cost convention (frozen): a figure of F "flops" counts F multiply-accumulate
operations over exactly six macro-ops of one decoding stage: the q, k, v
projection convolutions, the output convolution, and the two attention
matrix products. Bias additions, softmax, and layer normalization are
excluded. Peak memory counts the simultaneously live elements of the q, k,
v, and attention-weight buffers, and the closed forms assume a single head
(extra heads multiply the weight buffer but never the flop count, because
heads split the channel width).

With H2 x W2 the source (kv) map, C its channel width (= embedding width),
k the kernel size, n the upsampling ratio and M2 the kv window:

    flops_ad  = 2*H2*W2*C^2*k^2*(n^2+1) + 2*(H2*W2)^2*C*n^2
    flops_wad = 2*H2*W2*C^2*k^2*(n^2+1) + 2*H2*W2*C*n^2*M2^2
    mem_ad    = H2*W2*C*(n^2+2) + n^2*(H2*W2)^2
    mem_wad   = H2*W2*C*(n^2+2) + n^2*M2^2*H2*W2

The first flop term is the four convolutions (q costs n^2 of the four
because it runs on the n-times-larger lateral map, as does the output
convolution); the second is the two attention products. Windowing turns
the quadratic attention term linear in map area: the decoders are
identical except for the window, so the flop ratio of their attention
terms is (H2*W2)/M2^2. All arithmetic is exact integer arithmetic.

measure() runs one real decode with counters attached to the kernels and
insists the tally equals the closed form; a mismatch raises. Both kinds run
the same windowed decode: "ad" is the one whose window spans the whole map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metering
from .attention import AttentionDecoder, WauConfig
from .tensor import ContractError, Tensor, record, tensor

_FLOP_TAGS = ("proj_q", "proj_k", "proj_v", "out_conv", "attn_scores", "attn_apply")


class AnalysisError(AssertionError):
    """Measured instrumentation disagrees with the closed form."""


def _check_positive(**kwargs: int) -> None:
    for name, v in kwargs.items():
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
            raise ContractError(f"{name} must be a positive integer, got {v!r}")


def attention_flops(h2: int, w2: int, c: int, n: int, m2: int | None = None) -> int:
    """The two attention products' term: global if m2 is None, else windowed.

    Every one of the n^2*H2*W2 queries meets H2*W2 keys globally, M2^2 in
    its window; scores and the weighted sum each cost C per pair.
    """
    _check_positive(h2=h2, w2=w2, c=c, n=n)
    area = h2 * w2
    if m2 is None:
        return 2 * area * area * c * n * n
    _check_positive(m2=m2)
    return 2 * area * c * n * n * m2 * m2


def flops_ad(h2: int, w2: int, c: int, k: int, n: int) -> int:
    """Multiply-accumulate count of one global attention decode."""
    _check_positive(h2=h2, w2=w2, c=c, k=k, n=n)
    return 2 * h2 * w2 * c * c * k * k * (n * n + 1) + attention_flops(h2, w2, c, n)


def flops_wad(h2: int, w2: int, c: int, k: int, n: int, m2: int) -> int:
    """Multiply-accumulate count of one windowed attention decode."""
    _check_positive(h2=h2, w2=w2, c=c, k=k, n=n, m2=m2)
    return 2 * h2 * w2 * c * c * k * k * (n * n + 1) + attention_flops(h2, w2, c, n, m2)


def mem_ad(h2: int, w2: int, c: int, n: int) -> int:
    """Peak live elements of q/k/v plus global attention weights."""
    _check_positive(h2=h2, w2=w2, c=c, n=n)
    area = h2 * w2
    return area * c * (n * n + 2) + n * n * area * area


def mem_wad(h2: int, w2: int, c: int, n: int, m2: int) -> int:
    """Peak live elements of q/k/v plus windowed attention weights."""
    _check_positive(h2=h2, w2=w2, c=c, n=n, m2=m2)
    area = h2 * w2
    return area * c * (n * n + 2) + n * n * m2 * m2 * area


@dataclass
class CostReport:
    """Analytic vs measured cost for one decoder configuration."""

    kind: str                 # "ad" or "wad"
    h2: int
    w2: int
    c: int
    k: int
    n: int
    m2: int | None
    analytic_flops: int
    measured_flops: int
    analytic_mem_elems: int
    measured_peak_elems: int

    def csv_row(self) -> str:
        m2 = "" if self.m2 is None else str(self.m2)
        return (f"{self.kind},{self.h2},{self.w2},{self.c},{self.k},{self.n},{m2},"
                f"{self.analytic_flops},{self.measured_flops},"
                f"{self.analytic_mem_elems},{self.measured_peak_elems}")


def measure(kind: str, h2: int, w2: int, c: int, k: int, n: int,
            m2: int | None = None, seed: int = 0) -> CostReport:
    """Run one instrumented forward pass and reconcile it with the formulas.

    Uses a single-item batch, equal lateral/source widths, a single head,
    and the same kernel for projections and output, matching the closed
    forms' assumptions. Raises AnalysisError on any disagreement.
    """
    if kind not in ("ad", "wad"):
        raise ContractError(f"kind must be 'ad' or 'wad', got {kind!r}")
    _check_positive(h2=h2, w2=w2, c=c, k=k, n=n)
    if kind == "wad":
        if m2 is None:
            raise ContractError("wad measurement needs a window size m2")
        _check_positive(m2=m2)
        if h2 % m2 or w2 % m2:
            raise ContractError(f"window {m2} does not divide source map {h2}x{w2}")
        analytic = flops_wad(h2, w2, c, k, n, m2)
        analytic_mem = mem_wad(h2, w2, c, n, m2)
    elif m2 is not None:
        raise ContractError(f"ad measurement is global and takes no window, got m2={m2}")
    else:
        analytic = flops_ad(h2, w2, c, k, n)
        analytic_mem = mem_ad(h2, w2, c, n)

    cfg = WauConfig(ratio=n, window=m2, heads=1,
                    proj_kernel=k, out_kernel=k)
    rng = np.random.default_rng(seed)
    dec = AttentionDecoder(cfg, lateral_channels=c, source_channels=c, rng=rng)
    lateral = tensor(rng.standard_normal((1, c, n * h2, n * w2)))
    source = tensor(rng.standard_normal((1, c, h2, w2)))

    meter = metering.CostMeter()
    with meter.active():
        dec.wad_forward(lateral, source)

    measured = meter.macs_for(_FLOP_TAGS)
    report = CostReport(kind=kind, h2=h2, w2=w2, c=c, k=k, n=n, m2=m2,
                        analytic_flops=analytic, measured_flops=measured,
                        analytic_mem_elems=analytic_mem,
                        measured_peak_elems=meter.peak_elems)
    if measured != analytic:
        raise AnalysisError(
            f"measured flops {measured} != analytic {analytic} for {kind} "
            f"(h2={h2}, w2={w2}, c={c}, k={k}, n={n}, m2={m2}); "
            f"per-tag counts: {meter.macs}")
    if meter.peak_elems != analytic_mem:
        raise AnalysisError(
            f"measured peak elements {meter.peak_elems} != analytic {analytic_mem} "
            f"for {kind} (h2={h2}, w2={w2}, c={c}, n={n}, m2={m2})")
    return report


def count_params(module) -> int:
    """Total trainable scalar count of anything exposing parameters()."""
    return sum(t.size for _, t in module.parameters())


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradcheckReport:
    max_rel_error: float
    worst_name: str
    worst_index: int
    analytic: float
    numeric: float
    checked: int

    def __str__(self) -> str:
        return (f"gradcheck: {self.checked} scalars, max rel error "
                f"{self.max_rel_error:.3e} at {self.worst_name}[{self.worst_index}] "
                f"(analytic {self.analytic:.6e}, numeric {self.numeric:.6e})")


def gradcheck(forward, wrt: list[tuple[str, Tensor]], step: float = 1e-5) -> GradcheckReport:
    """Compare tape gradients against central differences, scalar by scalar.

    `forward()` must rebuild the output tensor from the tensors in `wrt`
    (parameters and inputs alike); the scalar objective is the sum of its
    elements. Everything must be double precision: single has too little
    headroom for a 1e-4 verdict to mean anything.
    """
    from .tensor import Tape, sum_all

    if not wrt:
        raise ContractError("gradcheck needs at least one tensor to check")
    for name, t in wrt:
        if t.data.dtype != np.float64:
            raise ContractError(f"gradcheck requires double precision, {name} is {t.precision}")
        if not t.requires_grad:
            raise ContractError(f"gradcheck target {name} has requires_grad=False")

    with Tape() as tape:
        loss = sum_all(forward())
        tape.backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in wrt}
    tape.reset()

    def objective() -> float:
        return float(forward().data.sum())

    worst = (0.0, "", 0, 0.0, 0.0)
    checked = 0
    for name, t in wrt:
        flat = t.data.reshape(-1)
        an_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = objective()
            flat[i] = keep - step
            down = objective()
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            an = float(an_flat[i])
            rel = abs(an - numeric) / max(abs(an), abs(numeric), 1.0)
            checked += 1
            if rel > worst[0]:
                worst = (rel, name, i, an, numeric)
    return GradcheckReport(max_rel_error=worst[0], worst_name=worst[1],
                           worst_index=worst[2], analytic=worst[3],
                           numeric=worst[4], checked=checked)


def broken_scale(x: Tensor) -> Tensor:
    """Doubles its input but lies to the tape (backward claims 1.9x).

    Self-test fixture for the gradient checker: any run that reports this
    op as correct means the checker itself is broken.
    """
    out = Tensor(x.data * 2.0)

    def fn(g, acc):
        acc.add(0, g * 1.9)

    record("broken_scale", (x,), out, fn)
    return out


def build_gradcheck_target(name: str, seed: int = 0):
    """Named (forward, wrt) pairs for the checker CLI and acceptance tests.

    wau_stage        one full upsampling stage on tiny maps
    toynet           the depth-2 toy segmentation net on a 16x16 input
    bilinear_stage   pure interpolation (linear; errors near machine eps)
    broken_fixture   deliberately wrong backward rule; must fail the check
    """
    from .conv import bilinear_upsample
    rng = np.random.default_rng(seed)

    if name == "wau_stage":
        cfg = WauConfig(ratio=2, window=2, heads=2)
        stage_rng = np.random.default_rng(seed + 1)
        from .stage import WauStage
        st = WauStage(cfg, lateral_channels=4, source_channels=4, rng=stage_rng)
        lateral = tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        source = tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)
        wrt = [("lateral", lateral), ("source", source)] + st.parameters()
        return (lambda: st.forward(source, lateral)), wrt

    if name == "toynet":
        from .toyseg.model import ToyNet
        net = ToyNet(depth=2, base_channels=4, upsampler="wau", classes=1,
                     window=2, heads=2, seed=seed + 1)
        x = tensor(rng.standard_normal((1, 1, 16, 16)), requires_grad=True)
        wrt = [("input", x)] + net.parameters()
        return (lambda: net.forward(x)), wrt

    if name == "bilinear_stage":
        x = tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        return (lambda: bilinear_upsample(x, 2)), [("input", x)]

    if name == "broken_fixture":
        x = tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        return (lambda: broken_scale(x)), [("input", x)]

    raise ContractError(f"unknown gradcheck target {name!r}")
