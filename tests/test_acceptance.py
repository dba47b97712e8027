"""Acceptance suite: one test per headline claim of the artifact.

Each test is self-contained evidence for a property the package promises:
window/global attention equivalence, gradient correctness, exact cost
accounting, residual semantics, kernel-oracle agreement, end-to-end
training quality, bitwise determinism, schedule endpoints, and the
visualization contract. Run with -v for one pass/fail line per claim.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import naive_bilinear, naive_conv2d, naive_transposed
from wau.analysis import (build_gradcheck_target, flops_ad, flops_wad,
                          gradcheck, measure, mem_ad, mem_wad)
from wau.attention import AttentionDecoder, WauConfig
from wau.config import RunConfig, parse_config
from wau.conv import (ConvSpec, TransposedConv, bilinear_upsample,
                      transposed_conv_upsample)
from wau.stage import WauStage
from wau.tensor import tensor
from wau.toyseg.optim import lr_at
from wau.toyseg.train import (build_model_from_config, load_parameters,
                              train)
from wau.viz import _trace, export_attention
from wau.windows import merge, partition

DSC_COL, HD_COL = 5, 6  # columns of the metrics rows: epoch,step,lr,loss,...


@pytest.fixture(scope="session")
def wau_acceptance_run(tmp_path_factory):
    """The reference training run (default config), shared by tests 6/7/9."""
    out = tmp_path_factory.mktemp("acceptance") / "wau"
    t0 = time.perf_counter()
    run = train(RunConfig(), out)
    elapsed = time.perf_counter() - t0
    return {"run": run, "out": out, "elapsed": elapsed,
            "final": out / "checkpoints" / "final"}


def test_01_windowed_attention_equals_global_when_window_covers_map():
    t0 = time.perf_counter()
    worst = 0.0
    configs = [(h, c, heads, seed)
               for h in (2, 4) for c in (4, 8) for heads in (1, 2)
               for seed in (0, 1, 2)]
    assert len(configs) >= 20
    for h, c, heads, seed in configs:
        rng = np.random.default_rng([seed, h, c, heads])
        cfg = WauConfig(ratio=2, window=h, heads=heads, precision="double")
        dec = AttentionDecoder(cfg, c, c, rng)
        # the same parameters, with one window spanning the map
        glob = AttentionDecoder(dataclasses.replace(cfg, window=None), c, c,
                                np.random.default_rng([seed, h, c, heads]))
        lateral = tensor(rng.standard_normal((1, c, 2 * h, 2 * h)),
                         precision="double")
        source = tensor(rng.standard_normal((1, c, h, h)), precision="double")
        windowed = dec.wad_forward(lateral, source).numpy()
        global_ = glob.wad_forward(lateral, source).numpy()
        worst = max(worst, float(np.abs(windowed - global_).max()))
    elapsed = time.perf_counter() - t0
    print(f"\n  {len(configs)} configs, worst |windowed - global| = "
          f"{worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_02_gradients_match_central_differences():
    t0 = time.perf_counter()
    for target in ("wau_stage", "toynet"):
        forward, wrt = build_gradcheck_target(target, seed=0)
        report = gradcheck(forward, wrt)
        print(f"\n  {target}: {report}")
        assert report.max_rel_error < 1e-4, target
    elapsed = time.perf_counter() - t0
    print(f"  {elapsed:.1f}s")
    assert elapsed < 120.0


def test_03_cost_formulas_match_instrumented_counts_exactly():
    t0 = time.perf_counter()
    # Worked closed-form values at H2=W2=8, C=16, k=3, n=2, M2=4.
    assert flops_ad(8, 8, 16, 3, 2) == 1_998_848
    assert flops_wad(8, 8, 16, 3, 2, 4) == 1_605_632
    assert mem_ad(8, 8, 16, 2) == 22_528
    assert mem_wad(8, 8, 16, 2, 4) == 10_240

    rep = measure("ad", 8, 8, 16, 3, 2)
    assert rep.measured_flops == rep.analytic_flops == 1_998_848
    assert rep.measured_peak_elems == rep.analytic_mem_elems == 22_528
    rep = measure("wad", 8, 8, 16, 3, 2, m2=4)
    assert rep.measured_flops == rep.analytic_flops == 1_605_632
    assert rep.measured_peak_elems == rep.analytic_mem_elems == 10_240

    # Four doublings: windowed total scales exactly x4; the global
    # attention term scales exactly x16 (so the total tends to 16).
    def ad_attn_term(h, w, c, n):
        return 2 * (h * w) ** 2 * c * n * n

    for i in range(4):
        h = 8 << i
        assert flops_wad(2 * h, 2 * h, 16, 3, 2, 4) \
            == 4 * flops_wad(h, h, 16, 3, 2, 4)
        assert ad_attn_term(2 * h, 2 * h, 16, 2) \
            == 16 * ad_attn_term(h, h, 16, 2)

    # Instrumented runs agree with the formulas at every sweep point that
    # fits in memory (the windowed op is linear, so all five points fit).
    for i in range(5):
        h = 8 << i
        r = measure("wad", h, h, 16, 3, 2, m2=4)
        assert r.measured_flops == r.analytic_flops
        assert r.measured_peak_elems == r.analytic_mem_elems
    for i in range(4):
        h = 8 << i
        r = measure("ad", h, h, 16, 3, 2)
        assert r.measured_flops == r.analytic_flops
        assert r.measured_peak_elems == r.analytic_mem_elems
    elapsed = time.perf_counter() - t0
    print(f"\n  exact at all measured points, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_04_zeroed_attention_reduces_stage_to_bilinear():
    rng = np.random.default_rng(7)
    cfg = WauConfig(ratio=2, window=2, heads=2, precision="double")
    stage = WauStage(cfg, lateral_channels=4, source_channels=4, rng=rng)
    lateral = tensor(rng.standard_normal((1, 4, 8, 8)), precision="double")
    source = tensor(rng.standard_normal((1, 4, 4, 4)), precision="double")

    full = stage.forward(source, lateral).numpy()
    attn = stage.decoder.wad_forward(lateral, source).numpy()
    residual = stage.residual(source).numpy()
    additivity = float(np.abs(full - (attn + residual)).max())
    print(f"\n  branch additivity gap {additivity:.3e}")
    assert additivity <= 1e-12

    for _, t in stage.decoder.out_conv.parameters():
        t.data[...] = 0.0
    reduced = stage.forward(source, lateral).numpy()
    plain = bilinear_upsample(source, 2).numpy()
    assert np.array_equal(reduced, plain), \
        "zeroed attention branch must leave exactly the bilinear path"


def test_05_kernels_match_naive_oracles_and_windows_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0

    def gap(a, b):
        return float(np.abs(a - b).max())

    x = rng.normal(size=(2, 4, 8, 8))
    for variant, groups in (("regular", 1), ("grouped", 2)):
        spec = ConvSpec(variant, 4, 6, 3, rng, groups=groups,
                        precision="double")
        got = spec(tensor(x, precision="double")).numpy()
        want = naive_conv2d(x, spec.weight.numpy(), spec.bias.numpy(),
                            groups=groups)
        worst = max(worst, gap(got, want))
    spec = ConvSpec("depthwise_separable", 4, 6, 3, rng, precision="double")
    got = spec(tensor(x, precision="double")).numpy()
    mid = naive_conv2d(x, spec.weight.numpy(), None, groups=4)
    want = naive_conv2d(mid, spec.point_weight.numpy(), spec.bias.numpy())
    worst = max(worst, gap(got, want))

    for factor in (2, 4):
        small = rng.normal(size=(1, 3, 4, 4))
        got = bilinear_upsample(tensor(small, precision="double"),
                                factor).numpy()
        worst = max(worst, gap(got, naive_bilinear(small, factor)))

    for factor, kernel in ((2, 4), (3, 6)):
        small = rng.normal(size=(1, 2, 5, 5))
        layer = TransposedConv(2, 3, factor, rng, kernel=kernel,
                               precision="double")
        got = transposed_conv_upsample(tensor(small, precision="double"),
                                       layer).numpy()
        want = naive_transposed(small, layer.weight.numpy(),
                                layer.bias.numpy(), factor)
        worst = max(worst, gap(got, want))

    print(f"\n  worst oracle gap {worst:.3e}")
    assert worst <= 1e-6

    for window in (2, 4):
        t = tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        grid = partition(t, window)
        assert np.array_equal(merge(grid).numpy(), t.numpy()), \
            "partition/merge must round-trip bitwise"


def test_06_training_reaches_dice_target_and_all_variants_finish(
        wau_acceptance_run, tmp_path):
    t0 = time.perf_counter()
    finals = {}
    histories = {"wau": wau_acceptance_run["run"].history}
    for variant in ("wad_only", "bilinear", "transposed"):
        cfg = RunConfig()
        cfg.model.upsampler = variant
        run = train(cfg, tmp_path / variant)
        histories[variant] = run.history

    for variant, history in histories.items():
        for row in history:
            for value in row.split(",")[2:]:
                assert math.isfinite(float(value)), \
                    f"{variant} produced a non-finite metric: {row}"
        finals[variant] = float(history[-1].split(",")[DSC_COL])

    best_wau = max(float(r.split(",")[DSC_COL]) for r in histories["wau"])
    print("\n  final validation DSC after 20 epochs:")
    for variant in ("wau", "wad_only", "bilinear", "transposed"):
        print(f"    {variant:<11} {finals[variant]:.4f}")
    order = sorted(finals, key=finals.get, reverse=True)
    print(f"  DSC ordering: {' > '.join(order)} (reported, not gated)")
    print(f"  best wau epoch DSC {best_wau:.4f}")

    assert best_wau >= 0.90, "reference run must reach 0.90 validation DSC"
    elapsed = wau_acceptance_run["elapsed"] + (time.perf_counter() - t0)
    print(f"  total training time {elapsed:.0f}s")
    assert elapsed < 600.0


def test_07_same_seed_reruns_are_bytewise_identical(wau_acceptance_run,
                                                    tmp_path):
    rerun = tmp_path / "rerun"
    train(RunConfig(), rerun)
    first = (wau_acceptance_run["out"] / "metrics.csv").read_bytes()
    second = (rerun / "metrics.csv").read_bytes()
    print(f"\n  metrics.csv identical across reruns: {len(first)} bytes")
    assert first == second


def test_08_schedule_hits_peak_and_zero_endpoints_exactly():
    total, warmup, peak = 1000, 100, 1e-4
    at_warmup_end = lr_at(warmup, total, warmup, peak)
    at_final = lr_at(total, total, warmup, peak)
    print(f"\n  lr(warmup end) = {at_warmup_end!r}, lr(final) = {at_final!r}")
    assert at_warmup_end == peak
    assert abs(at_final) <= 1e-12


def test_09_attention_exports_one_deterministic_pgm_per_stage(
        wau_acceptance_run, tmp_path):
    final = wau_acceptance_run["final"]
    cfg = parse_config(final / "config.ini")
    model = build_model_from_config(cfg)
    load_parameters(model, final)

    _, trace = _trace(model, cfg, 0)
    records = trace.get("attention", [])
    assert len(records) == cfg.model.depth
    worst = 0.0
    for rec in records:
        worst = max(worst, float(np.abs(rec.weights.sum(-1) - 1.0).max()))
    print(f"\n  worst attention row-sum deviation {worst:.3e}")
    assert worst <= 1e-6, "weights must be row-stochastic before averaging"

    expected = [f"stage{i + 1}_attn.pgm" for i in range(cfg.model.depth)]
    outputs = {}
    for name in ("a", "b"):
        result = export_attention(model, cfg, 0, tmp_path / name)
        assert not result.notices
        assert [p.name for p in result.files] == expected
        outputs[name] = [p.read_bytes() for p in result.files]
    assert outputs["a"] == outputs["b"], "exports must be deterministic"
    print(f"  wrote {expected} twice, byte-identical")
