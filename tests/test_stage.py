"""Upsampling stages: residual semantics, variant parity, construction by name."""
import numpy as np
import pytest

from wau import metering
from wau.analysis import gradcheck
from wau.attention import WauConfig
from wau.conv import bilinear_upsample
from wau.stage import (UPSAMPLERS, BilinearStage, TransposedStage, WadStage,
                       WauStage, build_stage)
from wau.tensor import ContractError, mul, tensor


def dmaps(lat_c, src_c, h=2, w=2, ratio=2, seed=3, precision="double"):
    rng = np.random.default_rng(seed)
    lat = tensor(rng.normal(size=(1, lat_c, ratio * h, ratio * w)),
                 precision=precision)
    z = tensor(rng.normal(size=(1, src_c, h, w)), precision=precision)
    return lat, z


def wau_stage(lat_c=4, src_c=4, window=2, heads=2, seed=0, precision="double"):
    cfg = WauConfig(ratio=2, window=window, heads=heads, precision=precision)
    return WauStage(cfg, lat_c, src_c, np.random.default_rng(seed))


class TestResidualSemantics:
    def test_zeroed_attention_equals_bilinear_bitwise(self):
        stage = wau_stage(lat_c=4, src_c=4)
        stage.decoder.out_conv.weight.data[:] = 0.0
        stage.decoder.out_conv.bias.data[:] = 0.0
        lat, z = dmaps(4, 4)
        got = stage.forward(z, lat).numpy()
        want = bilinear_upsample(z, 2).numpy()
        np.testing.assert_array_equal(got, want)

    def test_zeroed_attention_constant_input_stays_constant(self):
        stage = wau_stage(lat_c=4, src_c=4)
        stage.decoder.out_conv.weight.data[:] = 0.0
        stage.decoder.out_conv.bias.data[:] = 0.0
        lat, _ = dmaps(4, 4)
        z = tensor(np.full((1, 4, 2, 2), 2.5), precision="double")
        np.testing.assert_array_equal(stage.forward(z, lat).numpy(), 2.5)

    def test_branch_additivity(self):
        stage = wau_stage(lat_c=4, src_c=4)
        lat, z = dmaps(4, 4)
        full = stage.forward(z, lat).numpy()
        attn = stage.decoder.wad_forward(lat, z).numpy()
        res = stage.residual(z).numpy()
        np.testing.assert_allclose(full, attn + res, atol=1e-12)

    def test_channel_adapter_when_source_differs(self):
        stage = wau_stage(lat_c=4, src_c=8)
        assert stage.residual_proj is not None
        lat, z = dmaps(4, 8)
        assert stage.forward(z, lat).shape == (1, 4, 4, 4)

    def test_no_adapter_when_channels_match(self):
        assert wau_stage(lat_c=4, src_c=4).residual_proj is None

    def test_gradcheck_with_adapter(self):
        stage = wau_stage(lat_c=4, src_c=6)
        lat, z = dmaps(4, 6)
        lat.requires_grad = z.requires_grad = True
        weights = tensor(np.random.default_rng(5).normal(size=(1, 4, 4, 4)), precision="double")
        report = gradcheck(lambda: mul(stage.forward(z, lat), weights),
                           [("lateral", lat), ("source", z)] + stage.parameters())
        assert any(n.startswith("residual_proj") for n, _ in stage.parameters())
        assert report.max_rel_error < 1e-7, report

    def test_zeroed_attention_with_adapter_is_the_adapted_interpolation(self):
        for precision in ("single", "double"):
            stage = wau_stage(lat_c=4, src_c=8, precision=precision)
            stage.decoder.out_conv.weight.data[:] = 0.0
            stage.decoder.out_conv.bias.data[:] = 0.0
            stage.residual_proj.bias.data[:] = np.linspace(-1, 1, 4)
            lat, z = dmaps(4, 8, precision=precision)
            want = bilinear_upsample(stage.residual_proj(z), 2).numpy()
            np.testing.assert_array_equal(stage.forward(z, lat).numpy(), want)

    def test_adapter_first_matches_interpolate_first(self):
        # Both maps are linear and each bilinear row sums to 1, so the order
        # changes rounding only.
        stage = wau_stage(lat_c=4, src_c=8)
        stage.residual_proj.bias.data[:] = np.linspace(-1, 1, 4)
        _, z = dmaps(4, 8, h=6, w=4)
        want = stage.residual_proj(bilinear_upsample(z, 2)).numpy()
        np.testing.assert_allclose(stage.residual(z).numpy(), want, rtol=0, atol=1e-12)


class TestVariants:
    def test_bilinear_stage_has_no_parameters(self):
        stage = BilinearStage(4, 2)
        assert stage.parameters() == []
        x = tensor(np.ones((1, 4, 2, 2), dtype=np.float32))
        assert stage.forward(x).shape == (1, 4, 4, 4)

    def test_transposed_stage_shape_and_params(self):
        stage = TransposedStage(4, 6, 2, np.random.default_rng(0))
        x = tensor(np.ones((1, 4, 2, 2), dtype=np.float32))
        assert stage.forward(x).shape == (1, 6, 4, 4)
        names = [n for n, _ in stage.parameters()]
        assert any("weight" in n for n in names)

    def test_wad_stage_requires_lateral(self):
        cfg = WauConfig(ratio=2, window=2, heads=2, precision="double")
        stage = WadStage(cfg, 4, 4, np.random.default_rng(0))
        _, z = dmaps(4, 4)
        with pytest.raises(ContractError):
            stage.forward(z, None)

    def test_kind_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            build_stage("nearest", WauConfig(), 4, 4, rng)
        with pytest.raises(ContractError):
            build_stage("wau", WauConfig(ratio=1), 4, 4, rng)
        with pytest.raises(ContractError):
            build_stage("bilinear", WauConfig(ratio=0), 4, 4, rng)
        cfg = WauConfig(ratio=2, window=2, heads=2)
        stages = {name: build_stage(name, cfg, 8, 4, rng) for name in UPSAMPLERS}
        assert isinstance(stages["wau"], WauStage)
        assert type(stages["wad_only"]) is WadStage
        assert isinstance(stages["bilinear"], BilinearStage)
        assert isinstance(stages["transposed"], TransposedStage)
        assert [stages[n].out_channels for n in UPSAMPLERS] == [8, 4, 4, 4]

    def test_single_ratio_4_stage(self):
        cfg = WauConfig(ratio=4, window=2, heads=2, precision="double")
        stage = WauStage(cfg, 4, 8, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        z = tensor(rng.normal(size=(1, 8, 4, 4)), precision="double")
        lat = tensor(rng.normal(size=(1, 4, 16, 16)), precision="double")
        with metering.recording() as trace:
            out = stage.forward(z, lat)
        assert out.shape == (1, 4, 16, 16)
        # query windows are ratio * kv window = 8 per side
        (rec,) = trace["attention"]
        assert rec.weights.shape == (4, 2, 8 * 8, 2 * 2)
