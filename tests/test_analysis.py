"""Closed-form cost laws vs instrumented runs; gradient checker plumbing."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wau.analysis import (GradcheckReport, broken_scale, build_gradcheck_target,
                          count_params, flops_ad, flops_wad, gradcheck, measure,
                          mem_ad, mem_wad)
from wau.conv import ConvSpec
from wau.tensor import ContractError, tensor


class TestClosedForms:
    def test_worked_flop_values(self):
        assert flops_ad(8, 8, 16, 3, 2) == 1_474_560 + 524_288 == 1_998_848
        assert flops_wad(8, 8, 16, 3, 2, 4) == 1_474_560 + 131_072 == 1_605_632

    def test_worked_memory_values(self):
        assert mem_ad(8, 8, 16, 2) == 6_144 + 16_384 == 22_528
        assert mem_wad(8, 8, 16, 2, 4) == 6_144 + 4_096 == 10_240

    def test_unit_size_symbolic_reduction(self):
        # H2W2 = 1, n = 1: the conv term collapses to 4 C^2 k^2, attention to 2C
        for c in (1, 3, 16):
            for k in (1, 3):
                assert flops_ad(1, 1, c, k, 1) == 4 * c * c * k * k + 2 * c

    def test_single_window_equals_global_attention_term(self):
        # M2^2 = H2 * W2 makes the windowed attention term global
        h = w = 4
        conv_term = flops_wad(h, w, 8, 3, 2, 4) - 2 * h * w * 8 * 4 * 16
        assert (flops_wad(h, w, 8, 3, 2, 4) - conv_term
                == flops_ad(h, w, 8, 3, 2) - conv_term)

    @given(h=st.integers(1, 16), w=st.integers(1, 16), c=st.integers(1, 32),
           k=st.sampled_from([1, 3, 5]), n=st.integers(1, 4))
    def test_wad_never_exceeds_ad(self, h, w, c, k, n):
        # any window no larger than the map attends to no more than global
        m2 = 1
        assert flops_wad(h, w, c, k, n, m2) <= flops_ad(h, w, c, k, n)
        assert mem_wad(h, w, c, n, m2) <= mem_ad(h, w, c, n)

    def test_doubling_laws(self):
        # WAD total is linear in H2W2: each doubling of both dims is exactly 4x
        prev_wad, prev_attn = None, None
        for i in range(4):
            h = 8 << i
            total = flops_wad(h, h, 16, 3, 2, 4)
            attn = flops_ad(h, h, 16, 3, 2) - 2 * h * h * 16 * 16 * 9 * 5
            if prev_wad is not None:
                assert total == 4 * prev_wad
                assert attn == 16 * prev_attn
            prev_wad, prev_attn = total, attn

    def test_rejects_nonpositive_and_bool(self):
        with pytest.raises(ContractError):
            flops_ad(0, 8, 16, 3, 2)
        with pytest.raises(ContractError):
            flops_wad(8, 8, 16, 3, 2, -1)
        with pytest.raises(ContractError):
            mem_ad(True, 8, 16, 2)


class TestMeasure:
    def test_ad_worked_example(self):
        rep = measure("ad", 8, 8, 16, 3, 2)
        assert rep.measured_flops == rep.analytic_flops == 1_998_848
        assert rep.measured_peak_elems == rep.analytic_mem_elems == 22_528

    def test_wad_worked_example(self):
        rep = measure("wad", 8, 8, 16, 3, 2, m2=4)
        assert rep.measured_flops == rep.analytic_flops == 1_605_632
        assert rep.measured_peak_elems == rep.analytic_mem_elems == 10_240

    @pytest.mark.parametrize("h,w,c,k,n,m2", [(2, 2, 4, 1, 2, 2), (4, 6, 8, 5, 3, 2),
                                              (4, 4, 4, 3, 2, 1)])
    def test_other_configs_reconcile(self, h, w, c, k, n, m2):
        rep = measure("wad", h, w, c, k, n, m2=m2)
        assert rep.measured_flops == rep.analytic_flops
        rep = measure("ad", h, w, c, k, n)
        assert rep.measured_flops == rep.analytic_flops

    def test_wad_requires_window(self):
        with pytest.raises(ContractError):
            measure("wad", 4, 4, 4, 3, 2)

    def test_ad_rejects_window(self):
        # a global decode has no window; a row labelled m2=4 would misreport it
        with pytest.raises(ContractError, match="window"):
            measure("ad", 8, 8, 16, 3, 2, m2=4)

    def test_csv_row_contains_worked_value(self):
        rep = measure("wad", 8, 8, 16, 3, 2, m2=4)
        assert "1605632" in rep.csv_row()


class TestCountParams:
    def test_single_conv_with_bias(self, rng):
        assert count_params(ConvSpec("regular", 1, 1, 3, rng)) == 10

    def test_qkv_projection_count(self, rng):
        c = 8
        total = sum(count_params(ConvSpec("regular", c, c, 3, rng, bias=False))
                    for _ in range(3))
        assert total == 3 * 9 * c * c

    def test_depthwise_separable_decomposition(self, rng):
        c = 8
        spec = ConvSpec("depthwise_separable", c, c, 3, rng, bias=False)
        assert count_params(spec) == 9 * c + c * c


class TestGradcheck:
    def test_bilinear_stage_target(self):
        forward, wrt = build_gradcheck_target("bilinear_stage")
        assert gradcheck(forward, wrt).max_rel_error < 1e-7

    def test_broken_fixture_detected(self):
        forward, wrt = build_gradcheck_target("broken_fixture")
        assert gradcheck(forward, wrt).max_rel_error > 1e-2

    def test_broken_scale_directly(self):
        x = tensor([1.0, -2.0], precision="double")
        x.requires_grad = True
        report = gradcheck(lambda: broken_scale(x), [("input", x)])
        assert report.max_rel_error == pytest.approx(0.05, rel=1e-6)

    def test_single_precision_rejected(self):
        x = tensor([1.0])
        x.requires_grad = True
        with pytest.raises(ContractError):
            gradcheck(lambda: x, [("input", x)])

    def test_requires_grad_enforced(self):
        x = tensor([1.0], precision="double")
        with pytest.raises(ContractError):
            gradcheck(lambda: x, [("input", x)])

    def test_unknown_target_rejected(self):
        with pytest.raises(ContractError):
            build_gradcheck_target("nonexistent")

    def test_report_str_mentions_location(self):
        rep = GradcheckReport(1e-9, "weights", 3, 0.5, 0.5, 10)
        assert "weights[3]" in str(rep)
