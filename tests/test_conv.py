"""Convolution and upsampling kernels vs naive-loop oracles, plus gradchecks."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_bilinear, naive_conv2d, naive_transposed
from wau.analysis import gradcheck
from wau.conv import (ConvSpec, TransposedConv, bilinear_upsample, conv2d,
                      maxpool2, transposed_conv_upsample)
from wau.tensor import ContractError, ShapeError, Tape, mul, sum_all, tensor


def dtensor(arr, grad=False):
    t = tensor(arr, precision="double")
    t.requires_grad = grad
    return t


class TestConvForward:
    def test_dirac_kernel_is_identity(self, rng):
        x = tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
        spec = ConvSpec("regular", 1, 1, 3, rng)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        spec.weight.data = w
        spec.bias.data = np.zeros(1, dtype=np.float32)
        np.testing.assert_array_equal(spec(x).numpy(), x.numpy())

    def test_matches_naive_oracle(self, rng):
        x_arr = rng.normal(size=(1, 2, 4, 4))
        spec = ConvSpec("regular", 2, 3, 3, rng, precision="double")
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("h,w,cin,cout,k", [(8, 8, 4, 4, 5), (6, 7, 3, 2, 3),
                                                (8, 5, 1, 4, 1)])
    def test_oracle_sizes_up_to_8(self, rng, h, w, cin, cout, k):
        x_arr = rng.normal(size=(2, cin, h, w))
        spec = ConvSpec("regular", cin, cout, k, rng, precision="double")
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_grouped_matches_oracle(self, rng):
        x_arr = rng.normal(size=(1, 4, 6, 6))
        spec = ConvSpec("grouped", 4, 4, 3, rng, groups=2, precision="double")
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy(), groups=2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_grouped_g1_bitwise_equals_regular(self, rng):
        x = tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        a = ConvSpec("regular", 3, 4, 3, np.random.default_rng(7))
        b = ConvSpec("grouped", 3, 4, 3, np.random.default_rng(7), groups=1)
        b.weight.data = a.weight.numpy()
        b.bias.data = a.bias.numpy()
        np.testing.assert_array_equal(a(x).numpy(), b(x).numpy())

    def test_depthwise_separable_matches_composed_oracle(self, rng):
        x_arr = rng.normal(size=(1, 3, 6, 6))
        spec = ConvSpec("depthwise_separable", 3, 5, 3, rng, precision="double")
        got = spec(dtensor(x_arr)).numpy()
        mid = naive_conv2d(x_arr, spec.weight.numpy(), None, groups=3)
        want = naive_conv2d(mid, spec.point_weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_batch_bitwise_equals_per_item(self, rng):
        x_arr = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
        spec = ConvSpec("regular", 2, 4, 3, rng)
        batched = spec(tensor(x_arr)).numpy()
        for i in range(3):
            single = spec(tensor(x_arr[i:i + 1])).numpy()
            np.testing.assert_array_equal(batched[i:i + 1], single)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ContractError):
            ConvSpec("regular", 2, 2, 4, rng)

    def test_group_divisibility_enforced(self, rng):
        with pytest.raises(ContractError):
            ConvSpec("grouped", 3, 4, 3, rng, groups=2)

    def test_channel_mismatch_rejected(self, rng):
        spec = ConvSpec("regular", 2, 2, 3, rng)
        with pytest.raises(ShapeError):
            spec(tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)))


class TestConvBackward:
    @pytest.mark.parametrize("variant,groups", [("regular", 1), ("grouped", 2),
                                                ("depthwise_separable", 1)])
    def test_gradcheck(self, rng, variant, groups):
        spec = ConvSpec(variant, 2, 4, 3, rng, groups=groups, precision="double")
        x = dtensor(rng.normal(size=(1, 2, 3, 3)), grad=True)
        wrt = [("input", x)] + [(n, t) for n, t in spec.parameters()]
        report = gradcheck(lambda: spec(x), wrt)
        assert report.max_rel_error < 1e-7

    def test_zero_upstream_gives_zero_param_grads(self, rng):
        spec = ConvSpec("regular", 1, 1, 3, rng, precision="double")
        x = dtensor(rng.normal(size=(1, 1, 4, 4)), grad=True)
        with Tape() as tape:
            out = spec(x)
            zeroed = tensor(np.zeros(1), precision="double")
            from wau.tensor import mul, reshape
            loss = sum_all(mul(reshape(out, (16,)),
                               tensor(np.zeros(16), precision="double")))
            tape.backward(loss)
        assert not spec.weight.grad.any()
        assert not x.grad.any()


class TestBilinear:
    def test_factor_1_identity_bitwise(self, rng):
        x = tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(bilinear_upsample(x, 1).numpy(), x.numpy())

    @given(factor=st.integers(2, 4), value=st.floats(-5, 5, width=32))
    def test_constant_preserved(self, factor, value):
        x = tensor(np.full((1, 2, 3, 3), value, dtype=np.float32))
        out = bilinear_upsample(x, factor).numpy()
        np.testing.assert_allclose(out, value, atol=1e-5)

    @pytest.mark.parametrize("factor,h,w", [(2, 3, 4), (3, 2, 2), (4, 2, 3)])
    def test_matches_per_pixel_oracle(self, rng, factor, h, w):
        x_arr = rng.normal(size=(1, 2, h, w))
        got = bilinear_upsample(dtensor(x_arr), factor).numpy()
        np.testing.assert_allclose(got, naive_bilinear(x_arr, factor), atol=1e-6)

    def test_gradcheck(self, rng):
        x = dtensor(rng.normal(size=(1, 2, 3, 3)), grad=True)
        report = gradcheck(lambda: bilinear_upsample(x, 2), [("input", x)])
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize("factor,h,w", [(2, 3, 3), (2, 3, 5), (3, 4, 2), (4, 2, 3)])
    def test_gradcheck_weighted(self, rng, factor, h, w):
        x = dtensor(rng.normal(size=(1, 2, h, w)), grad=True)
        weights = dtensor(rng.normal(size=(1, 2, h * factor, w * factor)))
        report = gradcheck(lambda: mul(bilinear_upsample(x, factor), weights),
                           [("input", x)])
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_backward_is_the_adjoint(self, rng, factor):
        # <U x, g> = <x, U^T g>, with U^T g taken from the backward pass
        x = dtensor(rng.normal(size=(2, 3, 4, 5)), grad=True)
        g = rng.normal(size=(2, 3, 4 * factor, 5 * factor))
        with Tape() as tape:
            up = bilinear_upsample(x, factor)
            tape.backward(sum_all(mul(up, dtensor(g))))
        lhs = float((up.data * g).sum())
        rhs = float((x.data * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_batch_bitwise_equals_per_item(self, rng):
        x_arr = rng.normal(size=(3, 4, 5, 6)).astype(np.float32)
        batched = bilinear_upsample(tensor(x_arr), 2).numpy()
        for i in range(3):
            single = bilinear_upsample(tensor(x_arr[i:i + 1]), 2).numpy()
            np.testing.assert_array_equal(batched[i:i + 1], single)

    def test_factor_must_be_positive(self, rng):
        with pytest.raises(ContractError):
            bilinear_upsample(tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)), 0)


class TestTransposed:
    def test_zero_weights_zero_output(self, rng):
        tc = TransposedConv(2, 3, 2, rng)
        tc.weight.data[:] = 0.0
        tc.bias.data[:] = 0.0
        x = tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        out = transposed_conv_upsample(x, tc)
        assert out.shape == (1, 3, 6, 6)
        assert not out.numpy().any()

    def test_single_pixel_kernel2_expansion(self, rng):
        # kernel equal to the factor: a 1x1 input paints the kernel verbatim
        tc = TransposedConv(1, 1, 2, rng, kernel=2, precision="double")
        tc.bias.data[:] = 0.0
        x = dtensor([[[[3.0]]]])
        out = transposed_conv_upsample(x, tc).numpy()
        np.testing.assert_allclose(out[0, 0], 3.0 * tc.weight.numpy()[0, 0],
                                   atol=1e-12)

    @pytest.mark.parametrize("factor,h,w,k", [(2, 3, 3, 4), (2, 4, 3, 2),
                                              (3, 2, 2, 6), (3, 2, 3, 3)])
    def test_matches_scatter_oracle(self, rng, factor, h, w, k):
        x_arr = rng.normal(size=(2, 2, h, w))
        tc = TransposedConv(2, 3, factor, rng, kernel=k, precision="double")
        got = transposed_conv_upsample(dtensor(x_arr), tc).numpy()
        want = naive_transposed(x_arr, tc.weight.numpy(), tc.bias.numpy(), factor)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_gradcheck(self, rng):
        tc = TransposedConv(2, 2, 2, rng, precision="double")
        x = dtensor(rng.normal(size=(1, 2, 3, 3)), grad=True)
        wrt = [("input", x)] + [(n, t) for n, t in tc.parameters()]
        report = gradcheck(lambda: transposed_conv_upsample(x, tc), wrt)
        assert report.max_rel_error < 1e-7


class TestMaxpool:
    def test_forward_values(self):
        x = tensor(np.array([[[[1.0, 2.0, 5.0, 3.0],
                               [4.0, 3.0, 2.0, 1.0],
                               [0.0, 1.0, 8.0, 2.0],
                               [1.0, 0.0, 3.0, 9.0]]]], dtype=np.float32))
        out = maxpool2(x).numpy()
        np.testing.assert_array_equal(out[0, 0], [[4.0, 5.0], [1.0, 9.0]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2(tensor(np.zeros((1, 1, 3, 4), dtype=np.float32)))

    def test_tie_routes_gradient_to_first(self):
        x = dtensor(np.full((1, 1, 2, 2), 2.0), grad=True)
        with Tape() as tape:
            tape.backward(sum_all(maxpool2(x)))
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_gradcheck(self, rng):
        # distinct values so the argmax is stable under the probe step
        base = np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4)
        x = dtensor(rng.permuted(base, axis=None).reshape(1, 2, 4, 4), grad=True)
        report = gradcheck(lambda: maxpool2(x), [("input", x)], step=1e-6)
        assert report.max_rel_error < 1e-6
