"""Convolution and upsampling kernels vs naive-loop oracles, plus gradchecks."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_bilinear, naive_conv2d, naive_transposed
from wau import metering
from wau.analysis import gradcheck
from wau.conv import (ConvSpec, TransposedConv, _axis_matrix, _block_rows, _grouped_conv,
                      bilinear_upsample, conv2d, maxpool2, transposed_conv_upsample)
from wau.tensor import (ContractError, NumericsError, ShapeError, Tape, Tensor, cast, mul,
                        op_result, record, sum_all, tensor)


def dtensor(arr, grad=False):
    t = tensor(arr, precision="double")
    t.requires_grad = grad
    return t


class TestConvForward:
    def test_dirac_kernel_is_identity(self, rng):
        x = tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
        spec = cast(ConvSpec("regular", 1, 1, 3, rng), "single")
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        spec.weight.data = w
        spec.bias.data = np.zeros(1, dtype=np.float32)
        np.testing.assert_array_equal(spec(x).numpy(), x.numpy())

    def test_matches_naive_oracle(self, rng):
        x_arr = rng.normal(size=(1, 2, 4, 4))
        spec = ConvSpec("regular", 2, 3, 3, rng)
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("h,w,cin,cout,k", [(8, 8, 4, 4, 5), (6, 7, 3, 2, 3),
                                                (8, 5, 1, 4, 1)])
    def test_oracle_sizes_up_to_8(self, rng, h, w, cin, cout, k):
        x_arr = rng.normal(size=(2, cin, h, w))
        spec = ConvSpec("regular", cin, cout, k, rng)
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_grouped_matches_oracle(self, rng):
        x_arr = rng.normal(size=(1, 4, 6, 6))
        spec = ConvSpec("grouped", 4, 4, 3, rng, groups=2)
        got = spec(dtensor(x_arr)).numpy()
        want = naive_conv2d(x_arr, spec.weight.numpy(), spec.bias.numpy(), groups=2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_grouped_g1_bitwise_equals_regular(self, rng):
        x = tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        a = cast(ConvSpec("regular", 3, 4, 3, np.random.default_rng(7)), "single")
        b = cast(ConvSpec("grouped", 3, 4, 3, np.random.default_rng(7), groups=1), "single")
        b.weight.data = a.weight.numpy()
        b.bias.data = a.bias.numpy()
        np.testing.assert_array_equal(a(x).numpy(), b(x).numpy())

    def test_depthwise_separable_matches_composed_oracle(self, rng):
        x_arr = rng.normal(size=(1, 3, 6, 6))
        spec = ConvSpec("depthwise_separable", 3, 5, 3, rng)
        got = spec(dtensor(x_arr)).numpy()
        mid = naive_conv2d(x_arr, spec.weight.numpy(), None, groups=3)
        want = naive_conv2d(mid, spec.point_weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_batch_bitwise_equals_per_item(self, rng):
        x_arr = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
        spec = cast(ConvSpec("regular", 2, 4, 3, rng), "single")
        batched = spec(tensor(x_arr)).numpy()
        for i in range(3):
            single = spec(tensor(x_arr[i:i + 1])).numpy()
            np.testing.assert_array_equal(batched[i:i + 1], single)

    @pytest.mark.parametrize("variant,centre_only,op", [
        ("regular", False, "conv2d"),
        ("depthwise_separable", False, "depthwise_conv"),
        # a centre-tap depthwise passes 3e38 through; the pointwise sum overflows
        ("depthwise_separable", True, "pointwise_conv")])
    def test_overflow_names_the_op(self, rng, variant, centre_only, op):
        spec = cast(ConvSpec(variant, 2, 2, 3, rng), "single")
        spec.weight.data[:] = 0.0 if centre_only else 1.0
        spec.weight.data[..., 1, 1] = 1.0
        if spec.point_weight is not None:
            spec.point_weight.data[:] = 1.0
        x = tensor(np.full((1, 2, 3, 3), 3e38, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match=op):
            spec(x)

    def test_one_channel_forward_holds_no_output_sized_temporary(self, rng):
        # The tap products and their running sum live in row blocks; a
        # padded-width sum or tap product of the whole map would not fit here.
        spec = cast(ConvSpec("regular", 1, 8, 3, rng), "single")
        x = tensor(rng.normal(size=(4, 1, 128, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = spec(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        padded_input = 4 * 1 * (130 * 130 + 2) * 4
        assert peak - padded_input - out.data.nbytes < out.data.nbytes // 2

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ContractError):
            ConvSpec("regular", 2, 2, 4, rng)

    def test_group_divisibility_enforced(self, rng):
        with pytest.raises(ContractError):
            ConvSpec("grouped", 3, 4, 3, rng, groups=2)

    def test_channel_mismatch_rejected(self, rng):
        spec = cast(ConvSpec("regular", 2, 2, 3, rng), "single")
        with pytest.raises(ShapeError):
            spec(tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)))


class TestConvBackward:
    @pytest.mark.parametrize("variant,groups", [("regular", 1), ("grouped", 2),
                                                ("depthwise_separable", 1)])
    def test_gradcheck(self, rng, variant, groups):
        spec = ConvSpec(variant, 2, 4, 3, rng, groups=groups)
        x = dtensor(rng.normal(size=(1, 2, 3, 3)), grad=True)
        wrt = [("input", x)] + [(n, t) for n, t in spec.parameters()]
        report = gradcheck(lambda: spec(x), wrt)
        assert report.max_rel_error < 1e-7

    def test_zero_upstream_gives_zero_param_grads(self, rng):
        spec = ConvSpec("regular", 1, 1, 3, rng)
        x = dtensor(rng.normal(size=(1, 1, 4, 4)), grad=True)
        with Tape() as tape:
            out = spec(x)
            loss = sum_all(mul(out, tensor(np.zeros(out.shape), precision="double")))
            tape.backward(loss)
        assert not spec.weight.grad.any()
        assert not x.grad.any()

    VARIANTS = [("regular", 1), ("grouped", 2), ("depthwise_separable", 1)]

    @staticmethod
    def weighted_grads(spec, x_arr, weights, precision):
        x = tensor(x_arr, precision=precision)
        x.requires_grad = True
        with Tape() as tape:
            tape.backward(sum_all(mul(spec(x), tensor(weights, precision=precision))))
        return x.grad, {n: t.grad for n, t in spec.parameters()}

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("variant,groups", VARIANTS)
    def test_gradcheck_weighted(self, rng, variant, groups, k):
        spec = ConvSpec(variant, 2, 4, k, rng, groups=groups)
        spec.bias.data = rng.normal(size=4)
        x = dtensor(rng.normal(size=(2, 2, 4, 5)), grad=True)
        weights = dtensor(rng.normal(size=(2, 4, 4, 5)))
        wrt = [("input", x)] + [(n, t) for n, t in spec.parameters()]
        report = gradcheck(lambda: mul(spec(x), weights), wrt)
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize("variant,cin,cout", [("regular", 1, 4), ("regular", 3, 1),
                                                  ("depthwise_separable", 3, 2)])
    def test_gradcheck_inner_dim_1(self, rng, variant, cin, cout):
        # Tap products with inner dimension 1 (one input channel, one output
        # channel, depthwise) are broadcast multiplies rather than matmuls.
        spec = ConvSpec(variant, cin, cout, 3, rng)
        spec.bias.data = rng.normal(size=cout)
        x = dtensor(rng.normal(size=(2, cin, 5, 4)), grad=True)
        weights = dtensor(rng.normal(size=(2, cout, 5, 4)))
        wrt = [("input", x)] + [(n, t) for n, t in spec.parameters()]
        report = gradcheck(lambda: mul(spec(x), weights), wrt)
        assert report.max_rel_error < 1e-7
        if variant == "regular":
            want = naive_conv2d(x.numpy(), spec.weight.numpy(), spec.bias.numpy())
        else:
            mid = naive_conv2d(x.numpy(), spec.weight.numpy(), None, groups=cin)
            want = naive_conv2d(mid, spec.point_weight.numpy(), spec.bias.numpy())
        np.testing.assert_allclose(spec(x).numpy(), want, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("variant,groups", VARIANTS)
    def test_input_grad_batch_bitwise_equals_per_item(self, rng, variant, groups, k):
        spec = cast(ConvSpec(variant, 4, 6, k, rng, groups=groups), "single")
        x_arr = rng.normal(size=(3, 4, 6, 7)).astype(np.float32)
        weights = rng.normal(size=(3, 6, 6, 7)).astype(np.float32)
        batched, _ = self.weighted_grads(spec, x_arr, weights, "single")
        for i in range(3):
            single, _ = self.weighted_grads(spec, x_arr[i:i + 1], weights[i:i + 1], "single")
            np.testing.assert_array_equal(batched[i:i + 1], single)

    @pytest.mark.parametrize("hw", [(6, 7), (127, 100)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("variant,groups", VARIANTS + [("grouped", 4)])
    def test_batch_bitwise_equals_per_item_in_row_blocks(self, rng, variant, groups, k, hw):
        # 127 x 100 spans several row blocks and ends in a shorter one.
        # groups = C_out leaves one output channel per group: a matrix-vector
        # product, whose rounding can depend on a column's place in the call,
        # so only blocks that do not depend on N keep it bitwise.
        H, W = hw
        if H > 100:
            rows = _block_rows(H, W + k - 1)
            assert rows < H and H % rows
        spec = cast(ConvSpec(variant, 16, 4, k, rng, groups=groups), "single")
        x_arr = rng.normal(size=(3, 16, H, W)).astype(np.float32)
        weights = rng.normal(size=(3, 4, H, W)).astype(np.float32)
        batched_out = spec(tensor(x_arr)).numpy()
        batched, _ = self.weighted_grads(spec, x_arr, weights, "single")
        for i in range(3):
            one = slice(i, i + 1)
            np.testing.assert_array_equal(batched_out[one], spec(tensor(x_arr[one])).numpy())
            single, _ = self.weighted_grads(spec, x_arr[one], weights[one], "single")
            np.testing.assert_array_equal(batched[one], single)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("variant,groups", VARIANTS)
    def test_backward_is_the_adjoint_across_row_blocks(self, rng, variant, groups, k):
        # Without bias the output is linear in x and in each weight, so
        # <out, g> = <x, dx> = <w, dw>; 70 x 70 spans two row blocks.
        assert _block_rows(70, 70 + k - 1) < 70
        spec = ConvSpec(variant, 4, 6, k, rng, groups=groups)
        x = dtensor(rng.normal(size=(2, 4, 70, 70)), grad=True)
        g = rng.normal(size=(2, 6, 70, 70))
        with Tape() as tape:
            out = spec(x)
            tape.backward(sum_all(mul(out, dtensor(g))))
        lhs = float((out.data * g).sum())
        for t in [x] + [t for n, t in spec.parameters() if n != "bias"]:
            assert abs(lhs - float((t.data * t.grad).sum())) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("variant,groups", VARIANTS)
    def test_input_without_grad_skips_its_gradient(self, rng, variant, groups):
        spec = cast(ConvSpec(variant, 4, 6, 3, rng, groups=groups), "single")
        spec.bias.data = rng.normal(size=6).astype(np.float32)
        x_arr = rng.normal(size=(2, 4, 9, 7)).astype(np.float32)
        weights = tensor(rng.normal(size=(2, 6, 9, 7)).astype(np.float32))
        grads = []
        for needs_grad in (True, False):
            x = tensor(x_arr)
            x.requires_grad = needs_grad
            with Tape() as tape:
                tape.backward(sum_all(mul(spec(x), weights)))
                grads.append((x.grad, {n: t.grad.copy() for n, t in spec.parameters()}))
                tape.reset()
        (gx_with, params_with), (gx_without, params_without) = grads
        assert gx_with is not None and gx_without is None
        for name, g in params_with.items():
            np.testing.assert_array_equal(params_without[name], g)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("variant,groups", VARIANTS)
    def test_single_matches_double(self, rng, variant, groups, k):
        s64 = ConvSpec(variant, 4, 6, k, np.random.default_rng(5), groups=groups)
        s32 = cast(ConvSpec(variant, 4, 6, k, np.random.default_rng(5), groups=groups),
                   "single")
        s64.bias.data = rng.normal(size=6)
        for (_, t32), (_, t64) in zip(s32.parameters(), s64.parameters()):
            t32.data = t64.data.astype(np.float32)
            t64.data = t32.data.astype(np.float64)
        x_arr = rng.normal(size=(2, 4, 9, 7)).astype(np.float32)
        weights = rng.normal(size=(2, 6, 9, 7)).astype(np.float32)
        gx32, gp32 = self.weighted_grads(s32, x_arr, weights, "single")
        gx64, gp64 = self.weighted_grads(s64, x_arr.astype(np.float64),
                                         weights.astype(np.float64), "double")

        def rel_l2(a, b):
            return np.linalg.norm(a.astype(np.float64) - b) / np.linalg.norm(b)

        assert rel_l2(gx32, gx64) <= 1e-5
        for name in gp64:
            assert rel_l2(gp32[name], gp64[name]) <= 1e-5, name

    def test_forward_keeps_only_its_output(self, rng):
        # The backward re-pads the input; keeping the padded copy would hold
        # another input-sized array, and patches 9x the input.
        spec = cast(ConvSpec("regular", 8, 8, 3, rng), "single")
        x = tensor(rng.normal(size=(4, 8, 64, 64)).astype(np.float32))
        x.requires_grad = True
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = spec(x)
                held = tracemalloc.get_traced_memory()[0] - before
                tape.backward(sum_all(out))
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * out.data.nbytes
        assert x.grad is not None

    def test_backward_peak_is_a_few_maps_not_patches(self, rng):
        # Shifted-tap backward holds O(1) padded maps; patches would be 9x the input.
        spec = cast(ConvSpec("regular", 8, 8, 3, rng), "single")
        x = tensor(rng.normal(size=(4, 8, 64, 64)).astype(np.float32))
        x.requires_grad = True
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = spec(x)
                loss = sum_all(out)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        padded_input = 4 * 8 * (66 * 66 + 2) * 4
        assert peak <= 4 * (padded_input + out.data.nbytes)


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

    def test_axis_matrix_is_cached_read_only(self):
        u = _axis_matrix(5, 2, np.dtype(np.float32))
        assert _axis_matrix(5, 2, np.dtype(np.float32)) is u
        assert _axis_matrix(5, 2, np.dtype(np.float64)) is not u
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 7.0
        np.testing.assert_array_equal(u.sum(axis=1), 1.0)

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

    @pytest.mark.parametrize("factor", [2, 3])
    def test_input_grad_batch_bitwise_equals_per_item(self, rng, factor):
        x_arr = rng.normal(size=(3, 4, 9, 7)).astype(np.float32)
        weights = rng.normal(size=(3, 4, 9 * factor, 7 * factor)).astype(np.float32)

        def input_grad(one):
            x = tensor(x_arr[one])
            x.requires_grad = True
            with Tape() as tape:
                tape.backward(sum_all(mul(bilinear_upsample(x, factor), tensor(weights[one]))))
            return x.grad

        batched = input_grad(slice(0, 3))
        for i in range(3):
            np.testing.assert_array_equal(batched[i:i + 1], input_grad(slice(i, i + 1)))

    def test_factor_must_be_positive(self, rng):
        with pytest.raises(ContractError):
            bilinear_upsample(tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)), 0)


def phase_conv_transposed(x: Tensor, layer: TransposedConv) -> Tensor:
    """The transposed upsampler in its unfused phase form, the bitwise reference
    of transposed_conv_upsample: the weight re-laid, zero-filled, into a phase
    weight (n*n*C_out, C, K, K); one stride-1 conv over all K*K taps, zero taps
    included; then a pixel shuffle plus bias. Three tape nodes."""
    N, C, H, W = x.shape
    n, k, C_out = layer.factor, layer.kernel, layer.out_channels
    a = np.arange(k)
    phase = (a - (k - n) // 2) % n
    d = (phase + (k - n) // 2 - a) // n
    p = int(np.abs(d).max())
    tap, K = d + p, 2 * p + 1
    where = (slice(None), phase[:, None], phase[None, :], slice(None), tap[:, None], tap[None, :])
    wide = np.zeros((C_out, n, n, C, K, K), dtype=x.data.dtype)
    wide[where] = layer.weight.data.transpose(2, 3, 1, 0)
    phase_weight = Tensor(wide.reshape(n * n * C_out, C, K, K))
    record("transposed_phase_weight", (layer.weight,), phase_weight,
           lambda g, acc: acc.add(0, g.reshape(wide.shape)[where].transpose(3, 2, 0, 1)))
    phases = _grouped_conv(x, phase_weight, None, 1, "phase_conv")
    shuffled = np.empty((N, C_out, H, n, W, n), dtype=x.data.dtype)
    by_phase = phases.data.reshape(N, C_out, n, n, H, W)
    for py in range(n):
        for px in range(n):
            np.add(by_phase[:, :, py, px], layer.bias.data.reshape(1, C_out, 1, 1),
                   out=shuffled[:, :, :, py, :, px])

    def fn(g, acc):
        acc.add(0, g.reshape(shuffled.shape).transpose(0, 1, 3, 5, 2, 4).reshape(phases.shape))
        acc.add(1, g.sum(axis=(0, 2, 3), dtype=x.data.dtype))

    return op_result("pixel_shuffle", (phases, layer.bias),
                     shuffled.reshape(N, C_out, n * H, n * W), fn)


class TestTransposed:
    @staticmethod
    def outputs_and_grads(op, layer, x_arr, weights):
        """op's output and the gradients of sum(op(x) * weights) wrt x, the
        layer's weight and its bias, as bytes."""
        precision = "double" if x_arr.dtype == np.float64 else "single"
        x = tensor(x_arr, precision=precision)
        x.requires_grad = True
        layer.weight.grad = layer.bias.grad = None
        with Tape() as tape:
            out = op(x, layer)
            tape.backward(sum_all(mul(out, tensor(weights, precision=precision))))
        return [a.tobytes() for a in (out.data, x.grad, layer.weight.grad, layer.bias.grad)]

    # N in {1, 3, 4} on small maps, and a 64 x 64 map: more than one row
    # block, in the forward (_BLOCK_COLS / n**2 columns) and the backward.
    @pytest.mark.parametrize("shape", [(1, 16, 5, 6), (3, 16, 5, 6), (4, 5, 6, 5),
                                       (2, 16, 64, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor,k", [(2, 4), (2, 2), (2, 3), (2, 5), (3, 3), (3, 4),
                                          (3, 6), (4, 8)])
    def test_bitwise_equals_phase_conv_reference(self, rng, factor, k, dtype, shape):
        # The fused op adds each output's real taps in the reference's tap
        # order and runs the reference's backward. (At C_out = 1 a phase's
        # product is a matrix-vector one, whose last bit can differ.)
        N, C, H, W = shape
        C_out = 8 if H > 32 else 3
        precision = "double" if dtype == np.float64 else "single"
        tc = cast(TransposedConv(C, C_out, factor, rng, kernel=k), precision)
        tc.bias.data = rng.normal(size=C_out).astype(dtype)
        x_arr = rng.normal(size=shape).astype(dtype)
        weights = rng.normal(size=(N, C_out, factor * H, factor * W)).astype(dtype)
        got = self.outputs_and_grads(transposed_conv_upsample, tc, x_arr, weights)
        want = self.outputs_and_grads(phase_conv_transposed, tc, x_arr, weights)
        assert [g == w for g, w in zip(got, want)] == [True] * 4

    def test_zero_weights_zero_output(self, rng):
        tc = cast(TransposedConv(2, 3, 2, rng), "single")
        tc.weight.data[:] = 0.0
        tc.bias.data[:] = 0.0
        x = tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        out = transposed_conv_upsample(x, tc)
        assert out.shape == (1, 3, 6, 6)
        assert not out.numpy().any()

    def test_single_pixel_kernel2_expansion(self, rng):
        # kernel equal to the factor: a 1x1 input paints the kernel verbatim
        tc = TransposedConv(1, 1, 2, rng, kernel=2)
        tc.bias.data[:] = 0.0
        x = dtensor([[[[3.0]]]])
        out = transposed_conv_upsample(x, tc).numpy()
        np.testing.assert_allclose(out[0, 0], 3.0 * tc.weight.numpy()[0, 0],
                                   atol=1e-12)

    @pytest.mark.parametrize("factor,h,w,k", [(2, 3, 3, 4), (2, 4, 3, 2),
                                              (3, 2, 2, 6), (3, 2, 3, 3)])
    def test_matches_scatter_oracle(self, rng, factor, h, w, k):
        x_arr = rng.normal(size=(2, 2, h, w))
        tc = TransposedConv(2, 3, factor, rng, kernel=k)
        got = transposed_conv_upsample(dtensor(x_arr), tc).numpy()
        want = naive_transposed(x_arr, tc.weight.numpy(), tc.bias.numpy(), factor)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_gradcheck(self, rng):
        tc = TransposedConv(2, 2, 2, rng)
        x = dtensor(rng.normal(size=(1, 2, 3, 3)), grad=True)
        wrt = [("input", x)] + [(n, t) for n, t in tc.parameters()]
        report = gradcheck(lambda: transposed_conv_upsample(x, tc), wrt)
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize("factor,k", [(2, 4), (2, 2), (3, 6), (3, 3)])
    def test_gradcheck_weighted(self, rng, factor, k):
        # k = n gives 1x1 phase convolutions; at (3, 6) the phases read input
        # offsets {0, -1} or {1, 0}, an asymmetric 3x3 phase kernel.
        tc = TransposedConv(2, 3, factor, rng, kernel=k)
        tc.bias.data = rng.normal(size=3)
        x = dtensor(rng.normal(size=(2, 2, 3, 2)), grad=True)
        weights = dtensor(rng.normal(size=(2, 3, 3 * factor, 2 * factor)))
        wrt = [("input", x)] + [(n, t) for n, t in tc.parameters()]
        report = gradcheck(lambda: mul(transposed_conv_upsample(x, tc), weights), wrt)
        assert report.max_rel_error < 1e-7

    def test_batch_bitwise_equals_per_item(self, rng):
        tc = cast(TransposedConv(4, 3, 2, rng), "single")
        tc.bias.data = rng.normal(size=3).astype(np.float32)
        x_arr = rng.normal(size=(3, 4, 5, 6)).astype(np.float32)
        batched = transposed_conv_upsample(tensor(x_arr), tc).numpy()
        for i in range(3):
            single = transposed_conv_upsample(tensor(x_arr[i:i + 1]), tc).numpy()
            np.testing.assert_array_equal(batched[i:i + 1], single)

    @pytest.mark.parametrize("hw", [(5, 6), (64, 64)])
    @pytest.mark.parametrize("factor,k", [(2, 4), (3, 6)])
    def test_input_grad_batch_bitwise_equals_per_item(self, rng, factor, k, hw):
        tc = cast(TransposedConv(16, 8, factor, rng, kernel=k), "single")
        x_arr = rng.normal(size=(3, 16) + hw).astype(np.float32)
        weights = rng.normal(size=(3, 8, factor * hw[0], factor * hw[1])).astype(np.float32)
        batched = self.outputs_and_grads(transposed_conv_upsample, tc, x_arr, weights)[1]
        size = len(batched) // 3
        for i in range(3):
            one = slice(i, i + 1)
            single = self.outputs_and_grads(transposed_conv_upsample, tc, x_arr[one],
                                            weights[one])[1]
            assert batched[i * size:(i + 1) * size] == single

    def test_overflow_names_the_op(self, rng):
        tc = cast(TransposedConv(2, 2, 2, rng), "single")
        tc.weight.data[:] = 1.0
        x = tensor(np.full((1, 2, 3, 3), 3e38, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericsError,
                                                      match="transposed_conv_upsample"):
            transposed_conv_upsample(x, tc)


class TestMacCounts:
    """Each layer reports its logical multiply-adds, whatever its kernel runs."""

    @staticmethod
    def counted(fn) -> dict:
        meter = metering.CostMeter()
        with meter.active():
            fn()
        return meter.macs

    @pytest.mark.parametrize("variant,groups", [("regular", 1), ("grouped", 2),
                                                ("depthwise_separable", 1)])
    def test_conv_variants(self, rng, variant, groups):
        N, C, C_out, H, W, k = 2, 4, 6, 5, 7, 3
        spec = cast(ConvSpec(variant, C, C_out, k, rng, groups=groups), "single")
        x = tensor(rng.normal(size=(N, C, H, W)).astype(np.float32))
        want = {"regular": N * H * W * C * k * k * C_out,
                "grouped": N * H * W * (C // 2) * k * k * C_out,
                "depthwise_separable": N * H * W * C * k * k + N * H * W * C * C_out}
        assert self.counted(lambda: spec(x)) == {"other": want[variant]}

    @pytest.mark.parametrize("factor,k", [(2, 4), (2, 2), (3, 6)])
    def test_transposed(self, rng, factor, k):
        N, C, C_out, H, W = 2, 4, 3, 5, 6
        tc = cast(TransposedConv(C, C_out, factor, rng, kernel=k), "single")
        x = tensor(rng.normal(size=(N, C, H, W)).astype(np.float32))
        with metering.tagged("up"):
            macs = self.counted(lambda: tc(x))
        assert macs == {"up": N * H * W * C * C_out * k * k}


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

    # Every way a 2x2 window can tie for its maximum: each non-empty subset of
    # the four slots holds it, as 1.5 or as every sign pattern of a zero max.
    @staticmethod
    def tie_windows() -> list[np.ndarray]:
        windows = []
        for subset in range(1, 16):
            slots = [p for p in range(4) if subset >> p & 1]
            for signs in [None] + list(range(1 << len(slots))):
                win = np.full(4, -2.0, dtype=np.float32)
                for i, p in enumerate(slots):
                    win[p] = 1.5 if signs is None else (-0.0 if signs >> i & 1 else 0.0)
                windows.append(win.reshape(2, 2))
        return windows

    GRAD_VALUES = (0.75, -1.25, 0.0, -0.0)

    @staticmethod
    def reference(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-window loops. np.maximum returns its second operand on a tie,
        which decides the sign of a zero max; the gradient goes to the first
        slot in row-major order equal to the max, as g * 1.0, else g * 0.0."""
        def pmax(a, b):
            return a if a > b else b
        N, C, H, W = x.shape
        out = np.empty((N, C, H // 2, W // 2), dtype=x.dtype)
        gx = np.empty_like(x)
        for n, c, i, j in np.ndindex(out.shape):
            s = [x[n, c, 2 * i + di, 2 * j + dj] for di in (0, 1) for dj in (0, 1)]
            out[n, c, i, j] = m = pmax(pmax(s[0], s[1]), pmax(s[2], s[3]))
            first = next(p for p in range(4) if s[p] == m)
            for p in range(4):
                gx[n, c, 2 * i + p // 2, 2 * j + p % 2] = g[n, c, i, j] * float(p == first)
        return out, gx

    @staticmethod
    def pool(x_arr, g_arr):
        x = tensor(x_arr)
        x.requires_grad = True
        with Tape() as tape:
            out = maxpool2(x)
            tape.backward(sum_all(mul(out, tensor(g_arr))))
        return out.numpy(), x.grad

    def assert_bitwise(self, got, want):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_every_tie_pattern_in_one_window(self):
        for win in self.tie_windows():
            for gv in self.GRAD_VALUES:
                x_arr = win.reshape(1, 1, 2, 2).copy()
                g_arr = np.full((1, 1, 1, 1), gv, dtype=np.float32)
                self.assert_bitwise(self.pool(x_arr, g_arr), self.reference(x_arr, g_arr))

    def test_every_tie_pattern_tiled_into_a_batch(self):
        shape = (2, 3, 8, 10)
        per_batch = 2 * 3 * 4 * 5
        cases = [(w, gv) for w in self.tie_windows() for gv in self.GRAD_VALUES]
        for start in range(0, len(cases), per_batch):
            batch = [cases[(start + i) % len(cases)] for i in range(per_batch)]
            x_arr = (np.stack([w for w, _ in batch]).reshape(2, 3, 4, 5, 2, 2)
                     .transpose(0, 1, 2, 4, 3, 5).reshape(shape))
            g_arr = np.array([gv for _, gv in batch], dtype=np.float32).reshape(2, 3, 4, 5)
            got = self.pool(x_arr, g_arr)
            self.assert_bitwise(got, self.reference(x_arr, g_arr))
            for n in range(shape[0]):
                item = self.pool(x_arr[n:n + 1], g_arr[n:n + 1])
                self.assert_bitwise(item, (got[0][n:n + 1], got[1][n:n + 1]))

    def test_taped_call_keeps_no_routing_array(self, rng):
        # The closure holds the input and output it already has; the routing
        # mask is rebuilt in backward (a uint8 argmax would be 0.25x the output).
        x = tensor(rng.normal(size=(4, 8, 128, 128)).astype(np.float32))
        x.requires_grad = True
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = maxpool2(x)
                held = tracemalloc.get_traced_memory()[0] - before
                tape.backward(sum_all(out))
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes < 0.1 * out.data.nbytes
        assert x.grad is not None

    def test_nan_input_names_the_op(self):
        x_arr = np.zeros((1, 2, 4, 4), dtype=np.float32)
        x_arr[0, 1, 2, 3] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="maxpool2"):
            maxpool2(Tensor(x_arr))
