"""Autodiff core: op semantics, tape mechanics, numerics policing."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wau
from wau.tensor import (ContractError, NumericsError, ShapeError, Tape,
                        Tensor, add, add_scalar, div, layer_norm,
                        log_softmax_rows, matmul, mean_all, mul, permute,
                        record, relu, reshape, scale, softmax_rows, sub,
                        sum_all, tensor, transpose_last2, uniform_param, zeros)

fin32 = st.floats(-50, 50, width=32)


def arrays(shape):
    return hnp.arrays(np.float32, shape, elements=fin32)


class TestTensorConstruction:
    def test_accepts_lists_and_arrays(self):
        t = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2) and t.data.dtype == np.float32

    def test_double_precision(self):
        assert tensor([1.0], precision="double").data.dtype == np.float64

    def test_scalar_promoted_rank_5_rejected(self):
        assert tensor(3.0).shape == (1,)
        with pytest.raises(ShapeError):
            tensor(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))

    def test_rejects_unknown_precision(self):
        with pytest.raises(ContractError):
            tensor([1.0], precision="half")

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            tensor([1.0, 2.0]).item()

    def test_uniform_param_bound(self, rng):
        p = uniform_param((16, 9), 9, rng)
        assert np.all(np.abs(p.data) <= 1.0 / 3.0)
        assert p.requires_grad

    def test_zeros(self):
        assert not zeros((2, 3)).data.any()


def test_package_exposes_the_tensor_module():
    import wau.tensor as T
    assert T.Tape is wau.Tape
    assert "tensor" not in wau.__all__


class TestOpValues:
    def test_matmul_hand_case(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0], [6.0]])
        assert matmul(a, b).numpy().ravel().tolist() == [17.0, 39.0]

    def test_matmul_identity(self, rng):
        m = tensor(rng.normal(size=(3, 3)).astype(np.float32))
        eye = tensor(np.eye(3, dtype=np.float32))
        np.testing.assert_array_equal(matmul(eye, m).numpy(), m.numpy())

    @given(a=arrays((3, 4)), b=arrays((4, 2)))
    def test_matmul_matches_numpy(self, a, b):
        got = matmul(tensor(a), tensor(b)).numpy()
        np.testing.assert_allclose(got, a @ b, rtol=1e-5, atol=1e-5)

    def test_matmul_batched_matches_per_slice(self, rng):
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        got = matmul(tensor(a), tensor(b)).numpy()
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(got[i, j], a[i, j] @ b[i, j])

    def test_matmul_mixed_precision_rejected(self):
        with pytest.raises(ContractError):
            matmul(tensor([[1.0]]), tensor([[1.0]], precision="double"))

    def test_softmax_symmetry(self):
        got = softmax_rows(tensor([[0.0, 0.0, 0.0, 0.0]])).numpy()
        np.testing.assert_allclose(got, [[0.25] * 4], atol=1e-7)

    def test_softmax_overflow_guard(self):
        got = softmax_rows(tensor([[1000.0, 1000.0]])).numpy()
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [[0.5, 0.5]], atol=1e-7)

    def test_softmax_closed_form(self):
        got = softmax_rows(tensor([[0.0, float(np.log(3.0))]],
                                  precision="double")).numpy()
        np.testing.assert_allclose(got, [[0.25, 0.75]], atol=1e-12)

    @given(x=arrays((3, 5)))
    def test_softmax_rows_stochastic(self, x):
        got = softmax_rows(tensor(x)).numpy()
        assert np.all(got >= 0)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-5)

    def test_log_softmax_consistent(self, rng):
        x = tensor(rng.normal(size=(4, 6)), precision="double")
        np.testing.assert_allclose(np.exp(log_softmax_rows(x).numpy()),
                                   softmax_rows(x).numpy(), atol=1e-12)

    def test_layer_norm_constant_input(self):
        x = tensor(np.full((1, 4, 2, 2), 7.0, dtype=np.float32))
        gamma = tensor(np.ones(4, dtype=np.float32))
        beta = tensor(np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(layer_norm(x, gamma, beta).numpy(), 0.0,
                                   atol=1e-6)

    def test_layer_norm_standardizes_channels(self, rng):
        x = tensor(rng.normal(size=(2, 8, 3, 3)), precision="double")
        gamma = tensor(np.ones(8), precision="double")
        beta = tensor(np.zeros(8), precision="double")
        y = layer_norm(x, gamma, beta).numpy()
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_scale_keeps_single_precision_with_numpy_scalar(self):
        # numpy float64 scalars must not promote float32 data
        out = scale(tensor([1.0, 2.0]), np.float64(0.5))
        assert out.data.dtype == np.float32
        out2 = add_scalar(tensor([1.0]), np.float64(1.0))
        assert out2.data.dtype == np.float32

    def test_elementwise_shapes_must_match(self):
        with pytest.raises(ShapeError):
            add(tensor([1.0, 2.0]), tensor([[1.0], [2.0]]))

    def test_div_scalar_denominator(self):
        got = div(tensor([2.0, 4.0]), tensor([2.0]))
        np.testing.assert_array_equal(got.numpy(), [1.0, 2.0])


class TestTapeBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = tensor(rng.normal(size=(3, 4)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            tape.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient_is_2x(self, rng):
        x = tensor(rng.normal(size=(2, 3)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            tape.backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.numpy(), atol=1e-12)

    def test_composite_expression_gradient(self):
        x = tensor([2.0, 3.0], precision="double")
        x.requires_grad = True
        with Tape() as tape:
            # f = sum(relu(x) * x + 2x) -> df/dx = 2x + 2 for x > 0
            y = add(mul(relu(x), x), scale(x, 2.0))
            tape.backward(sum_all(y))
        np.testing.assert_allclose(x.grad, [6.0, 8.0], atol=1e-12)

    def test_backward_accumulates_linearly(self, rng):
        x = tensor(rng.normal(size=(3,)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            loss = sum_all(mul(x, x))
            tape.backward(loss)
            once = x.grad.copy()
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * once)

    def test_only_leaves_receive_gradients(self, rng):
        x = tensor(rng.normal(size=(2, 3)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            y = mul(x, x)
            z = scale(y, 3.0)
            loss = sum_all(z)
            tape.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 6 * x.numpy(), atol=1e-12)

    def test_nan_in_intermediate_gradient_is_caught_at_the_leaf(self):
        x = tensor([1.0, 2.0], precision="double")
        x.requires_grad = True

        def poison(a):
            out = Tensor(a.data.copy())
            record("poison", (a,), out,
                   lambda g, acc: acc.add(a, np.full_like(g, np.nan)))
            return out

        with Tape() as tape:
            loss = sum_all(poison(scale(x, 2.0)))
            with pytest.raises(NumericsError, match="non-finite values in gradient"):
                tape.backward(loss)

    def test_reset_clears_gradients(self, rng):
        x = tensor(rng.normal(size=(3,)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            tape.backward(sum_all(x))
            assert x.grad is not None
            tape.reset()
        assert x.grad is None

    def test_backward_requires_scalar_loss(self):
        x = tensor([1.0, 2.0])
        x.requires_grad = True
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_nonfinite_forward_raises(self):
        x = tensor([1e30], precision="single")
        x.requires_grad = True
        with Tape(), np.errstate(over="ignore"):
            with pytest.raises(NumericsError):
                mul(x, x)  # overflows float32 -> inf, caught at the op

    def test_nonfinite_input_rejected_at_construction(self):
        with pytest.raises(NumericsError):
            tensor([np.nan])

    def test_no_tape_records_nothing(self):
        x = tensor([1.0, 2.0])
        x.requires_grad = True
        y = mul(x, x)
        assert not y.requires_grad and y.grad is None

    def test_mean_all_gradient(self):
        x = tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        x.requires_grad = True
        with Tape() as tape:
            tape.backward(mean_all(x))
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6), atol=1e-15)

    def test_permute_reshape_transpose_round_trip_grad(self, rng):
        x = tensor(rng.normal(size=(2, 3, 4)).astype(np.float64))
        x.requires_grad = True
        with Tape() as tape:
            y = permute(x, (2, 0, 1))
            z = reshape(y, (4, 6))
            w = transpose_last2(z)
            tape.backward(sum_all(w))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_div_and_sub_gradients(self):
        a = tensor([6.0], precision="double")
        b = tensor([2.0], precision="double")
        a.requires_grad = b.requires_grad = True
        with Tape() as tape:
            tape.backward(sum_all(sub(div(a, b), b)))
        np.testing.assert_allclose(a.grad, [0.5], atol=1e-15)
        np.testing.assert_allclose(b.grad, [-6.0 / 4.0 - 1.0], atol=1e-15)

    @given(x=hnp.arrays(np.float64, (4, 3),
                        elements=st.floats(-10, 10, width=64)))
    def test_softmax_rows_gradient_sums_to_zero(self, x):
        # softmax is shift-invariant, so row gradients must sum to ~0
        t = tensor(x, precision="double")
        t.requires_grad = True
        with Tape() as tape:
            y = softmax_rows(t)
            tape.backward(sum_all(mul(y, y)))
        np.testing.assert_allclose(t.grad.sum(axis=-1), 0.0, atol=1e-12)
