"""Autodiff core: op semantics, tape mechanics, numerics policing."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wau
from conftest import naive_attention
from wau.analysis import gradcheck
from wau.conv import TransposedConv, bilinear_upsample, transposed_conv_upsample
from wau.tensor import (ContractError, NumericsError, ShapeError, Tape,
                        Tensor, add, layer_norm, mul, record, relu,
                        sum_all, tensor, uniform_param, window_attention, zeros)
from wau.windows import WindowGrid, merge, partition

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


def attention_weights(q, k):
    """Single-head window_attention weights of queries q on keys k, each (T, E)."""
    q, k = (tensor(np.asarray(a).T[None], precision="double") for a in (q, k))
    return window_attention(q, k, k, 1)[1]()[0, 0]


class TestOpValues:
    # The softmax is the one inside window_attention. With one-channel keys
    # and a unit query the scores are the keys themselves.
    def test_softmax_symmetry(self):
        got = attention_weights([[1.0]], [[0.0], [0.0], [0.0], [0.0]])
        np.testing.assert_allclose(got, [[0.25] * 4], atol=1e-15)

    def test_softmax_overflow_guard(self):
        got = attention_weights([[1.0]], [[1000.0], [1000.0]])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_closed_form(self):
        got = attention_weights([[1.0]], [[0.0], [np.log(3.0)]])
        np.testing.assert_allclose(got, [[0.25, 0.75]], atol=1e-12)

    @given(x=arrays((3, 5)))
    def test_softmax_rows_stochastic(self, x):
        got = attention_weights(x, np.eye(5))
        assert np.all(got >= 0)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

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

    def test_taped_layer_norm_keeps_only_output_and_statistics(self, rng):
        # The backward rebuilds x̂ from the input, the mean and 1/σ.
        N, C, H, W = 4, 8, 64, 64
        x = tensor(rng.normal(size=(N, C, H, W)).astype(np.float32), requires_grad=True)
        gamma, beta = (tensor(rng.normal(size=C).astype(np.float32), requires_grad=True)
                       for _ in range(2))
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = layer_norm(x, gamma, beta)
                held = tracemalloc.get_traced_memory()[0] - before
                tape.backward(sum_all(out))
        finally:
            tracemalloc.stop()
        statistics = 2 * N * H * W * 4
        assert held <= out.data.nbytes + statistics + 4096  # 4 KiB: Python objects
        assert x.grad is not None

    def test_layer_norm_gradcheck_weighted(self, rng):
        x = tensor(rng.normal(size=(2, 5, 3, 4)) * 2 + 1, precision="double",
                   requires_grad=True)
        gamma, beta = (tensor(rng.normal(size=5), precision="double", requires_grad=True)
                       for _ in range(2))
        weights = tensor(rng.normal(size=(2, 5, 3, 4)), precision="double")
        report = gradcheck(lambda: mul(layer_norm(x, gamma, beta), weights),
                           [("x", x), ("gamma", gamma), ("beta", beta)])
        assert report.max_rel_error < 1e-7

    def test_elementwise_shapes_must_match(self):
        with pytest.raises(ShapeError):
            add(tensor([1.0, 2.0]), tensor([[1.0], [2.0]]))


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
            y = add(mul(relu(x), x), add(x, x))
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
            z = add(y, relu(y))
            loss = sum_all(z)
            tape.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 4 * x.numpy(), atol=1e-12)

    def test_nan_in_intermediate_gradient_is_caught_at_the_leaf(self):
        x = tensor([1.0, 2.0], precision="double")
        x.requires_grad = True

        def poison(a):
            out = Tensor(a.data.copy())
            record("poison", (a,), out,
                   lambda g, acc: acc.add(0, np.full_like(g, np.nan)))
            return out

        with Tape() as tape:
            loss = sum_all(poison(relu(x)))
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

    def test_nonfinite_input_rejected_at_construction(self):
        with pytest.raises(NumericsError):
            tensor([np.nan])

    # A computed op whose output is not finite raises under its tape name.
    # The convolutions, maxpool2, window_attention and seg_loss have their
    # own such tests beside their kernels.
    @pytest.mark.parametrize("name", ["add", "mul", "relu", "sum_all", "layer_norm",
                                      "bilinear_upsample", "pixel_shuffle"])
    def test_nonfinite_output_names_the_op(self, rng, name):
        def raw(*shape, fill=1.0):
            return Tensor(np.full(shape, fill, dtype=np.float32))

        big, inf = raw(2, 3, fill=3e38), raw(1, 2, 2, 2, fill=np.inf)
        tc = TransposedConv(2, 2, 2, rng)
        tc.bias.data[:] = np.inf  # the phase convolution stays finite
        ops = {
            "add": lambda: add(big, big),
            "mul": lambda: mul(big, big),
            "relu": lambda: relu(inf),
            "sum_all": lambda: sum_all(big),
            "layer_norm": lambda: layer_norm(inf, raw(2), raw(2)),
            "bilinear_upsample": lambda: bilinear_upsample(inf, 2),
            "pixel_shuffle": lambda: transposed_conv_upsample(raw(1, 2, 2, 2), tc),
        }
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericsError, match=rf"^non-finite values in output of {name}$"):
            ops[name]()

    def test_no_tape_records_nothing(self):
        x = tensor([1.0, 2.0])
        x.requires_grad = True
        y = mul(x, x)
        assert not y.requires_grad and y.grad is None

    @given(x=hnp.arrays(np.float64, (4, 3),
                        elements=st.floats(-10, 10, width=64)))
    def test_softmax_rows_gradient_sums_to_zero(self, x):
        # The attention softmax is shift-invariant: moving every key of a
        # block by the same vector leaves the output unchanged, so the key
        # gradients of a block must sum to ~0.
        q, k, v = (tensor(a.T[None], precision="double", requires_grad=True)
                   for a in (x, x[::-1], x))
        with Tape() as tape:
            out = window_attention(q, k, v, 1)[0]
            tape.backward(sum_all(mul(out, out)))
        np.testing.assert_allclose(k.grad.sum(axis=2), 0.0,
                                   atol=1e-10 * max(1.0, np.abs(k.grad).max()))


def chain_loss(x, scales, leaves, held=None):
    """sum(y²) after len(scales) links y <- relu(y·w) + x: 3 nodes per link, 2 more
    for the loss. Each link's w is a leaf made there from scales[i], as a lazily
    built layer would, and appended to `leaves`. Only `held`, when given, keeps
    the intermediates; otherwise each link's temporaries are freed before the
    next link allocates the same shapes."""
    y = x
    for s in scales:
        w = Tensor(s, requires_grad=True)
        leaves.append(w)
        parts = [mul(y, w)]
        parts.append(relu(parts[-1]))
        parts.append(add(parts[-1], x))
        y = parts[-1]
        if held is not None:
            held.extend(parts)
    return sum_all(mul(y, y))


class TestGradientRouting:
    LINKS = 12  # 38 nodes

    def operands(self, rng):
        x = tensor(rng.normal(size=(4, 6)), precision="double", requires_grad=True)
        scales = [rng.normal(size=(4, 6)) for _ in range(self.LINKS)]
        return x, scales

    def test_freed_intermediates_do_not_misroute_gradients(self, rng):
        # Routing by the identity of freed tensors would let a leaf made
        # later, at the same address, take a dead intermediate's gradient.
        grads = []
        for hold in (False, True):
            x, scales = self.operands(np.random.default_rng(3))
            leaves, held = [], ([] if hold else None)
            with Tape() as tape:
                loss = chain_loss(x, scales, leaves, held)
                assert len(tape) == 3 * self.LINKS + 2
                tape.backward(loss)
            assert all(t.grad is not None for t in [x] + leaves)
            grads.append([x.grad] + [t.grad for t in leaves])
        for freed, kept in zip(*grads):
            np.testing.assert_array_equal(freed, kept)

    def test_chain_gradcheck(self, rng):
        x, scales = self.operands(rng)
        report = gradcheck(lambda: chain_loss(x, scales, []), [("x", x)])
        assert report.max_rel_error < 1e-7

    def test_unrecorded_loss_is_rejected(self):
        # Losses made with no tape, on another tape, before reset(), from no
        # tensor that requires a gradient, and a leaf: none gets a gradient.
        x = tensor([2.0], precision="double", requires_grad=True)
        untaped = sum_all(mul(x, x))
        with Tape():
            foreign = sum_all(mul(x, x))
        with Tape() as tape:
            stale = sum_all(mul(x, x))
            tape.reset()
            constant = sum_all(tensor([3.0], precision="double"))
            mul(x, x)
            for loss in (untaped, foreign, stale, constant, x):
                with pytest.raises(ContractError, match="loss this tape recorded"):
                    tape.backward(loss)
        assert all(t.grad is None for t in (x, untaped, foreign, stale, constant))

    def test_output_of_an_earlier_tape_is_a_leaf_of_the_next(self):
        x = tensor([2.0, -3.0], precision="double", requires_grad=True)
        with Tape():
            y = mul(x, x)
        with Tape() as tape:
            tape.backward(sum_all(mul(y, y)))
        np.testing.assert_array_equal(y.grad, 2 * y.data)
        assert x.grad is None


def held_after_forward(rng, op, shapes, keep_result=False):
    """Bytes a taped `op` leaves held after its forward, when its inputs are op
    outputs only it was given and the caller keeps sum_all of its result (and
    the result itself if `keep_result`). Runs the backward too and checks
    every leaf got a gradient."""
    leaves = [tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for s in shapes]
    ones = [tensor(np.ones(s, dtype=np.float32)) for s in shapes]
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            inputs = [mul(t, c) for t, c in zip(leaves, ones)]
            result = op(*inputs)
            loss = sum_all(result)
            del inputs
            if not keep_result:
                del result
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
    return held


class TestHeldForBackward:
    # Maps of 1 MiB: a kept input or output shows far above the slack.
    SHAPE = (4, 16, 64, 64)
    SLACK = 4096  # tensors, closures and tape nodes

    def test_relu_keeps_only_its_output(self, rng):
        # The caller holds the output too, so a kept input shows on top of it.
        nbytes = 4 * int(np.prod(self.SHAPE))
        assert held_after_forward(rng, relu, [self.SHAPE], keep_result=True) <= nbytes + self.SLACK

    def test_relu_gradient_reads_the_mask_from_the_output(self):
        x = tensor([-1.5, -0.0, 0.0, 1e-30, 2.0], precision="double", requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("name", ["add", "bilinear_upsample", "window_partition",
                                      "window_merge"])
    def test_shape_only_backward_keeps_no_array(self, rng, name):
        N, C, H, W = self.SHAPE
        grid = (N, C, H, W), 8
        ops = {
            "add": (add, [self.SHAPE] * 2),
            "bilinear_upsample": (lambda x: bilinear_upsample(x, 2), [self.SHAPE]),
            "window_partition": (lambda x: partition(x, 8).blocks, [self.SHAPE]),
            "window_merge": (lambda b: merge(WindowGrid(b, *grid)),
                             [(N * (H // 8) * (W // 8), C, 64)]),
        }
        op, shapes = ops[name]
        op(*(tensor(np.zeros(s, dtype=np.float32)) for s in shapes))  # fills caches
        assert held_after_forward(rng, op, shapes) <= self.SLACK


class TestWindowAttention:
    def qkv(self, rng, B=3, Tq=6, Tk=4, E=8, precision="double"):
        return [tensor(rng.normal(size=(B, E, T)), precision=precision, requires_grad=True)
                for T in (Tq, Tk, Tk)]

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_loop(self, rng, heads):
        q, k, v = self.qkv(rng)
        out, weights = window_attention(q, k, v, heads)
        ref_out, ref_w = naive_attention(q.data, k.data, v.data, heads)
        np.testing.assert_allclose(out.numpy(), ref_out, atol=1e-12)
        np.testing.assert_allclose(weights(), ref_w, atol=1e-12)

    def test_batched_matches_per_block(self, rng):
        q, k, v = self.qkv(rng, precision="single")
        out, weights = window_attention(q, k, v, 2)
        for b in range(3):
            one = [tensor(t.data[b:b + 1]) for t in (q, k, v)]
            out_b, weights_b = window_attention(*one, 2)
            np.testing.assert_array_equal(out.numpy()[b:b + 1], out_b.numpy())
            np.testing.assert_array_equal(weights()[b:b + 1], weights_b())

    def test_grouping_does_not_change_results(self, rng, monkeypatch):
        g = rng.normal(size=(3, 8, 6)).astype(np.float32)
        results = []
        # All blocks at once; two per group (one per backward group); one per group.
        for group_bytes in (1 << 20, 2 * 2 * 4 * 6 * 4, 2 * 4 * 6 * 4):
            monkeypatch.setattr(wau.tensor, "_ATTENTION_GROUP_BYTES", group_bytes)
            q, k, v = self.qkv(np.random.default_rng(7), precision="single")
            with Tape() as tape:
                out, weights = window_attention(q, k, v, 2)
                tape.backward(sum_all(mul(out, tensor(g))))
            results.append([out.data, weights(), q.grad, k.grad, v.grad])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                np.testing.assert_array_equal(a, b)

    def test_mixed_precision_rejected(self, rng):
        q, k, v = self.qkv(rng)
        with pytest.raises(ContractError):
            window_attention(q, k, tensor(v.data, precision="single"), 1)

    def test_heads_must_divide_width(self, rng):
        with pytest.raises(ContractError):
            window_attention(*self.qkv(rng), 3)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck_weighted(self, rng, heads):
        q, k, v = self.qkv(rng, B=2, Tq=6, Tk=3)
        weights = tensor(rng.normal(size=(2, 8, 6)), precision="double")
        report = gradcheck(lambda: mul(window_attention(q, k, v, heads)[0], weights),
                           [("q", q), ("k", k), ("v", v)])
        assert report.max_rel_error < 1e-7

    def test_single_precision_agrees_with_double(self, rng):
        double = self.qkv(rng, B=4, Tq=16, Tk=8)
        single = [tensor(t.data, requires_grad=True) for t in double]
        g = rng.normal(size=(4, 8, 16))
        outs = []
        for q, k, v in (double, single):
            with Tape() as tape:
                out = window_attention(q, k, v, 2)[0]
                tape.backward(sum_all(mul(out, tensor(g, precision=q.precision))))
            assert out.data.dtype == q.data.dtype and q.grad.dtype == q.data.dtype
            outs.append([out.data, q.grad, k.grad, v.grad])
        for a, b in zip(*outs):
            assert np.linalg.norm(a - b) <= 1e-5 * np.linalg.norm(a)

    @pytest.mark.parametrize("a", [10.0, 40.0])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_loose_bound_falls_back_to_the_exact_max(self, rng, monkeypatch, precision, a):
        # Keys (a, 0) and (0, a) against (a, a) queries: the box bound is
        # sqrt(2)·a², the true max a²/sqrt(2). At a = 10 the gap of 70.7
        # leaves column sums near 4e-31; at a = 40 the gap of 1131 underflows
        # them to 0 in both precisions. Block 1 sits between two ordinary blocks.
        base = [t.data.copy() for t in self.qkv(rng, B=3, Tq=2, Tk=2, E=2, precision=precision)]
        base[0][1] = a
        base[1][1] = [[a, 0.0], [0.0, a]]
        g = rng.normal(size=(3, 2, 2))
        tol = 1e-12 if precision == "double" else 1e-6

        def run(blocks):
            q, k, v = (tensor(a[blocks], precision=precision, requires_grad=True) for a in base)
            with Tape() as tape:
                out, weights = window_attention(q, k, v, 1)
                tape.backward(sum_all(mul(out, tensor(g[blocks], precision=precision))))
            return [out.data, weights(), q.grad, k.grad, v.grad]

        together = run(slice(None))
        ref_out, ref_w = naive_attention(*(a.astype(np.float64) for a in base), 1)
        np.testing.assert_allclose(together[0], ref_out, atol=tol)
        np.testing.assert_allclose(together[1], ref_w, atol=tol)
        for b in range(3):
            for a, one in zip(together, run(slice(b, b + 1))):
                np.testing.assert_array_equal(a[b:b + 1], one)
        monkeypatch.setattr(wau.tensor, "_ATTENTION_GROUP_BYTES", 2 * 2 * 2 * 8)
        for a, grouped in zip(together, run(slice(None))):
            np.testing.assert_array_equal(a, grouped)
        if precision == "double":
            q, k, v = (tensor(a, precision="double", requires_grad=True) for a in base)
            weights = tensor(g, precision="double")
            report = gradcheck(lambda: mul(window_attention(q, k, v, 1)[0], weights),
                               [("q", q), ("k", k), ("v", v)])
            assert report.max_rel_error < 1e-7

    def test_tape_free_call_holds_no_weights_array(self, rng):
        # The second-stage shape of the 128x128 net: 256 blocks of 256
        # queries on 64 keys, width 8 in 4 heads, 64 MiB of logical weights.
        B, Tq, Tk, E, h = 256, 256, 64, 8, 4
        q, k, v = (tensor(rng.normal(size=(B, E, T)).astype(np.float32)) for T in (Tq, Tk, Tk))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = window_attention(q, k, v, h)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before - out.data.nbytes < B * h * Tq * Tk * 4 / 4
        taped = [tensor(t.data[:16], requires_grad=True) for t in (q, k, v)]
        g = tensor(rng.normal(size=(16, E, Tq)).astype(np.float32))
        with Tape() as tape:
            out_t = window_attention(*taped, h)[0]
            tape.backward(sum_all(mul(out_t, g)))
        np.testing.assert_array_equal(out_t.data, out.data[:16])
        for t in taped:
            assert t.grad.shape == t.shape and np.abs(t.grad).max() > 0

    def test_taped_call_holds_no_weights_array(self, rng, monkeypatch):
        # The same stage-2 shape on a tape: after the forward only the
        # shifts and column sums may stay beyond inputs and output. The
        # backward rebuilds E per group instead of reading a kept copy, and
        # builds its operands per group too, so its own peak is its group
        # scratch plus dq, dk and dv.
        B, Tq, Tk, E, h = 256, 256, 64, 8, 4
        d, item = E // h, 4
        weight_bytes = B * h * Tq * Tk * item
        q, k, v = (tensor(rng.normal(size=(B, E, T)).astype(np.float32), requires_grad=True)
                   for T in (Tq, Tk, Tk))
        g = tensor(rng.normal(size=(B, E, Tq)).astype(np.float32))
        peaks = []

        def measured(name, inputs, out, fn):
            def probed(grad, acc):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                fn(grad, acc)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            record(name, inputs, out, probed)

        monkeypatch.setattr(wau.tensor, "record", measured)
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = window_attention(q, k, v, h)[0]
                held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
                monkeypatch.undo()
                tape.backward(sum_all(mul(out, g)))
        finally:
            tracemalloc.stop()
        assert held <= 2 * B * h * Tq * item + 4096  # the shifts and l
        # Blocks per backward group, with E and dS buffers of that many blocks;
        # then Q^ and Ĝ, K^ and V^, and the (G/l)∘O product, all group-sized.
        n = min(B, max(1, wau.tensor._ATTENTION_GROUP_BYTES // 2 // (h * Tk * Tq * item)))
        scratch = n * h * item * (2 * Tk * Tq + 2 * (d + 1) * (Tq + Tk) + d * Tq)
        grads = q.data.nbytes + k.data.nbytes + v.data.nbytes
        slack = 64 << 10  # column sums and array views per group: 30 KiB measured
        (peak,) = peaks
        assert peak <= scratch + grads + slack
        assert scratch + grads < weight_bytes / 8
        assert all(np.abs(t.grad).max() > 0 for t in (q, k, v))
