"""Synthetic data, the segmentation net, metrics, loss, and the optimizer."""
import hashlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wau.attention
import wau.conv
import wau.tensor
import wau.windows
from conftest import exhaustive_hausdorff
from wau import metering
from wau.analysis import gradcheck
from wau.tensor import (ContractError, NumericsError, ShapeError, Tape, Tensor, cast,
                        record, tensor)
from wau.toyseg.data import augment, gen_dataset, label_dtype, make_sample
from wau.toyseg.loss import seg_loss
from wau.toyseg.metrics import (_directed_sq, dice_score, hausdorff, mean_dice,
                                mean_hausdorff, predicted_labels)
from wau.toyseg.model import ToyNet
from wau.toyseg.optim import Adam, lr_at

# 8x8 label masks with labels 0..2, as int64 or in the generator's uint8.
masks8 = st.sampled_from([np.int64, np.uint8]).flatmap(
    lambda dtype: hnp.arrays(dtype, (8, 8), elements=st.integers(0, 2)))


@st.composite
def mask_pairs(draw):
    """Two same-shape boolean masks: random (touching the border at will),
    empty, full, or a single pixel."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def mask():
        kind = draw(st.sampled_from(["random", "empty", "full", "single"]))
        if kind == "random":
            return draw(hnp.arrays(np.bool_, (h, w)))
        m = np.full((h, w), kind == "full")
        if kind == "single":
            m[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
        return m

    return mask(), mask()


class TestData:
    def test_same_seed_index_bitwise_identical(self):
        a = make_sample(7, 16, 16, 2, seed=3)
        b = make_sample(7, 16, 16, 2, seed=3)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_different_indices_differ(self):
        a = make_sample(0, 16, 16, 1, seed=3)
        b = make_sample(1, 16, 16, 1, seed=3)
        assert not np.array_equal(a.image, b.image)

    def test_shapes_and_label_range(self):
        s = make_sample(0, 12, 20, 3, seed=0)
        assert s.image.shape == (1, 12, 20)
        assert s.mask.shape == (12, 20)
        assert s.image.dtype == np.float32 and s.mask.dtype == label_dtype(3) == np.uint8
        assert set(np.unique(s.mask)) <= set(range(4))

    @pytest.mark.parametrize("classes, dtype", [(1, np.uint8), (255, np.uint8),
                                                (300, np.uint16)])
    def test_mask_dtype_follows_class_count(self, classes, dtype):
        assert label_dtype(classes) == dtype
        s = make_sample(0, 8, 8, classes, seed=0, noise_sigma=0.0)
        assert s.mask.dtype == dtype
        # every label fits: the image encodes mask/classes exactly
        np.testing.assert_array_equal(
            s.image[0], (s.mask.astype(np.float64) / classes).astype(np.float32))

    def test_split_holds_one_byte_per_mask_pixel(self):
        split = gen_dataset(3, 128, 128, 1, seed=0)
        assert sum(s.mask.nbytes for s in split) == 3 * 128 * 128

    @pytest.mark.parametrize("h, w, classes, digest", [
        (16, 16, 1, "aff7619f01a194c103be2f83eba10c57a2aeac370b448cb0200b1ef672d95114"),
        (16, 16, 3, "24617811945a9cfe759d144e9c8349280f47a9c41d9de2a0423d67763280d174"),
        (12, 20, 1, "9ca425d8b570aa3313c93cb13dae78ba36190b761241a483aed39274e914d286"),
        (12, 20, 3, "19ebb98d87e4499f1a37128a2d94684dabfa38433869970f7e528db4d1fe521b"),
        (128, 128, 1, "024b226bf516731e82fc9875b1a16120080c7574a69811c77b289f21d3d38bbe"),
        (128, 128, 3, "78f5a41b0c4c75abd3842faeef8b07d9f647b5133a01ce2dd94d1fb392eb5d24"),
    ])
    def test_samples_pinned_bytewise(self, h, w, classes, digest):
        """Mask and image bytes of four samples; any change to the generator's
        arithmetic moves every dataset, so it must be deliberate. Masks are
        hashed as int64, so the digests do not depend on the label dtype."""
        sha = hashlib.sha256()
        for index in range(4):
            s = make_sample(index, h, w, classes, seed=5)
            sha.update(s.mask.astype(np.int64).tobytes())
            sha.update(s.image.tobytes())
        assert sha.hexdigest() == digest

    def test_zero_noise_mask_recoverable_by_threshold(self):
        s = make_sample(4, 32, 32, 1, seed=0, noise_sigma=0.0)
        recovered = (s.image[0] > 0.5).astype(np.int64)
        np.testing.assert_array_equal(recovered, s.mask)

    def test_every_class_appears_eventually(self):
        found = set()
        for i in range(10):
            found |= set(np.unique(make_sample(i, 32, 32, 2, seed=1).mask))
        assert found == {0, 1, 2}

    def test_gen_dataset_count_zero_is_empty(self):
        assert gen_dataset(0, 16, 16, 1, seed=0) == []

    def test_gen_dataset_validations(self):
        with pytest.raises(ContractError):
            gen_dataset(-1, 16, 16, 1, seed=0)
        with pytest.raises(ContractError):
            gen_dataset(1, 2, 16, 1, seed=0)
        with pytest.raises(ContractError):
            gen_dataset(1, 16, 16, 0, seed=0)

    def test_gen_dataset_start_index_streams(self):
        val = gen_dataset(2, 16, 16, 1, seed=0, start_index=5)
        direct = make_sample(6, 16, 16, 1, seed=0)
        np.testing.assert_array_equal(val[1].image, direct.image)

    def test_augment_keeps_image_mask_aligned(self):
        s = make_sample(2, 16, 16, 1, seed=0, noise_sigma=0.0)
        rng = np.random.default_rng(9)
        for _ in range(8):
            img, msk = augment(s.image, s.mask, rng)
            recovered = (img[0] > 0.5).astype(np.int64)
            np.testing.assert_array_equal(recovered, msk)
            assert dice_score(msk, msk, 1) == 1.0

    def test_augment_is_contiguous(self):
        s = make_sample(0, 16, 16, 1, seed=0)
        img, msk = augment(s.image, s.mask, np.random.default_rng(1))
        assert img.flags["C_CONTIGUOUS"] and msk.flags["C_CONTIGUOUS"]
        assert (img.dtype, msk.dtype) == (np.float32, np.uint8)


class TestModel:
    @pytest.mark.parametrize("upsampler", ["bilinear", "transposed", "wad_only",
                                           "wau"])
    def test_forward_shape_all_variants(self, upsampler):
        net = cast(ToyNet(2, 4, upsampler, 1, window=2, heads=2, seed=0), "single")
        x = tensor(np.random.default_rng(0).normal(size=(2, 1, 16, 16))
                   .astype(np.float32))
        assert net.forward(x).shape == (2, 2, 16, 16)

    def test_depth2_trace_shapes(self):
        net = cast(ToyNet(2, 4, "wau", 1, window=2, heads=2, seed=0), "single")
        x = tensor(np.zeros((1, 1, 32, 32), dtype=np.float32))
        with metering.recording() as trace:
            logits = net.forward(x)
        assert logits.shape == (1, 2, 32, 32)
        assert [o.shape[2:] for o in trace["stage_output"]] == [(16, 16), (32, 32)]
        assert len(trace["attention"]) == 2
        assert [r.layer_index for r in trace["attention"]] == [0, 1]

    def test_k3_multiclass_logit_channels(self):
        net = cast(ToyNet(1, 4, "bilinear", 3, seed=0), "single")
        x = tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        assert net.forward(x).shape == (1, 4, 8, 8)

    def test_min_divisor(self):
        assert cast(ToyNet(2, 4, "bilinear", 1), "single").min_divisor() == 4
        assert cast(ToyNet(2, 4, "wau", 1, window=2, heads=2), "single").min_divisor() == 8

    def test_indivisible_input_rejected(self):
        net = cast(ToyNet(2, 4, "wau", 1, window=2, heads=2), "single")
        with pytest.raises(ShapeError):
            net.forward(tensor(np.zeros((1, 1, 12, 12), dtype=np.float32)))

    def test_parameter_groups_cover_everything(self):
        net = cast(ToyNet(2, 4, "wau", 1, window=2, heads=2), "single")
        groups = net.parameter_groups()
        assert set(groups) == {"encoder", "decoder", "head"}
        assert sum(len(v) for v in groups.values()) == len(net.parameters())

    def test_same_seed_same_init(self):
        a = cast(ToyNet(1, 4, "wau", 1, window=2, heads=2, seed=5), "single")
        b = cast(ToyNet(1, 4, "wau", 1, window=2, heads=2, seed=5), "single")
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.numpy(), tb.numpy())

    def test_bilinear_variant_has_no_decoder_params(self):
        net = cast(ToyNet(2, 4, "bilinear", 1), "single")
        assert net.parameter_groups()["decoder"] == []

    # What each op's backward reads of the tensors it was recorded with: input
    # positions, and "out" for its own output. Anything else an op keeps is
    # its own state, listed in the test below.
    BACKWARD_READS = {
        "conv2d": (0,), "relu": ("out",), "maxpool2": (0, "out"), "layer_norm": (0,),
        "window_partition": (), "window_attention": (0, 1, 2, "out"), "window_merge": (),
        "bilinear_upsample": (), "add": (), "seg_loss": (),
    }

    def test_taped_forward_holds_only_op_outputs_and_listed_state(self, monkeypatch):
        # A taped wau forward plus loss may hold the op outputs that a later
        # backward reads and the state listed below, nothing else: an op that
        # keeps a full-size copy (a padded input, a normalized map), or a
        # tape that keeps outputs no backward reads, fails here.
        N, S, heads = 2, 64, 4
        net = cast(ToyNet(2, 8, "wau", 1, window=4, heads=heads, seed=0), "single")
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(N, 1, S, S)).astype(np.float32))
        masks = (rng.random((N, S, S)) < 0.3).astype(np.int64)
        net.forward(x)  # fills the bilinear axis-matrix cache
        log = []

        def logged(name, inputs, out, fn):
            record(name, inputs, out, fn)
            log.append((name, tuple(t.key for t in inputs), out.key, out.data.nbytes))

        for module in (wau.tensor, wau.conv, wau.windows):
            monkeypatch.setattr(module, "record", logged)
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                seg_loss(net.forward(x), masks, 1)
                held = tracemalloc.get_traced_memory()[0] - before
                assert len(log) == len(tape)
        finally:
            tracemalloc.stop()
        outputs = {out: nbytes for _, _, out, nbytes in log}
        read = {out if r == "out" else inputs[r]
                for name, inputs, out, _ in log for r in self.BACKWARD_READS[name]}
        item = 4
        state = {
            # mean and 1/σ per position of each stage's lateral and source map
            "layer_norm": sum(2 * N * (S // s) ** 2 * item for s in (2, 4, 1, 2)),
            # shifts and column sums per query and head, one attention per stage
            "window_attention": sum(2 * heads * N * (S // s) ** 2 * item for s in (2, 1)),
            # log-probabilities, (N, 2, S, S)
            "seg_loss": N * 2 * S * S * item,
            # each k > 1 conv weight re-laid as contiguous taps (1x1 ones are not copied)
            "conv taps": sum(t.data.nbytes for n, t in net.parameters()
                             if n.endswith("weight") and t.shape[-1] > 1),
        }
        slack = 64 << 10  # tensors, closures, tape nodes and the log: 48 KiB measured
        assert held <= sum(outputs[k] for k in read & outputs.keys()) + sum(state.values()) + slack

    @pytest.mark.parametrize("upsampler", ["wau", "bilinear", "transposed"])
    def test_backward_rules_capture_no_tensor(self, upsampler):
        # A rule that captured a Tensor would keep its array alive whether or
        # not the backward reads it.
        def reachable(obj):
            yield obj
            if isinstance(obj, types.FunctionType):
                for cell in obj.__closure__ or ():
                    yield from reachable(cell.cell_contents)
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from reachable(item)

        net = cast(ToyNet(2, 4, upsampler, 1, window=2, heads=2, seed=0), "single")
        x = tensor(np.random.default_rng(0).normal(size=(2, 1, 16, 16)).astype(np.float32))
        with Tape() as tape:
            seg_loss(net.forward(x), np.zeros((2, 16, 16), dtype=np.int64), 1)
        assert len(tape) > 10
        for node in tape._nodes:
            assert not any(isinstance(obj, Tensor) for obj in reachable(node.fn)), node.name


class TestRecorder:
    @pytest.mark.parametrize("upsampler", ["bilinear", "transposed", "wad_only",
                                           "wau"])
    def test_logits_bitwise_equal_inside_and_outside_recording(self, upsampler):
        net = cast(ToyNet(2, 4, upsampler, 1, window=2, heads=2, seed=0), "single")
        x = tensor(np.random.default_rng(0).normal(size=(2, 1, 16, 16))
                   .astype(np.float32))
        plain = net.forward(x).numpy()
        with metering.recording() as trace:
            recorded = net.forward(x).numpy()
        np.testing.assert_array_equal(plain, recorded)
        assert len(trace["stage_output"]) == 2

    def test_no_attention_record_built_outside_recording(self, monkeypatch):
        built = []

        class CountingRecord(wau.attention.AttentionRecord):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wau.attention, "AttentionRecord", CountingRecord)
        net = cast(ToyNet(2, 4, "wau", 1, window=2, heads=2, seed=0), "single")
        x = tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        net.forward(x)
        assert built == []
        with metering.recording() as trace:
            net.forward(x)
        assert len(built) == 2
        assert all(isinstance(r, CountingRecord) for r in trace["attention"])

    def test_nested_recording_raises(self):
        with metering.recording() as outer:
            with pytest.raises(RuntimeError):
                with metering.recording():
                    pass
            metering.observe("x", lambda: 1)
        assert outer == {"x": [1]}
        metering.observe("x", lambda: 2)
        assert outer == {"x": [1]}


class TestMetrics:
    def test_dice_identical_masks(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[1:3, 1:3] = 1
        assert dice_score(m, m, 1) == 1.0

    def test_dice_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=np.int64)
        b = np.zeros((4, 4), dtype=np.int64)
        a[0, 0] = 1
        b[3, 3] = 1
        assert dice_score(a, b, 1) == 0.0

    def test_dice_half_overlap(self):
        a = np.zeros((4, 4), dtype=np.int64)
        b = np.zeros((4, 4), dtype=np.int64)
        a[0, 0:4] = 1
        b[0, 2:4] = 1
        b[1, 0:2] = 1
        assert dice_score(a, b, 1) == 0.5

    def test_dice_both_empty_is_one(self):
        z = np.zeros((4, 4), dtype=np.int64)
        assert dice_score(z, z, 1) == 1.0

    @given(a=masks8, b=masks8)
    def test_dice_symmetric_and_bounded(self, a, b):
        d = dice_score(a, b, 1)
        assert 0.0 <= d <= 1.0
        assert d == dice_score(b, a, 1)

    @given(a=masks8, b=masks8)
    def test_mean_metrics_agree_across_label_dtypes(self, a, b):
        # the same labels as int64, uint8 or a mix score exactly the same
        want = (mean_dice(a.astype(np.int64), b.astype(np.int64), 2),
                mean_hausdorff(a.astype(np.int64), b.astype(np.int64), 2))
        for pa, pb in ((a.astype(np.uint8), b.astype(np.uint8)), (a, b)):
            assert (mean_dice(pa, pb, 2), mean_hausdorff(pa, pb, 2)) == want

    def test_hausdorff_identity_and_symmetry(self):
        a = np.zeros((6, 6), dtype=np.int64)
        a[2, 3] = 1
        b = np.zeros((6, 6), dtype=np.int64)
        b[4, 1] = 1
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_hausdorff_single_pixels_3_4_5(self):
        a = np.zeros((8, 8), dtype=np.int64)
        b = np.zeros((8, 8), dtype=np.int64)
        a[0, 0] = 1
        b[3, 4] = 1
        assert hausdorff(a, b) == pytest.approx(5.0)

    def test_hausdorff_empty_conventions(self):
        z = np.zeros((32, 32), dtype=np.int64)
        one = z.copy()
        one[5, 5] = 1
        assert hausdorff(z, z) == 0.0
        assert hausdorff(one, z) == pytest.approx(math.hypot(31, 31))

    @settings(max_examples=300)
    @given(pair=mask_pairs())
    def test_hausdorff_equals_exhaustive_scan(self, pair):
        pred, target = pair
        assert hausdorff(pred, target) == exhaustive_hausdorff(pred, target)

    def test_hausdorff_rejects_masks_that_are_not_2d(self):
        m = np.zeros((2, 4, 4), dtype=bool)
        m[0, 1, 1] = True
        with pytest.raises(ShapeError):
            hausdorff(m, ~m)
        with pytest.raises(ShapeError):
            hausdorff(np.ones(5, dtype=bool), np.zeros(5, dtype=bool))

    @staticmethod
    def _explicit_pairs():
        a = np.zeros((9, 11), dtype=bool)
        a[2, :] = True                      # target rows from border to border
        a[6, :] = True
        b = np.zeros_like(a)
        b[0, 4] = b[4, 0] = b[8, 10] = True
        yield "border-to-border rows", a, b
        c = np.zeros((12, 7), dtype=bool)
        c[0:2, 1:3] = True                  # empty rows 2..9 between the parts
        c[10:12, 5] = True
        d = np.zeros_like(c)
        d[5, :] = True
        d[11, 0] = True
        yield "empty rows between parts", c, d
        e = np.zeros((1, 13), dtype=bool)
        e[0, [0, 7]] = True
        f = np.zeros_like(e)
        f[0, [3, 12]] = True
        yield "1xW", e, f
        yield "Hx1", e.T.copy(), f.T.copy()
        diag = np.eye(300, dtype=bool)      # more than BLOCK_PAIRS pairs, the worst
        column = np.zeros_like(diag)        # in the last block; distances past 2^15
        column[:, 0] = True
        yield "diagonal against a column", diag, column
        # Squared diagonals 32258 and 32409 are the largest in int16; 32768 and
        # 32770 the smallest past it, in int32.
        for shape in ((128, 128), (129, 129), (4, 181), (4, 182)):
            g = np.zeros(shape, dtype=bool)
            g[0, 0] = True
            yield f"corner to corner {shape}", g, g[::-1, ::-1].copy()
        for size in (64, 128):              # 128x128: the largest int16 image
            for seed in (0, 1):
                s = make_sample(0, size, size, 2, seed=seed).mask
                t = make_sample(0, size, size, 2, seed=seed + 7).mask
                for label in (1, 2):
                    yield (f"generator {size}x{size} seed {seed} label {label}",
                           s == label, t == label)

    def test_hausdorff_explicit_cases_equal_exhaustive_scan(self):
        for name, a, b in self._explicit_pairs():
            assert hausdorff(a, b) == exhaustive_hausdorff(a, b), name
            assert hausdorff(b, a) == exhaustive_hausdorff(b, a), name

    def test_directed_distance_zero_when_source_inside_target(self):
        target = np.zeros((8, 8), dtype=bool)
        target[1:7, 1:7] = True
        source = np.zeros_like(target)
        source[2:5, 3:6] = True
        assert _directed_sq(source, target) == 0
        assert hausdorff(source, target) == exhaustive_hausdorff(source, target)

    def test_hausdorff_int64_branch_on_wide_image(self):
        """(W-1)^2 >= 2^31 at 1x50000 forces 64-bit squared distances."""
        a = np.zeros((1, 50000), dtype=bool)
        b = np.zeros_like(a)
        a[0, [0, 49999]] = True
        b[0, 3] = True
        assert hausdorff(a, b) == exhaustive_hausdorff(a, b) == 49996.0
        b[0, 25000] = True
        assert hausdorff(a, b) == exhaustive_hausdorff(a, b) == 24999.0

    def test_hausdorff_memory_bounded_at_256(self):
        rng = np.random.default_rng(0)
        yy, xx = np.mgrid[:256, :256]
        pred = (yy - 100) ** 2 + (xx - 90) ** 2 < 60 ** 2
        target = ((yy - 140) ** 2 + (xx - 150) ** 2 < 70 ** 2) | (rng.random((256, 256)) < 0.02)
        full_scan = 16 * int(pred.sum()) * int(target.sum())
        tracemalloc.start()
        try:
            hausdorff(pred, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20
        assert full_scan > 100 * peak

    def test_mean_metrics_average_over_classes(self):
        pred = np.zeros((4, 4), dtype=np.int64)
        gt = np.zeros((4, 4), dtype=np.int64)
        pred[0, 0] = 1
        gt[0, 0] = 1
        gt[3, 3] = 2  # class 2 missing from pred -> dice 0
        assert mean_dice(pred, gt, 2) == pytest.approx(0.5)
        assert mean_hausdorff(pred, gt, 2) > 0

    def test_mean_metrics_equal_np_mean_at_3_classes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pred = rng.integers(0, 4, size=(12, 12))
            gt = rng.integers(0, 4, size=(12, 12))
            assert mean_dice(pred, gt, 3) == np.mean(
                [dice_score(pred, gt, c) for c in (1, 2, 3)])
            assert mean_hausdorff(pred, gt, 3) == np.mean(
                [hausdorff(pred == c, gt == c) for c in (1, 2, 3)])


class TestPredictedLabels:
    @staticmethod
    def tied_logits(rng, shape, dtype):
        """Logits drawn from a few values, so most pixels tie, +0.0 against
        -0.0 included."""
        values = np.array([-1.5, -0.0, 0.0, 0.25, 2.0], dtype=dtype)
        return values[rng.integers(0, len(values), size=shape)]

    @pytest.mark.parametrize("channels", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_argmax_first_maximum(self, channels, dtype):
        rng = np.random.default_rng(channels)
        shape = (3, channels, 9, 7)
        for z in (self.tied_logits(rng, shape, dtype),
                  rng.standard_normal(shape).astype(dtype)):
            got = predicted_labels(z)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, z.argmax(axis=1))

    def test_signed_zero_tie_keeps_the_first_channel(self):
        z = np.zeros((1, 3, 1, 2))
        z[0, :, 0, 0] = [-0.0, 0.0, 0.0]
        z[0, :, 0, 1] = [-1.0, -0.0, 0.0]
        assert predicted_labels(z).tolist() == z.argmax(axis=1).tolist() == [[[0, 1]]]

    def test_label_dtype_widens_past_255_classes(self):
        z = np.random.default_rng(0).standard_normal((1, 301, 2, 3))
        got = predicted_labels(z)
        assert got.dtype == label_dtype(300) == np.uint16
        np.testing.assert_array_equal(got, z.argmax(axis=1))

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 1, 4, 4)])
    def test_rejects_what_is_not_class_logits(self, shape):
        with pytest.raises(ShapeError):
            predicted_labels(np.zeros(shape))


class TestLoss:
    def test_uniform_logits_binary_ce_is_ln2(self):
        logits = tensor(np.zeros((1, 2, 4, 4)), precision="double")
        masks = np.zeros((1, 4, 4), dtype=np.int64)
        loss = seg_loss(logits, masks, 1).item()
        # CE term ln 2; dice term adds (1 - dice) on top
        assert loss >= math.log(2.0) - 1e-9

    def test_strong_logits_loss_near_zero(self):
        masks = np.zeros((1, 4, 4), dtype=np.int64)
        masks[0, 1:3, 1:3] = 1
        raw = np.full((1, 2, 4, 4), 0.0)
        raw[0, 0] = np.where(masks[0] == 0, 10.0, -10.0)
        raw[0, 1] = np.where(masks[0] == 1, 10.0, -10.0)
        loss = seg_loss(tensor(raw, precision="double"), masks, 1).item()
        assert loss < 0.05

    def test_loss_nonnegative(self, rng):
        logits = tensor(rng.normal(size=(2, 3, 4, 4)), precision="double")
        masks = rng.integers(0, 3, size=(2, 4, 4)).astype(np.int64)
        assert seg_loss(logits, masks, 2).item() >= 0.0

    def test_label_out_of_range_rejected(self):
        logits = tensor(np.zeros((1, 2, 4, 4)), precision="double")
        masks = np.full((1, 4, 4), 5, dtype=np.int64)
        with pytest.raises(ContractError):
            seg_loss(logits, masks, 1)

    def test_gradcheck_against_central_differences(self, rng):
        logits = tensor(rng.normal(size=(1, 2, 2, 2)), precision="double")
        logits.requires_grad = True
        masks = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
        report = gradcheck(lambda: seg_loss(logits, masks, 1),
                           [("logits", logits)])
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize("classes", [1, 2, 3])
    def test_gradcheck_over_class_counts(self, rng, classes):
        logits = tensor(rng.normal(size=(2, classes + 1, 2, 3)), precision="double")
        logits.requires_grad = True
        masks = rng.integers(0, classes + 1, size=(2, 2, 3)).astype(np.int64)
        report = gradcheck(lambda: seg_loss(logits, masks, classes), [("logits", logits)])
        assert report.max_rel_error < 1e-7

    def test_matches_per_pixel_reference(self, rng):
        raw = rng.normal(size=(2, 3, 4, 5))
        masks = rng.integers(0, 3, size=(2, 4, 5)).astype(np.int64)
        probs = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
        onehot = np.stack([masks == c for c in range(3)], axis=1)
        ce = -np.log(probs[onehot]).mean()
        dice = [(2 * (probs[:, c] * onehot[:, c]).sum() + 1e-6)
                / (probs[:, c].sum() + onehot[:, c].sum() + 1e-6) for c in (1, 2)]
        want = ce + 1.0 - np.mean(dice)
        got = seg_loss(tensor(raw, precision="double"), masks, 2).item()
        assert abs(got - want) <= 1e-12

    @staticmethod
    def loss_and_grad(logits, masks, classes):
        with Tape() as tape:
            loss = seg_loss(logits, masks, classes)
            nodes = len(tape)
            tape.backward(loss)
        return loss, logits.grad, nodes

    def test_extreme_logits_give_finite_loss_and_gradient(self, rng):
        masks = rng.integers(0, 3, size=(2, 4, 5)).astype(np.int64)
        raw = np.where(rng.random((2, 3, 4, 5)) < 0.5, 1000.0, -1000.0)
        logits = tensor(raw, precision="single", requires_grad=True)
        loss, grad, _ = self.loss_and_grad(logits, masks, 2)
        assert np.isfinite(loss.item()) and np.all(np.isfinite(grad))

    @given(raw=hnp.arrays(np.float64, (2, 3, 2, 3), elements=st.floats(-10, 10)),
           masks=hnp.arrays(np.int64, (2, 2, 3), elements=st.integers(0, 2)))
    def test_gradient_sums_to_zero_over_classes(self, raw, masks):
        # the softmax is shift-invariant along the class axis
        logits = tensor(raw, precision="double", requires_grad=True)
        _, grad, _ = self.loss_and_grad(logits, masks, 2)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_single_precision_agrees_with_double(self, rng):
        raw = rng.normal(size=(4, 3, 8, 8)) * 3
        masks = rng.integers(0, 3, size=(4, 8, 8)).astype(np.int64)
        (l64, g64, _), (l32, g32, _) = (
            self.loss_and_grad(tensor(raw, precision=p, requires_grad=True), masks, 2)
            for p in ("double", "single"))
        assert l32.data.dtype == np.float32 and g32.dtype == np.float32
        assert abs(l32.item() - l64.item()) <= 1e-5 * abs(l64.item())
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)

    @pytest.mark.parametrize("classes", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_uint8_masks_bitwise_equal_int64(self, rng, classes, precision):
        raw = rng.normal(size=(2, classes + 1, 6, 5)) * 2
        masks = rng.integers(0, classes + 1, size=(2, 6, 5))
        (l64, g64, _), (l8, g8, _) = (
            self.loss_and_grad(tensor(raw, precision=precision, requires_grad=True),
                               masks.astype(dtype), classes)
            for dtype in (np.int64, np.uint8))
        assert l8.data.tobytes() == l64.data.tobytes()
        assert g8.tobytes() == g64.tobytes()

    def test_records_one_tape_node(self, rng):
        logits = tensor(rng.normal(size=(2, 3, 4, 4)), precision="single", requires_grad=True)
        masks = rng.integers(0, 3, size=(2, 4, 4)).astype(np.int64)
        assert self.loss_and_grad(logits, masks, 2)[2] == 1

    def test_nonfinite_logit_names_the_op(self):
        raw = np.zeros((1, 2, 2, 2))
        raw[0, 1, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="seg_loss"):
            seg_loss(Tensor(raw), np.zeros((1, 2, 2), dtype=np.int64), 1)


class TestOptim:
    def test_lr_endpoints_exact(self):
        assert lr_at(100, 1000, 100, 1e-4) == 1e-4
        assert abs(lr_at(1000, 1000, 100, 1e-4)) <= 1e-12

    def test_lr_midpoint_half(self):
        assert lr_at(550, 1000, 100, 1e-4) == pytest.approx(5e-5, abs=1e-18)

    def test_lr_warmup_linear(self):
        assert lr_at(0, 100, 10, 1e-3) == 0.0
        assert lr_at(5, 100, 10, 1e-3) == pytest.approx(5e-4)

    def test_lr_monotone_decay_after_warmup(self):
        vals = [lr_at(s, 200, 20, 1e-4) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_lr_validations(self):
        with pytest.raises(ContractError):
            lr_at(5, 0, 0, 1e-4)
        with pytest.raises(ContractError):
            lr_at(5, 10, 10, 1e-4)
        with pytest.raises(ContractError):
            lr_at(-1, 10, 2, 1e-4)

    def test_adam_hand_computed_first_step(self):
        p = tensor([1.0], precision="double")
        p.requires_grad = True
        opt = Adam([("p", p)])
        p.grad = np.array([0.5])
        opt.step(1e-4)
        # bias-corrected m=0.5, v=0.25 -> update = lr * 0.5 / (0.5 + eps)
        want = 1.0 - 1e-4 * 0.5 / (0.5 + 1e-8)
        assert p.numpy()[0] == pytest.approx(want, abs=1e-15)

    def test_adam_skips_unset_gradients(self):
        p = tensor([2.0], precision="double")
        p.requires_grad = True
        opt = Adam([("p", p)])
        for _ in range(5):
            opt.step(1e-2)
        assert p.numpy()[0] == 2.0

    def test_adam_deterministic_trajectories(self):
        def run():
            p = tensor([1.0, -1.0], precision="double")
            p.requires_grad = True
            opt = Adam([("p", p)])
            for i in range(10):
                p.grad = p.numpy() * 0.1 + i * 0.01
                opt.step(1e-3)
            return p.numpy()

        np.testing.assert_array_equal(run(), run())

    def test_adam_requires_parameters(self):
        with pytest.raises(ContractError):
            Adam([])
