"""Window partition/merge: exact inverses, raster ordering, pairing rules."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wau.tensor import ShapeError, Tape, mul, sum_all, tensor
from wau.windows import WindowGrid, merge, paired_partition, partition


def fmap(n, c, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return tensor(rng.normal(size=(n, c, h, w)).astype(np.float32))


class TestPartition:
    def test_single_window_4x4(self):
        x = fmap(1, 3, 4, 4)
        grid = partition(x, 4)
        assert grid.num_windows == 1
        assert grid.blocks.shape == (1, 3, 16)

    def test_8x8_m4_gives_4_windows_raster_order(self):
        x = fmap(1, 2, 8, 8)
        grid = partition(x, 4)
        assert grid.num_windows == 4 and grid.tiles == (2, 2)

    def test_window_content_matches_manual_slice(self):
        x = fmap(1, 2, 8, 8)
        grid = partition(x, 4)
        # window (0, 1, 0): rows 4..8, cols 0..4, tokens in raster order
        want = x.numpy()[0, :, 4:8, 0:4].reshape(2, 16)
        np.testing.assert_array_equal(grid.blocks.numpy()[2], want)

    def test_m1_singleton_windows(self):
        x = fmap(1, 3, 4, 5)
        grid = partition(x, 1)
        assert grid.num_windows == 20
        np.testing.assert_array_equal(merge(grid).numpy(), x.numpy())

    def test_batch_major_ordering(self):
        x = fmap(2, 1, 4, 4)
        grid = partition(x, 4)
        np.testing.assert_array_equal(grid.blocks.numpy(), x.numpy().reshape(2, 1, 16))

    @given(n=st.integers(1, 3), c=st.integers(1, 4), th=st.integers(1, 3),
           tw=st.integers(1, 3), m=st.sampled_from([1, 2, 4, None]))
    def test_round_trip_bitwise(self, n, c, th, tw, m):
        # m = None: one window over a (usually non-square) map
        x = fmap(n, c, th * (m or 2), tw * (m or 3), seed=n * 100 + c)
        np.testing.assert_array_equal(merge(partition(x, m)).numpy(), x.numpy())

    def test_no_window_is_one_window_per_item(self):
        x = fmap(2, 3, 4, 6)
        grid = partition(x, None)
        assert grid.tiles == (1, 1) and grid.size == (4, 6)
        np.testing.assert_array_equal(grid.blocks.numpy(), x.numpy().reshape(2, 3, 24))

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            partition(fmap(1, 1, 6, 6), 4)

    def test_merge_validates_block_shape(self):
        grid = partition(fmap(1, 2, 4, 4), 2)
        bad = WindowGrid(tensor(np.zeros((3, 2, 4), dtype=np.float32)),
                         grid.source_shape, grid.window)
        with pytest.raises(ShapeError):
            merge(bad)

    def test_round_trip_gradient_is_identity(self):
        x = fmap(1, 2, 4, 4)
        x.requires_grad = True
        with Tape() as tape:
            y = merge(partition(x, 2))
            tape.backward(sum_all(mul(y, y)))
        np.testing.assert_allclose(x.grad, 2 * x.numpy(), atol=1e-6)


class TestPairedPartition:
    def test_fig_sizes_single_window(self):
        q = fmap(1, 4, 4, 4)
        kv = fmap(1, 8, 2, 2)
        qg, kg = paired_partition(q, kv, kv_window=2, ratio=2)
        assert qg.num_windows == kg.num_windows == 1
        assert qg.blocks.shape == (1, 4, 16)
        assert kg.blocks.shape == (1, 8, 4)

    def test_four_aligned_pairs(self):
        q = fmap(1, 2, 8, 8)
        kv = fmap(1, 2, 4, 4)
        qg, kg = paired_partition(q, kv, kv_window=2, ratio=2)
        assert qg.num_windows == kg.num_windows == 4
        assert qg.tiles == kg.tiles == (2, 2)

    def test_footprints_align(self):
        q = fmap(1, 1, 8, 8)
        kv = fmap(1, 1, 4, 4)
        qg, kg = paired_partition(q, kv, kv_window=2, ratio=2)
        # same tile of the image: q window (tr,tc) covers 4x4 pixels that
        # upsample the kv window's 2x2 pixels
        qwin = qg.blocks.numpy()[3].reshape(4, 4)
        kwin = kg.blocks.numpy()[3].reshape(2, 2)
        np.testing.assert_array_equal(qwin, q.numpy()[0, 0, 4:8, 4:8])
        np.testing.assert_array_equal(kwin, kv.numpy()[0, 0, 2:4, 2:4])

    def test_no_window_pairs_the_whole_maps(self):
        q = fmap(2, 4, 12, 18)
        kv = fmap(2, 8, 4, 6)
        qg, kg = paired_partition(q, kv, kv_window=None, ratio=3)
        assert qg.blocks.shape == (2, 4, 216)
        assert kg.blocks.shape == (2, 8, 24)
        assert qg.tiles == kg.tiles == (1, 1)

    def test_ratio_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            paired_partition(fmap(1, 1, 6, 6), fmap(1, 1, 2, 2), 2, 2)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            paired_partition(fmap(2, 1, 4, 4), fmap(1, 1, 2, 2), 2, 2)
