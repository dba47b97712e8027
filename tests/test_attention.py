"""Cross-attention decoder: projections, window/global agreement, records."""
import hashlib

import numpy as np
import pytest

from conftest import naive_attention
from wau import metering
from wau.attention import AttentionDecoder, WauConfig
from wau.tensor import ContractError, NumericsError, Tape, mul, sum_all, tensor
from wau.windows import paired_partition, partition


def dirac(spec):
    """Set a conv projection to the identity (centered Dirac, zero bias)."""
    w = np.zeros(spec.weight.shape, dtype=spec.weight.data.dtype)
    k = w.shape[-1]
    for c in range(min(w.shape[0], w.shape[1])):
        w[c, c, k // 2, k // 2] = 1.0
    spec.weight.data = w
    if spec.bias is not None:
        spec.bias.data = np.zeros_like(spec.bias.data)


def make_decoder(lat_c=8, src_c=16, heads=1, window=2, ratio=2, seed=0,
                 precision="double", **kw):
    cfg = WauConfig(ratio=ratio, window=window, heads=heads,
                    precision=precision, **kw)
    rng = np.random.default_rng(seed)
    return cfg, AttentionDecoder(cfg, lat_c, src_c, rng)


def recorded_wad_forward(dec, lat, z):
    """wad_forward inside a recording; the output and its one record."""
    with metering.recording() as trace:
        out = dec.wad_forward(lat, z)
    (rec,) = trace["attention"]
    return out, rec


def maps(lat_c=8, src_c=16, h=2, w=2, ratio=2, seed=1, precision="double"):
    rng = np.random.default_rng(seed)
    lat = tensor(rng.normal(size=(1, lat_c, ratio * h, ratio * w)),
                 precision=precision)
    z = tensor(rng.normal(size=(1, src_c, h, w)), precision=precision)
    return lat, z


class TestProjections:
    def test_shapes(self):
        _, dec = make_decoder(lat_c=8, src_c=16)
        lat, z = maps()
        q, k, v = dec.project_qkv(lat, z)
        assert q.shape == (1, 8, 4, 4)
        assert k.shape == (1, 8, 2, 2)
        assert v.shape == (1, 8, 2, 2)

    def test_zero_projections_give_zero_qkv(self):
        _, dec = make_decoder()
        for spec in (dec.q_proj, dec.k_proj, dec.v_proj):
            spec.weight.data[:] = 0.0
            spec.bias.data[:] = 0.0
        q, k, v = dec.project_qkv(*maps())
        assert not q.numpy().any() and not k.numpy().any() and not v.numpy().any()

    def test_dirac_projections_pass_layer_norm_through(self):
        _, dec = make_decoder(lat_c=8, src_c=8)
        for spec in (dec.q_proj, dec.k_proj, dec.v_proj):
            dirac(spec)
        lat, z = maps(src_c=8)
        q, k, v = dec.project_qkv(lat, z)
        np.testing.assert_array_equal(k.numpy(), v.numpy())
        # q equals layer-normalized lateral: mean 0 / unit variance per pixel
        np.testing.assert_allclose(q.numpy().mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(q.numpy().var(axis=1), 1.0, atol=1e-4)

    def test_distinct_key_value_weights(self):
        _, dec = make_decoder()
        assert dec.k_proj.weight is not dec.v_proj.weight
        assert not np.array_equal(dec.k_proj.weight.numpy(),
                                  dec.v_proj.weight.numpy())


class TestWadForward:
    def test_output_shape_fig3(self):
        _, dec = make_decoder()
        lat, z = maps()
        out = dec.wad_forward(lat, z)
        assert out.shape == (1, 8, 4, 4)

    def test_heads_must_divide_embed(self):
        with pytest.raises(ContractError, match="heads 3 .* width 8"):
            make_decoder(lat_c=8, heads=3)

    def test_window_must_divide_kv_map(self):
        _, dec = make_decoder(window=3)
        lat, z = maps()
        with pytest.raises(Exception):
            dec.wad_forward(lat, z)

    def test_constant_kv_window_uniform_weights_and_mean_value(self):
        cfg, dec = make_decoder(lat_c=4, src_c=4, window=2)
        lat = maps(lat_c=4)[0]
        z = tensor(np.full((1, 4, 2, 2), 3.0), precision="double")
        dirac(dec.out_conv)   # read the context map itself
        out, rec = recorded_wad_forward(dec, lat, z)
        m2sq = cfg.window ** 2
        np.testing.assert_allclose(rec.weights, 1.0 / m2sq, atol=1e-12)
        # window rows must all equal the value mean
        rows = out.numpy()[0].reshape(4, -1)
        np.testing.assert_allclose(rows - rows[:, :1], 0.0, atol=1e-12)

    def test_record_contents(self):
        _, dec = make_decoder(lat_c=4, src_c=4, heads=2, window=2)
        lat, z = maps(lat_c=4, src_c=4, h=4, w=4)
        out, rec = recorded_wad_forward(dec, lat, z)
        assert rec.weights.shape == (4, 2, 16, 4)
        assert rec.query_shape == (1, 4, 8, 8)
        assert rec.ratio == 2 and rec.window == 2 and rec.heads == 2

    def test_recorded_weights_are_the_naive_softmax(self):
        _, dec = make_decoder(lat_c=4, src_c=4, heads=2, window=2)
        lat, z = maps(lat_c=4, src_c=4, h=4, w=4)
        dirac(dec.out_conv)
        out, rec = recorded_wad_forward(dec, lat, z)
        q, k, v = dec.project_qkv(lat, z)
        qg, kg = paired_partition(q, k, 2, 2)
        ctx, want = naive_attention(qg.blocks.data, kg.blocks.data,
                                    partition(v, 2).blocks.data, 2)
        np.testing.assert_allclose(rec.weights, want, atol=1e-12)
        assert (rec.weights >= 0).all()
        np.testing.assert_allclose(rec.weights.sum(-1), 1.0, atol=1e-12)
        # the context of query window (0, 1, 0) sits at rows 4..8, cols 0..4
        np.testing.assert_allclose(out.numpy()[0, :, 4:8, 0:4].reshape(4, 16), ctx[2],
                                   atol=1e-12)

    def test_rows_stochastic(self):
        _, dec = make_decoder(heads=2, window=2)
        lat, z = maps(h=4, w=4)
        _, rec = recorded_wad_forward(dec, lat, z)
        np.testing.assert_allclose(rec.weights.sum(-1), 1.0, atol=1e-12)

    def test_overflowing_scores_name_the_attention_op(self):
        _, dec = make_decoder(lat_c=4, src_c=4, precision="single")
        for spec in (dec.q_proj, dec.k_proj):
            spec.weight.data *= np.float32(1e20)   # q, k ~ 1e20: scores overflow float32
        lat, z = maps(lat_c=4, src_c=4, precision="single")
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(dec.project_qkv(lat, z)[0].numpy()).all()
            with pytest.raises(NumericsError, match="window_attention"):
                dec.wad_forward(lat, z)

    def test_gradcheck_wad(self):
        from wau.analysis import gradcheck
        _, dec = make_decoder(lat_c=4, src_c=4, heads=2, window=2)
        lat, z = maps(lat_c=4, src_c=4)
        lat.requires_grad = z.requires_grad = True
        wrt = ([("lateral", lat), ("z", z)] +
               [(n, t) for n, t in dec.parameters()])
        report = gradcheck(lambda: dec.wad_forward(lat, z), wrt)
        assert report.max_rel_error < 1e-6


class TestGlobalAgreement:
    @pytest.mark.parametrize("h,c,heads", [(2, 4, 1), (4, 8, 2), (2, 8, 2)])
    def test_wad_with_full_window_equals_global(self, h, c, heads):
        _, dec = make_decoder(lat_c=c, src_c=c, heads=heads, window=h)
        _, glob = make_decoder(lat_c=c, src_c=c, heads=heads, window=None)
        lat, z = maps(lat_c=c, src_c=c, h=h, w=h, seed=h * 10 + c)
        wad = dec.wad_forward(lat, z).numpy()
        ad = glob.wad_forward(lat, z).numpy()
        np.testing.assert_allclose(wad, ad, atol=1e-10)

    def test_windowed_differs_from_global_when_windows_are_proper(self):
        _, dec = make_decoder(lat_c=4, src_c=4, window=2)
        _, glob = make_decoder(lat_c=4, src_c=4, window=None)
        lat, z = maps(lat_c=4, src_c=4, h=4, w=4)
        wad = dec.wad_forward(lat, z).numpy()
        ad = glob.wad_forward(lat, z).numpy()
        assert np.abs(wad - ad).max() > 1e-6

    @pytest.mark.parametrize("h,w,ratio,heads", [(4, 6, 2, 2), (2, 3, 3, 1), (2, 2, 3, 4)])
    def test_global_context_is_the_naive_attention(self, h, w, ratio, heads):
        _, dec = make_decoder(lat_c=8, src_c=4, heads=heads, ratio=ratio, window=None)
        dirac(dec.out_conv)   # read the context map itself
        lat, z = maps(lat_c=8, src_c=4, h=h, w=w, ratio=ratio)
        out, rec = recorded_wad_forward(dec, lat, z)
        q, k, v = (t.numpy().reshape(1, 8, -1) for t in dec.project_qkv(lat, z))
        ctx, weights = naive_attention(q, k, v, heads)
        np.testing.assert_allclose(out.numpy(), ctx.reshape(out.shape), atol=1e-12)
        np.testing.assert_allclose(rec.weights, weights, atol=1e-12)

    def test_global_record_is_one_window_per_item(self):
        _, dec = make_decoder(lat_c=4, src_c=4, heads=2, ratio=3, window=None)
        rng = np.random.default_rng(2)
        lat = tensor(rng.normal(size=(2, 4, 12, 18)), precision="double")
        z = tensor(rng.normal(size=(2, 4, 4, 6)), precision="double")
        _, rec = recorded_wad_forward(dec, lat, z)
        assert rec.weights.shape == (2, 2, 9 * 24, 24)
        assert rec.window is None and rec.query_shape == (2, 4, 12, 18)

    # (h2, w2, ratio, heads, lateral width, source width)
    DIGEST_CONFIGS = [(4, 6, 2, 1, 4, 6), (2, 3, 3, 2, 4, 4), (4, 4, 2, 3, 6, 6),
                      (2, 4, 2, 4, 8, 4)]

    def test_global_decode_is_bitwise_the_reference(self):
        # sha256 over outputs and every input and parameter gradient of the
        # global decode, as computed by the former dedicated global decoder
        # (tokens made by reshaping the whole maps) before it was folded into
        # the windowed path.
        digest = hashlib.sha256()
        for precision in ("single", "double"):
            for h2, w2, n, heads, lat_c, src_c in self.DIGEST_CONFIGS:
                rng = np.random.default_rng([h2, w2, n, heads])
                cfg = WauConfig(ratio=n, window=None, heads=heads, precision=precision)
                dec = AttentionDecoder(cfg, lat_c, src_c, rng)
                lat = tensor(rng.standard_normal((2, lat_c, n * h2, n * w2)),
                             precision=precision, requires_grad=True)
                src = tensor(rng.standard_normal((2, src_c, h2, w2)),
                             precision=precision, requires_grad=True)
                weights = tensor(rng.standard_normal((2, lat_c, n * h2, n * w2)),
                                 precision=precision)
                with Tape() as tape:
                    out = dec.wad_forward(lat, src)
                    tape.backward(sum_all(mul(out, weights)))
                for arr in [out.data, lat.grad, src.grad] + [t.grad for _, t in dec.parameters()]:
                    digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "83d9ae4ec2342f08b10b0676422e7ef44cac94eccaeb455a14e84ebe77747288")

    def test_batch_equivariance_bitwise(self):
        _, dec = make_decoder(lat_c=4, src_c=4, window=2, precision="single")
        rng = np.random.default_rng(5)
        lat = tensor(rng.normal(size=(3, 4, 4, 4)).astype(np.float32))
        z = tensor(rng.normal(size=(3, 4, 2, 2)).astype(np.float32))
        batched = dec.wad_forward(lat, z).numpy()
        for i in range(3):
            one = dec.wad_forward(
                tensor(lat.numpy()[i:i + 1]), tensor(z.numpy()[i:i + 1])).numpy()
            np.testing.assert_array_equal(batched[i:i + 1], one)
