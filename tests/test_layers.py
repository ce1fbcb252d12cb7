"""Receiver architectures: attention oracles, degenerate equivalences, blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axialrx.layers as layers_mod
from axialrx import flopcount, selftest
from axialrx.autodiff import (
    DimensionError,
    Tape,
    Tensor,
    backward,
    bmm,
    conv2d,
    layer_norm,
    mean_all,
    scale,
    softmax,
    sum_all,
)
from axialrx.cli import load_config, receiver_config_from
from axialrx.complexity import model_report
from axialrx.layers import (
    AttentionWeights,
    AxialBlock,
    FeedForward,
    GlobalBlock,
    LayerNormParams,
    Receiver,
    ReceiverConfig,
    ResNetUnit,
    attend,
    attention_projection_params,
    axial_freq_attention,
    axial_time_attention,
    feed_forward,
    global_mhsa,
    input_features,
)
from axialrx.trainer import bce_loss
from helpers import (
    composed_attend,
    composed_feed_forward,
    gradcheck,
    taped_bits,
    written_out_layer_norm,
)


class FakeGrid:
    def __init__(self, y, n0):
        self.y = y
        self.n0 = n0


def random_grid(rng, t, f, n_rx, n0=0.5):
    y = rng.standard_normal((t, f, n_rx)) + 1j * rng.standard_normal((t, f, n_rx))
    return FakeGrid(y, n0)


def make_weights(d, heads, seed=0):
    return AttentionWeights(d, heads, np.random.default_rng(seed))


def mhsa_oracle_longdouble(x, wq, wk, wv, wo, heads):
    """Per-head scaled dot-product attention computed step by step in float128."""
    x = x.astype(np.longdouble)
    wq, wk, wv, wo = (m.astype(np.longdouble) for m in (wq, wk, wv, wo))
    length, d = x.shape
    dh = d // heads
    head_outputs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        q, k, v = x @ wq[:, cols], x @ wk[:, cols], x @ wv[:, cols]
        scores = (q @ k.T) / np.sqrt(np.longdouble(dh))
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights = weights / weights.sum(axis=1, keepdims=True)
        head_outputs.append(weights @ v)
    return (np.concatenate(head_outputs, axis=1) @ wo).astype(np.float64)


class TestInputFeatures:
    def test_channel_count(self):
        rng = np.random.default_rng(0)
        z = input_features(rng.standard_normal((4, 5, 2)) + 0j, n0=0.5)
        assert z.shape == (4, 5, 5)

    def test_zero_grid_unit_noise_gives_all_zero(self):
        z = input_features(np.zeros((3, 4, 2), dtype=complex), n0=1.0)
        np.testing.assert_array_equal(z.data, np.zeros((3, 4, 5)))

    def test_noise_plane_is_log10(self):
        z = input_features(np.zeros((2, 2, 1), dtype=complex), n0=100.0)
        np.testing.assert_array_equal(z.data[..., -1], np.full((2, 2), 2.0))

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            input_features(np.zeros((2, 2, 1), dtype=complex), n0=0.0)


class TestPositionalAdd:
    def test_zero_encoding_is_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 4, 8)))
        p = Tensor(np.zeros((3, 4, 8)), requires_grad=True)
        np.testing.assert_array_equal((x + p).data, x.data)

    def test_zero_input_returns_encoding(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.standard_normal((3, 4, 8)), requires_grad=True)
        np.testing.assert_array_equal((Tensor(np.zeros((3, 4, 8))) + p).data, p.data)

    def test_gradient_wrt_encoding_is_ones(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        p = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x + p)
        np.testing.assert_array_equal(backward(loss, tape, leaves=[p])[p], np.ones((2, 3, 4)))


class TestGlobalMhsa:
    def test_single_position_attention_is_identity_weight(self):
        """T = F = 1: the 1x1 attention matrix is [1]."""
        rng = np.random.default_rng(4)
        w = make_weights(8, 2, seed=1)
        x = Tensor(rng.standard_normal((1, 1, 8)))
        out = global_mhsa(x, w)
        expected = (x.data.reshape(1, 8) @ w.wv.data) @ w.wo.data
        np.testing.assert_allclose(out.data.reshape(1, 8), expected, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(5)
        w = make_weights(8, 4, seed=2)
        row = rng.standard_normal(8)
        x = Tensor(np.tile(row, (3, 5, 1)))
        out = global_mhsa(x, w).data.reshape(-1, 8)
        np.testing.assert_allclose(out, np.tile(out[0], (15, 1)), atol=1e-12)

    def test_matches_longdouble_oracle(self):
        rng = np.random.default_rng(6)
        for heads in (1, 2):
            w = make_weights(4, heads, seed=7)
            x = rng.standard_normal((2, 2, 4))
            out = global_mhsa(Tensor(x), w).data
            oracle = mhsa_oracle_longdouble(
                x.reshape(4, 4), w.wq.data, w.wk.data, w.wv.data, w.wo.data, heads)
            np.testing.assert_allclose(out.reshape(4, 4), oracle, atol=1e-10)

    def test_permutation_equivariance_of_flattened_sequence(self):
        rng = np.random.default_rng(7)
        w = make_weights(8, 2, seed=3)
        x = rng.standard_normal((3, 4, 8))
        perm = rng.permutation(12)
        base = global_mhsa(Tensor(x), w).data.reshape(12, 8)
        shuffled = global_mhsa(Tensor(x.reshape(12, 8)[perm].reshape(3, 4, 8)), w).data
        np.testing.assert_allclose(shuffled.reshape(12, 8), base[perm], atol=1e-12)


class TestAxialAttention:
    def test_time_equals_global_when_single_subcarrier(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            w = make_weights(8, 2, seed=seed)
            x = Tensor(rng.standard_normal((6, 1, 8)))
            diff = np.abs(axial_time_attention(x, w).data - global_mhsa(x, w).data).max()
            assert diff < 1e-10

    def test_freq_equals_global_when_single_symbol(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            w = make_weights(8, 2, seed=seed)
            x = Tensor(rng.standard_normal((1, 6, 8)))
            diff = np.abs(axial_freq_attention(x, w).data - global_mhsa(x, w).data).max()
            assert diff < 1e-10

    def test_degenerate_length_one_sequences(self):
        rng = np.random.default_rng(10)
        w = make_weights(6, 3, seed=4)
        x = rng.standard_normal((1, 5, 6))
        out = axial_time_attention(Tensor(x), w).data  # T = 1 sequences
        expected = (x.reshape(5, 6) @ w.wv.data) @ w.wo.data
        np.testing.assert_allclose(out.reshape(5, 6), expected, atol=1e-12)
        out_f = axial_freq_attention(Tensor(x.transpose(1, 0, 2)), w).data  # F = 1
        np.testing.assert_allclose(out_f.reshape(5, 6), expected, atol=1e-12)

    def test_time_attention_is_local_to_each_subcarrier(self):
        rng = np.random.default_rng(11)
        w = make_weights(8, 2, seed=5)
        x = rng.standard_normal((5, 4, 8))
        full = axial_time_attention(Tensor(x), w).data
        zeroed = x.copy()
        zeroed[:, [0, 1, 3], :] = 0.0
        partial = axial_time_attention(Tensor(zeroed), w).data
        np.testing.assert_array_equal(partial[:, 2], full[:, 2])

    def test_column_permutation_equivariance_exact(self):
        rng = np.random.default_rng(12)
        w = make_weights(8, 2, seed=6)
        x = rng.standard_normal((5, 4, 8))
        perm = rng.permutation(4)
        base = axial_time_attention(Tensor(x), w).data
        permuted = axial_time_attention(Tensor(x[:, perm]), w).data
        np.testing.assert_array_equal(permuted, base[:, perm])

    def test_row_permutation_equivariance_exact(self):
        rng = np.random.default_rng(13)
        w = make_weights(8, 2, seed=7)
        x = rng.standard_normal((5, 4, 8))
        perm = rng.permutation(5)
        base = axial_freq_attention(Tensor(x), w).data
        permuted = axial_freq_attention(Tensor(x[perm]), w).data
        np.testing.assert_array_equal(permuted, base[perm])

    def test_transpose_duality(self):
        rng = np.random.default_rng(14)
        w = make_weights(8, 4, seed=8)
        x = rng.standard_normal((5, 3, 8))
        direct = axial_freq_attention(Tensor(x), w).data
        via_time = axial_time_attention(Tensor(x.transpose(1, 0, 2)), w).data.transpose(1, 0, 2)
        np.testing.assert_allclose(direct, via_time, atol=1e-12)


def zero_attention(w: AttentionWeights) -> None:
    for t in (w.wq, w.wk, w.wv, w.wo):
        t.data = np.zeros_like(t.data)


class TestBlocks:
    def test_axial_block_zero_weights_is_identity(self):
        cfg = ReceiverConfig(variant="axial", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        block = AxialBlock(cfg, np.random.default_rng(0))
        zero_attention(block.time)
        zero_attention(block.freq)
        for t in (block.ffn.w1, block.ffn.w2):
            t.data = np.zeros_like(t.data)
        x = np.random.default_rng(1).standard_normal((3, 4, 8))
        np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-14)

    def test_global_block_zero_weights_is_identity(self):
        cfg = ReceiverConfig(variant="global", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        block = GlobalBlock(cfg, np.random.default_rng(0))
        zero_attention(block.att)
        for t in (block.ffn.w1, block.ffn.w2):
            t.data = np.zeros_like(t.data)
        x = np.random.default_rng(2).standard_normal((3, 4, 8))
        np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-14)

    def test_axial_block_matches_composed_oracle(self):
        cfg = ReceiverConfig(variant="axial", t=2, f=2, n_rx=1, d=4, heads=1, n_blocks=1,
                             bits_per_symbol=2)
        block = AxialBlock(cfg, np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).standard_normal((2, 2, 4)))
        got = block(x).data
        step1 = x.data + axial_time_attention(block.ln1(x), block.time).data
        t1 = Tensor(step1)
        step2 = step1 + axial_freq_attention(block.ln2(t1), block.freq).data
        t2 = Tensor(step2)
        step3 = step2 + block.ffn(block.ln3(t2)).data
        np.testing.assert_allclose(got, step3, atol=1e-12)

    def test_global_block_matches_composed_oracle(self):
        cfg = ReceiverConfig(variant="global", t=2, f=3, n_rx=1, d=4, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        block = GlobalBlock(cfg, np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 4)))
        got = block(x).data
        step1 = x.data + global_mhsa(block.ln1(x), block.att).data
        t1 = Tensor(step1)
        step2 = step1 + block.ffn(block.ln2(t1)).data
        np.testing.assert_allclose(got, step2, atol=1e-12)

    def test_block_preserves_shape(self):
        for t, f in ((2, 7), (5, 3)):
            cfg = ReceiverConfig(variant="axial", t=t, f=f, n_rx=1, d=8, heads=4, n_blocks=1,
                                 bits_per_symbol=2)
            block = AxialBlock(cfg, np.random.default_rng(7))
            x = Tensor(np.random.default_rng(8).standard_normal((t, f, 8)))
            assert block(x).shape == (t, f, 8)

    def test_resnet_unit_zero_second_conv_is_identity(self):
        unit = ResNetUnit(6, np.random.default_rng(9))
        unit.conv2.w.data = np.zeros_like(unit.conv2.w.data)
        unit.conv2.b.data = np.zeros_like(unit.conv2.b.data)
        x = np.random.default_rng(10).standard_normal((4, 5, 6))
        np.testing.assert_allclose(unit(Tensor(x)).data, x, atol=1e-14)

    def test_resnet_unit_matches_composed_oracle(self):
        from axialrx.autodiff import relu as ad_relu

        unit = ResNetUnit(4, np.random.default_rng(11))
        x = Tensor(np.random.default_rng(12).standard_normal((3, 3, 4)))
        got = unit(x).data
        inner = unit.conv2(ad_relu(unit.conv1(unit.ln(x)))).data
        np.testing.assert_allclose(got, x.data + inner, atol=1e-13)


def taped_feed_forward(op, x: np.ndarray, w: FeedForward):
    """`taped_bits` of op(x, w) for a fixed random upstream gradient."""
    xt = Tensor(x, requires_grad=True)
    upstream = np.random.default_rng(60).standard_normal(x.shape)
    return taped_bits(lambda: op(xt, w), [xt, w.w1, w.b1, w.w2, w.b2], upstream)


class TestFeedForward:
    """`feed_forward` is one node, bitwise the composed tape ops it replaced."""

    def test_bitwise_equal_to_composition(self):
        rng = np.random.default_rng(61)
        w = FeedForward(8, 16, rng)
        w.b1.data = rng.standard_normal(16)
        w.b2.data = rng.standard_normal(8)
        x = rng.standard_normal((3, 5, 8))
        got, ref = taped_feed_forward(feed_forward, x, w), taped_feed_forward(
            composed_feed_forward, x, w)
        assert got[:3] == ref[:3]
        assert (got[3], ref[3]) == (3, 9)  # the op or its 7 ops, then mul and sum_all

    def test_records_one_node(self):
        w = FeedForward(8, 16, np.random.default_rng(62))
        x = Tensor(np.random.default_rng(63).standard_normal((3, 5, 8)), requires_grad=True)
        with Tape() as tape:
            w(x)
        assert [node.grad_fn.__qualname__.split(".")[0] for node in tape.nodes] == \
            ["feed_forward"]

    def test_rejects_mismatched_shapes(self):
        w = FeedForward(4, 6, np.random.default_rng(64))
        with pytest.raises(DimensionError):
            feed_forward(Tensor(np.zeros((2, 3, 5))), w)
        w.b1 = Tensor(np.zeros(5))
        with pytest.raises(DimensionError):
            feed_forward(Tensor(np.zeros((2, 3, 4))), w)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), d=st.integers(1, 4), hidden=st.integers(1, 5),
           constant_rows=st.integers(0, 7), zero_units=st.integers(0, 5),
           seed=st.integers(0, 2**16))
    def test_prenorm_ffn_bitwise_equal_to_oracles_property(self, n, d, hidden, constant_rows,
                                                            zero_units, seed):
        """layer_norm then feed_forward against the written-out layer_norm then
        the composed FFN. The first `constant_rows` rows of x are one constant,
        and the first `zero_units` hidden pre-activations of the last row are
        exactly 0: b1 cancels that row's product with w1."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        x[:constant_rows] = rng.standard_normal()
        ln = LayerNormParams(d)
        ln.gamma.data, ln.beta.data = rng.standard_normal(d) + 1.0, rng.standard_normal(d)
        w = FeedForward(d, hidden, rng)
        w.b1.data, w.b2.data = rng.standard_normal(hidden), rng.standard_normal(d)
        product = layer_norm(Tensor(x), ln.gamma, ln.beta).data @ w.w1.data
        w.b1.data[:zero_units] = -product[-1, :zero_units]
        upstream = rng.standard_normal((n, d))
        runs = []
        for norm, ffn in ((layer_norm, feed_forward),
                          (written_out_layer_norm, composed_feed_forward)):
            xt = Tensor(x, requires_grad=True)
            leaves = [xt, ln.gamma, ln.beta, w.w1, w.b1, w.w2, w.b2]
            runs.append(taped_bits(lambda: ffn(norm(xt, ln.gamma, ln.beta), w), leaves,
                                   upstream)[:3])
        assert runs[0] == runs[1]


class TestReceiver:
    @pytest.mark.parametrize("variant", ["axial", "global", "cnn-resnet"])
    def test_forward_shapes(self, variant):
        cfg = ReceiverConfig(variant=variant, t=14, f=24, n_rx=2, d=16, heads=4, n_blocks=2,
                             bits_per_symbol=2, resnet_units=2, resnet_channels=12)
        model = Receiver(cfg, seed=0)
        grid = random_grid(np.random.default_rng(0), 14, 24, 2)
        out = model(grid)
        assert out.shape == (14, 24, 2)
        assert np.isfinite(out.data).all()

    def test_forward_deterministic(self):
        cfg = ReceiverConfig(variant="axial", t=6, f=8, n_rx=1, d=8, heads=2, n_blocks=2,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=1)
        grid = random_grid(np.random.default_rng(1), 6, 8, 1)
        np.testing.assert_array_equal(model(grid).data, model(grid).data)

    def test_zero_blocks_is_projection_composition(self):
        cfg = ReceiverConfig(variant="axial", t=4, f=5, n_rx=1, d=8, heads=2, n_blocks=0,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=2)
        grid = random_grid(np.random.default_rng(2), 4, 5, 1)
        z = input_features(grid.y, grid.n0)
        expected = model.output_conv(model.input_conv(z) + model.pos).data
        np.testing.assert_array_equal(model(grid).data, expected)

    def test_grid_shape_mismatch_rejected(self):
        cfg = ReceiverConfig(variant="axial", t=4, f=5, n_rx=1, d=8, heads=2, n_blocks=0,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=3)
        rng = np.random.default_rng(3)
        expected = r"\(2, 5, 4, 1\) does not end in the configured \(T, F, N_rx\) = \(4, 5, 1\)"
        with pytest.raises(ValueError, match=r"\(5, 4, 1\) does not end in .* \(4, 5, 1\)"):
            model(random_grid(rng, 5, 4, 1))
        with pytest.raises(ValueError, match=expected):
            model(FakeGrid(np.zeros((2, 5, 4, 1), dtype=complex), 0.5))
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 5, 1\) does not end"):
            model(FakeGrid(np.zeros((1, 2, 4, 5, 1), dtype=complex), 0.5))

    def test_output_projection_zero_weights_max_uncertainty(self):
        cfg = ReceiverConfig(variant="axial", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=4)
        model.output_conv.w.data = np.zeros_like(model.output_conv.w.data)
        model.output_conv.b.data = np.zeros_like(model.output_conv.b.data)
        out = model(random_grid(np.random.default_rng(4), 3, 4, 1))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 2)))

    def test_output_projection_passthrough_channel(self):
        from axialrx.autodiff import conv2d

        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 4, 6)))
        w = np.zeros((1, 1, 6, 2))
        w[0, 0, 0, 0] = 1.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data[..., 0], x.data[..., 0])
        np.testing.assert_array_equal(out.data[..., 1], np.zeros((3, 4)))

    def test_attention_parameter_doubling(self):
        assert attention_projection_params("axial", 32) == 2 * attention_projection_params("global", 32)
        for d in (8, 32, 128):
            assert attention_projection_params("global", d) == 4 * d * d

    def test_block_parameter_counts_match_formula(self):
        for variant in ("axial", "global"):
            cfg = ReceiverConfig(variant=variant, t=4, f=4, n_rx=1, d=16, heads=4, n_blocks=1,
                                 bits_per_symbol=2)
            model = Receiver(cfg, seed=6)
            attn_names = ("time.", "freq.", "att.")
            counted = sum(t.size for n, t in model.named_parameters().items()
                          if n.startswith("block00.") and any(p in n for p in attn_names)
                          and n.endswith(("wq", "wk", "wv", "wo")))
            assert counted == attention_projection_params(variant, 16)

    def test_named_parameters_sorted_and_complete(self):
        cfg = ReceiverConfig(variant="global", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=2,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=7)
        names = list(model.named_parameters())
        assert names == sorted(names)
        assert "pos" in names and "block01.ffn.w2" in names

    def test_load_state_round_trip_and_validation(self):
        cfg = ReceiverConfig(variant="axial", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        a = Receiver(cfg, seed=8)
        b = Receiver(cfg, seed=9)
        state = {k: t.data.copy() for k, t in a.named_parameters().items()}
        b.load_state(state)
        grid = random_grid(np.random.default_rng(6), 3, 4, 1)
        np.testing.assert_array_equal(a(grid).data, b(grid).data)
        with pytest.raises(ValueError, match="missing"):
            bad = dict(state)
            del bad["pos"]
            Receiver(cfg, seed=10).load_state(bad)
        with pytest.raises(ValueError, match="shape"):
            bad = dict(state)
            bad["pos"] = np.zeros((1, 1, 1))
            Receiver(cfg, seed=11).load_state(bad)


TINY_STACK_CONFIGS = {
    "axial": dict(variant="axial", d=8, heads=2, n_blocks=1),
    "global": dict(variant="global", d=8, heads=2, n_blocks=1),
    "cnn-resnet": dict(variant="cnn-resnet", resnet_units=1, resnet_channels=6),
}


def stacked_grid(rng, blocks, t, f, n_rx, n0=0.5):
    shape = (blocks, t, f, n_rx)
    return FakeGrid(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), n0)


class TestStackedForward:
    """A (B, T, F, N_rx) stack runs each op once over all B grids and gives
    every grid the bits, and charges it the FLOPs, of its own forward."""

    @pytest.mark.parametrize("variant", list(TINY_STACK_CONFIGS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stack_equals_single_grids(self, variant, dtype):
        cfg = ReceiverConfig(t=5, f=6, n_rx=2, bits_per_symbol=2, **TINY_STACK_CONFIGS[variant])
        model = Receiver(cfg, seed=30)
        randomize_output_head(model, seed=31)
        for tensor in model.named_parameters().values():
            tensor.data = tensor.data.astype(dtype)
        stack = stacked_grid(np.random.default_rng(32), 4, 5, 6, 2)
        with flopcount.FlopCounter() as stacked_count:
            out = model(stack).data
        assert out.shape == (4, 5, 6, 2) and out.dtype == dtype
        for b in range(4):
            with flopcount.FlopCounter() as single_count:
                single = model(FakeGrid(stack.y[b], stack.n0)).data
            assert single.shape == (5, 6, 2)
            assert out[b].tobytes() == single.tobytes()
        assert {k: 4 * v for k, v in single_count.buckets.items()} == stacked_count.buckets

    def test_stack_gradients(self):
        """Finite differences of conv2d, the positional add and the attention op
        on a stack of 2 tiny grids: every grid's gradient flows to the shared
        parameters, the encoding's summed over the block axis."""
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)
        cw = Tensor(rng.standard_normal((3, 3, 2, 4)) * 0.5, requires_grad=True)
        cb = Tensor(rng.standard_normal(4), requires_grad=True)
        pos = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        w = AttentionWeights(4, 2, rng)
        r = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def loss():
            h = conv2d(x, cw, cb) + pos
            return sum_all((axial_time_attention(h, w) + global_mhsa(h, w)) * r)

        gradcheck(loss, [x, cw, cb, pos, w.wq, w.wk, w.wv, w.wo])

    def test_stack_gradient_of_encoding_sums_over_blocks(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((3, 2, 4, 5)))
        p = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        g = rng.standard_normal((3, 2, 4, 5))
        with Tape() as tape:
            loss = sum_all((x + p) * Tensor(g))
        assert len(tape.nodes) == 3
        np.testing.assert_array_equal(backward(loss, tape, leaves=[p])[p], g.sum(axis=0))

    def test_add_rejects_non_trailing_shape(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3, 4))) + Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            Tensor(np.zeros((3, 4))) + Tensor(np.zeros((2, 3, 4)))


def randomize_output_head(model: Receiver, seed: int) -> None:
    """The output projection starts at zero; gradient checks need it live."""
    rng = np.random.default_rng(seed)
    model.output_conv.w.data = rng.standard_normal(model.output_conv.w.shape) * 0.5
    model.output_conv.b.data = rng.standard_normal(model.output_conv.b.shape) * 0.1


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", ["axial", "global"])
    def test_one_block_receiver_gradient_soundness(self, variant):
        cfg = ReceiverConfig(variant=variant, t=4, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=12)
        randomize_output_head(model, seed=20)
        grid = random_grid(np.random.default_rng(7), 4, 4, 1)
        leaves = list(model.named_parameters().values())
        gradcheck(lambda: mean_all(model(grid)), leaves)

    def test_resnet_receiver_gradient_soundness(self):
        cfg = ReceiverConfig(variant="cnn-resnet", t=3, f=3, n_rx=1, d=8, heads=2,
                             bits_per_symbol=2, resnet_units=1, resnet_channels=4)
        model = Receiver(cfg, seed=13)
        randomize_output_head(model, seed=21)
        grid = random_grid(np.random.default_rng(8), 3, 3, 1)
        leaves = list(model.named_parameters().values())
        gradcheck(lambda: mean_all(model(grid)), leaves)

    def test_attention_rows_sum_to_one(self, monkeypatch):
        """Softmax scores sum to one per query row inside every variant: the
        first argument of every second `layers.bmm` call is a probability block."""
        products = []
        original = layers_mod.bmm

        def spy(a, b, out):
            products.append(a.copy())
            return original(a, b, out)

        monkeypatch.setattr(layers_mod, "bmm", spy)
        rng = np.random.default_rng(9)
        w = make_weights(8, 2, seed=14)
        x = Tensor(rng.standard_normal((3, 5, 8)))
        axial_time_attention(x, w)
        axial_freq_attention(x, w)
        global_mhsa(x, w)
        probabilities = products[1::2]
        assert len(probabilities) == 3
        for a in probabilities:
            np.testing.assert_allclose(a.sum(axis=-1), np.ones(a.shape[:-1]), atol=1e-12)


def attend_unchunked(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """attend with the whole core as one bmm(softmax(scale(bmm(q, k^T), c)), v)."""
    s, length, d = x.shape
    h = w.heads
    dh = d // h

    def split_heads(m):
        proj = x.reshape(s * length, d) @ m.data
        return proj.reshape(s, length, h, dh).transpose(0, 2, 1, 3).reshape(s * h, length, dh)

    q, k, v = split_heads(w.wq), split_heads(w.wk), split_heads(w.wv)
    scores = bmm(Tensor(q), Tensor(k.transpose(0, 2, 1)))
    mixed = bmm(softmax(scale(scores, 1.0 / np.sqrt(dh)), axis=-1), Tensor(v)).data
    merged = mixed.reshape(s, h, length, dh).transpose(0, 2, 1, 3).reshape(s * length, d)
    return (merged @ w.wo.data).reshape(s, length, d)


# (cap, x shape, heads, score chunks). x is (S, L, D) with S*H sequences;
# caps are small so each path runs.
CHUNK_PATHS = {
    # one chunk covers all 6 sequences of 5x5 scores
    "single": (150, (3, 5, 8), 2, 1),
    # 4 sequences per chunk (100 // 25), the last chunk holds the other 2
    "grouped": (100, (3, 5, 8), 2, 2),
    # 25 > 12 scores per sequence: rows of 12 // 5 = 2 (2, 2, 1) per sequence
    "row-split": (12, (3, 5, 8), 2, 18),
}


def spy_products(monkeypatch) -> list[tuple]:
    """Log (a, b, out) of every `layers.bmm` call, the attention core's products."""
    calls = []
    original = layers_mod.bmm

    def spy(a, b, out):
        calls.append((a, b, out))
        return original(a, b, out)

    monkeypatch.setattr(layers_mod, "bmm", spy)
    return calls


def taped_attention(op, x: np.ndarray, w: AttentionWeights):
    """`taped_bits` of an attention operator for a fixed random upstream
    gradient: output, gradients of x and the weights, FLOP buckets, tape
    nodes."""
    xt = Tensor(x, requires_grad=True)
    upstream = np.random.default_rng(46).standard_normal(x.shape)
    return taped_bits(lambda: op(xt, w), [xt, w.wq, w.wk, w.wv, w.wo], upstream)


def composed_oracle(x: Tensor, w: AttentionWeights) -> Tensor:
    """`attend` as the composed tape ops, at the current chunk cap."""
    return composed_attend(x, w.wq, w.wk, w.wv, w.wo, w.heads, layers_mod.CORE_CHUNK_SCORES)


def assert_matches_composed(op, x, w, monkeypatch):
    """`op` with the fused attention is bitwise `op` with the composed ops:
    output, every gradient and every FLOP bucket."""
    got = taped_attention(op, x, w)
    with monkeypatch.context() as m:
        m.setattr(layers_mod, "attend", composed_oracle)
        ref = taped_attention(op, x, w)
    assert got[:3] == ref[:3]


# Score caps that send each operator on a (3, 5, 8) grid with 2 heads down
# each chunk path: time attention runs 5 sequences of L=3, frequency 3 of
# L=5 and global 1 of L=15, each times 2 heads.
OPERATOR_CAPS = {
    "time": {"single": 90, "grouped": 40, "row-split": 8},  # 2, 2, 1 sequences per chunk
    "freq": {"single": 150, "grouped": 100, "row-split": 8},  # 2, 1 sequences per chunk
    # One sequence cannot be grouped; at 300 each head's one row block spans all 15 rows.
    "global": {"single": 450, "grouped": 300, "row-split": 100},
}
OPERATORS = {"time": axial_time_attention, "freq": axial_freq_attention, "global": global_mhsa}


class TestChunkedCore:
    """attend's cache-sized chunks against the unchunked core."""

    @pytest.mark.parametrize("path", sorted(CHUNK_PATHS))
    def test_matches_unchunked_core(self, path, monkeypatch):
        cap, shape, heads, chunks = CHUNK_PATHS[path]
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
        calls = spy_products(monkeypatch)
        rng = np.random.default_rng(40)
        w = make_weights(shape[2], heads, seed=41)
        x = rng.standard_normal(shape)
        got = attend(Tensor(x), w).data
        np.testing.assert_allclose(got, attend_unchunked(x, w), rtol=1e-12, atol=0)
        score_blocks = [out for _, _, out in calls[0::2]]
        assert len(calls) == 2 * chunks
        assert all(block.size <= cap for block in score_blocks)

    @pytest.mark.parametrize("path", sorted(CHUNK_PATHS))
    def test_bitwise_equal_to_composed_core(self, path, monkeypatch):
        cap, shape, heads, _ = CHUNK_PATHS[path]
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
        x = np.random.default_rng(47).standard_normal(shape)
        assert_matches_composed(attend, x, make_weights(shape[2], heads, seed=48), monkeypatch)

    @pytest.mark.parametrize("path", ["single", "grouped", "row-split"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_operator_bitwise_equal_to_composed(self, operator, path, monkeypatch):
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", OPERATOR_CAPS[operator][path])
        x = np.random.default_rng(54).standard_normal((3, 5, 8))
        assert_matches_composed(OPERATORS[operator], x, make_weights(8, 2, seed=55),
                                monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(1, 3), length=st.integers(1, 7), heads=st.integers(1, 3),
           dh=st.integers(1, 3), cap=st.integers(1, 120), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_composed_core_property(self, s, length, heads, dh, cap, seed):
        x = np.random.default_rng(seed).standard_normal((s, length, heads * dh))
        w = make_weights(heads * dh, heads, seed=seed + 1)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
            assert_matches_composed(attend, x, w, m)

    def test_single_chunk_records_the_unchunked_nodes(self):
        """At the default cap a desk-sized axial call records one node."""
        w = make_weights(32, 4, seed=42)
        x = Tensor(np.random.default_rng(43).standard_normal((14, 24, 32)), requires_grad=True)
        with Tape() as tape:
            axial_freq_attention(x, w)
        ops = [node.grad_fn.__qualname__.split(".")[0] for node in tape.nodes]
        assert ops == ["attend"]

    def test_taped_desk_axial_grid_records_26_nodes(self):
        """Forward and BCE loss of one desk axial grid: 115 nodes when each
        attention operator recorded its projections, head splits and merge,
        and 38 when each feed-forward recorded its 7 ops. A training step
        adds the batch-weight `scale`, 27 in all."""
        cfg = receiver_config_from(load_config(None, "desk"))
        model = Receiver(cfg, seed=0)
        grid = random_grid(np.random.default_rng(56), cfg.t, cfg.f, cfg.n_rx)
        bits = np.random.default_rng(57).integers(0, 2, (cfg.t, cfg.f, cfg.bits_per_symbol))
        with Tape() as tape:
            bce_loss(model(grid), bits, np.ones((cfg.t, cfg.f), dtype=bool))
        assert len(tape.nodes) == 26

    def test_tape_nodes_do_not_grow_with_chunks(self, monkeypatch):
        w = make_weights(8, 2, seed=49)
        x = Tensor(np.random.default_rng(50).standard_normal((3, 5, 8)), requires_grad=True)
        counts = []
        for cap in (layers_mod.CORE_CHUNK_SCORES, 12):  # 1 chunk, then 30 row chunks
            monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
            with Tape() as tape:
                global_mhsa(x, w)
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]

    def test_backward_memory_stays_chunk_sized(self):
        """A global (14, 64, 32) call runs 52 row chunks of 73 x 896 scores
        (511 KiB each). Keeping every chunk's scores for backward, as separate
        tape ops did, peaked above 50 MiB; recomputing them stays near 6 MiB."""
        w = make_weights(32, 4, seed=51)
        x = Tensor(np.random.default_rng(52).standard_normal((14, 64, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = mean_all(global_mhsa(x, w))
            backward(loss, tape, leaves=[x, w.wq, w.wk, w.wv, w.wo])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("variant", ["axial", "global"])
    def test_forward_calls_bmm_twice_per_chunk(self, variant, monkeypatch):
        """perfbench times the core through `layers.bmm`; every chunk's second
        product takes the probabilities its first one wrote."""
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", 12)
        calls = spy_products(monkeypatch)
        cfg = ReceiverConfig(variant=variant, t=3, f=5, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        Receiver(cfg, seed=0)(random_grid(np.random.default_rng(53), 3, 5, 1))
        # axial: time L=3 (10 sequences of 9 scores, 1 per chunk) and
        # frequency L=5 (6 sequences split into 3 row blocks); global: L=15,
        # rows of 1, 2 heads
        assert len(calls) == 2 * (10 + 18 if variant == "axial" else 30)
        for (_, _, scores), (probabilities, _, _) in zip(calls[0::2], calls[1::2]):
            assert probabilities is scores

    def test_row_split_global_gradient(self, monkeypatch):
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", 14)  # rows of 2 of 6
        rng = np.random.default_rng(44)
        w = make_weights(4, 2, seed=45)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gradcheck(lambda: mean_all(global_mhsa(x, w) * global_mhsa(x, w)),
                  [x, w.wq, w.wk, w.wv, w.wo])

    @pytest.mark.parametrize("path", sorted(CHUNK_PATHS))
    @pytest.mark.parametrize("variant", ["axial", "global"])
    def test_counted_flops_equal_analytic(self, variant, path, monkeypatch):
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", CHUNK_PATHS[path][0])
        cfg = ReceiverConfig(variant=variant, t=3, f=5, n_rx=1, d=8, heads=2, n_blocks=2,
                             bits_per_symbol=2)
        report = model_report(cfg, instrumented=True)
        assert report.counted_layers == report.analytic_layers
        assert report.attention_counted == report.attention_analytic


class TestSelftestAttentionCheck:
    """`selftest.check_attention_gradients` runs the op at the default cap,
    then row-split at a cap of 6 scores, and restores the cap."""

    def test_runs_one_chunk_then_row_blocks(self, monkeypatch):
        cap = layers_mod.CORE_CHUNK_SCORES
        calls = spy_products(monkeypatch)
        assert selftest.check_attention_gradients()[1]
        queries = [q.shape for q, _, _ in calls[0::2]]
        single = queries.count((2, 2, 3, 2))  # x (2, 3, 4), 2 heads: one chunk
        assert single > 0 and queries[:single] == [(2, 2, 3, 2)] * single
        # 2 sequences x 2 heads, each in query rows 0:2 and 2:3
        assert queries[single:] == [(1, 1, 2, 2), (1, 1, 1, 2)] * 4 * single
        assert layers_mod.CORE_CHUNK_SCORES == cap

    def test_restores_the_cap_when_gradcheck_fails(self, monkeypatch):
        cap = layers_mod.CORE_CHUNK_SCORES
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)  # undone even if not restored
        seen = []

        def failing_gradcheck(build_loss, leaves):
            seen.append(layers_mod.CORE_CHUNK_SCORES)
            if layers_mod.CORE_CHUNK_SCORES == 6:
                raise AssertionError("injected mismatch")

        monkeypatch.setattr(selftest, "gradcheck", failing_gradcheck)
        _, ok, detail = selftest.check_attention_gradients()
        assert (ok, detail) == (False, "injected mismatch")
        assert seen == [cap, 6]
        assert layers_mod.CORE_CHUNK_SCORES == cap
