"""Receiver architectures: attention oracles, degenerate equivalences, blocks."""

import numpy as np
import pytest

import axialrx.layers as layers_mod
from axialrx.autodiff import Tape, Tensor, backward, bmm, mean_all, softmax, sum_all
from axialrx.complexity import model_report
from axialrx.layers import (
    AttentionWeights,
    AxialBlock,
    GlobalBlock,
    Receiver,
    ReceiverConfig,
    ResNetUnit,
    attend,
    attention_projection_params,
    axial_freq_attention,
    axial_time_attention,
    global_mhsa,
    input_features,
)
from helpers import gradcheck


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
        with pytest.raises(ValueError):
            model(random_grid(np.random.default_rng(3), 5, 4, 1))

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

    def test_attention_rows_sum_to_one(self):
        """Softmax scores sum to one per query row inside every variant."""
        from axialrx import autodiff

        captured = []
        original = autodiff.softmax

        def spy(x, axis, scale=None):
            out = original(x, axis, scale=scale)
            captured.append(out.data)
            return out

        autodiff.softmax = spy
        try:
            import axialrx.layers as layers_mod

            layers_original = layers_mod.softmax
            layers_mod.softmax = spy
            try:
                rng = np.random.default_rng(9)
                w = make_weights(8, 2, seed=14)
                x = Tensor(rng.standard_normal((3, 5, 8)))
                axial_time_attention(x, w)
                axial_freq_attention(x, w)
                global_mhsa(x, w)
            finally:
                layers_mod.softmax = layers_original
        finally:
            autodiff.softmax = original
        assert captured
        for a in captured:
            np.testing.assert_allclose(a.sum(axis=-1), np.ones(a.shape[:-1]), atol=1e-12)


def attend_unchunked(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """attend with the whole core as one bmm(softmax(bmm(q, k^T), scale=c), v)."""
    s, length, d = x.shape
    h, dh = w.heads, w.head_dim

    def split_heads(m):
        proj = x.reshape(s * length, d) @ m.data
        return proj.reshape(s, length, h, dh).transpose(0, 2, 1, 3).reshape(s * h, length, dh)

    q, k, v = split_heads(w.wq), split_heads(w.wk), split_heads(w.wv)
    scores = bmm(Tensor(q), Tensor(k.transpose(0, 2, 1)))
    mixed = bmm(softmax(scores, axis=-1, scale=1.0 / np.sqrt(dh)), Tensor(v)).data
    merged = mixed.reshape(s, h, length, dh).transpose(0, 2, 1, 3).reshape(s * length, d)
    return (merged @ w.wo.data).reshape(s, length, d)


# (cap, x shape, heads, score chunks, slices recorded, concats recorded).
# x is (S, L, D) with S*H sequences; caps are small so each path runs.
CHUNK_PATHS = {
    # one chunk covers all 6 sequences of 5x5 scores: today's node list
    "single": (150, (3, 5, 8), 2, 1, 0, 0),
    # 4 sequences per chunk (100 // 25), the last chunk holds the other 2
    "grouped": (100, (3, 5, 8), 2, 2, 6, 1),
    # 25 > 12 scores per sequence: rows of 12 // 5 = 2 (2, 2, 1) per sequence,
    # plus one k^T and one v slice per sequence
    "row-split": (12, (3, 5, 8), 2, 18, 6 * 2 + 18, 1),
}


class TestChunkedCore:
    """attend's cache-sized chunks against the unchunked core."""

    @staticmethod
    def spy_calls(monkeypatch, name, log):
        original = getattr(layers_mod, name)

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            log.append(out.shape)
            return out

        monkeypatch.setattr(layers_mod, name, spy)

    @pytest.mark.parametrize("path", sorted(CHUNK_PATHS))
    def test_matches_unchunked_core(self, path, monkeypatch):
        cap, shape, heads, chunks, slices, concats = CHUNK_PATHS[path]
        monkeypatch.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
        logs = {name: [] for name in ("bmm", "slice_", "concat")}
        for name, log in logs.items():
            self.spy_calls(monkeypatch, name, log)
        rng = np.random.default_rng(40)
        w = make_weights(shape[2], heads, seed=41)
        x = rng.standard_normal(shape)
        got = attend(Tensor(x), w).data
        np.testing.assert_allclose(got, attend_unchunked(x, w), rtol=1e-12, atol=0)
        score_blocks = logs["bmm"][0::2]
        assert len(score_blocks) == chunks
        assert all(np.prod(b) <= cap for b in score_blocks)
        assert len(logs["slice_"]) == slices
        assert len(logs["concat"]) == concats

    def test_single_chunk_records_the_unchunked_nodes(self, monkeypatch):
        """At the default cap a desk-sized axial call records the plain core."""
        logs = {name: [] for name in ("slice_", "concat")}
        for name, log in logs.items():
            self.spy_calls(monkeypatch, name, log)
        w = make_weights(32, 4, seed=42)
        x = Tensor(np.random.default_rng(43).standard_normal((14, 24, 32)), requires_grad=True)
        with Tape() as tape:
            axial_freq_attention(x, w)
        ops = [node.grad_fn.__qualname__.split(".")[0] for node in tape.nodes]
        assert logs == {"slice_": [], "concat": []}
        assert ops == (["reshape"] + ["matmul", "reshape", "transpose", "reshape"] * 3
                       + ["transpose", "bmm", "softmax", "bmm"]
                       + ["reshape", "transpose", "reshape", "matmul", "reshape"])

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
        report = model_report(cfg, seed=0, instrumented=True)
        assert report.counted_layers == report.analytic_layers
        assert report.attention_counted == report.attention_analytic
