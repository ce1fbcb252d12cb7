"""Numeric core: forward oracles, gradient soundness, algebraic invariants."""

import gc
import sys
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from axialrx import selftest, streams
import axialrx.autodiff as autodiff_mod
from axialrx.autodiff import (
    DimensionError,
    Tape,
    Tensor,
    backward,
    bce_with_logits,
    bmm,
    conv2d,
    layer_norm,
    matmul,
    mean_all,
    relu,
    reshape,
    scale,
    softmax,
    sum_all,
    transpose,
)
from axialrx.flopcount import FlopCounter
import axialrx.layers as layers_mod
from axialrx.layers import _row_max
from helpers import (
    bias_add,
    composed_attend,
    gradcheck,
    rand_tensor,
    taped_bits,
    written_out_layer_norm,
)


def attend_at(cap, x, wq, wk, wv, wo, heads):
    """`layers.attend` with CORE_CHUNK_SCORES set to `cap`."""
    w = SimpleNamespace(wq=wq, wk=wk, wv=wv, wo=wo, heads=heads)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
        return layers_mod.attend(x, w)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def conv2d_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct 6-loop cross-correlation with zero same-padding."""
    t, f, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[3]
    pad = k // 2
    out = np.zeros((t, f, c_out))
    for i in range(t):
        for j in range(f):
            for co in range(c_out):
                acc = b[co]
                for di in range(k):
                    for dj in range(k):
                        si, sj = i + di - pad, j + dj - pad
                        if 0 <= si < t and 0 <= sj < f:
                            for ci in range(c_in):
                                acc += x[si, sj, ci] * w[di, dj, ci, co]
                out[i, j, co] = acc
    return out


class TestTensorDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_and_float64_are_kept(self, dtype):
        data = np.arange(6.0, dtype=dtype).reshape(2, 3)
        tensor = Tensor(data)
        assert tensor.data.dtype == dtype
        assert tensor.data is data

    @pytest.mark.parametrize("data", [
        np.arange(6).reshape(2, 3),
        np.array([[True, False, True]]),
        np.arange(6, dtype=np.float16).reshape(3, 2),
        [1, 2, 3],
        2.5,
    ], ids=["int", "bool", "float16", "list", "scalar"])
    def test_other_input_becomes_float64(self, data):
        tensor = Tensor(data)
        assert tensor.data.dtype == np.float64
        assert tensor.data.flags.c_contiguous
        np.testing.assert_array_equal(tensor.data, np.asarray(data, dtype=np.float64))

    def test_float32_ops_stay_float32(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4, 2)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 3, 2, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal(5).astype(np.float32))
        gamma, beta = Tensor(np.ones(5, np.float32)), Tensor(np.zeros(5, np.float32))
        y = relu(layer_norm(conv2d(x, w, b), gamma, beta))
        assert y.data.dtype == np.float32
        assert sum_all(y).data.dtype == np.float32


class TestMatmul:
    def test_identity(self):
        b = Tensor(np.arange(12.0).reshape(3, 4))
        out = matmul(Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_known_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]], rtol=0, atol=0)

    def test_zeros(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-10)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_large_offsets_stable(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.isfinite(out.data).all()

    def test_known_values(self):
        # frozen from a 50-digit exp/sum evaluation of softmax([1, 2, 3])
        out = softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 6)) * 10.0)
        out = softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        base = softmax(Tensor(x), axis=1).data
        shifted = softmax(Tensor(x + 7.25), axis=1).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            softmax(Tensor([1.0, 2.0]), axis=3)

    def test_flop_count(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with FlopCounter() as counter:
            softmax(x, axis=-1)
        assert counter.total == 4 * x.size


class TestLayerNorm:
    def test_constant_vector_zeroed_by_eps(self):
        x = Tensor(np.full((4,), 3.7))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_two_point_vector(self):
        out = layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 4)))
        out = layer_norm(x, Tensor(np.zeros(4)), Tensor(np.full(4, 2.5)))
        np.testing.assert_array_equal(out.data, np.full((3, 4), 2.5))

    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 8)) * 3.0 + 1.0)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(5), atol=1e-4)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    @pytest.mark.parametrize("shape", [(6,), (5, 8), (3, 4, 7)])
    def test_bitwise_equal_to_written_out_expressions(self, shape):
        """Output, gradients and FLOP buckets of the in-place op against the
        expressions it evaluates; the first row is constant."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal(shape) * 3.0 + 1.0
        x.reshape(-1, shape[-1])[0] = 0.1
        gamma, beta = rng.standard_normal(shape[-1]) + 1.0, rng.standard_normal(shape[-1])
        upstream = rng.standard_normal(shape)
        runs = []
        for op in (layer_norm, written_out_layer_norm):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            runs.append(taped_bits(lambda: op(*leaves), leaves, upstream))
        assert runs[0] == runs[1]


def conv2d_patch_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The k*k shifted-patch forward: one copied (t*f, c_in) patch per shift.

    `conv2d` takes the same products over the padded width instead, and
    must give the same bits.
    """
    t, f, c_in = x.shape
    k, c_out = w.shape[0], w.shape[3]
    pad = k // 2
    xp = np.zeros((t + k - 1, f + k - 1, c_in), dtype=x.dtype)
    xp[pad : pad + t, pad : pad + f] = x
    acc = np.tile(b, (t, f, 1))
    for di in range(k):
        for dj in range(k):
            patch = xp[di : di + t, dj : dj + f].reshape(t * f, c_in)
            acc += (patch @ w[di, dj]).reshape(t, f, c_out)
    return acc


class TestConv2d:
    def test_1x1_identity_channel_map(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 5, 3)))
        w = Tensor(np.eye(3).reshape(1, 1, 3, 3))
        out = conv2d(x, w, Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_all_ones_padding_arithmetic(self):
        x = Tensor(np.ones((5, 6, 1)))
        w = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        assert out.data[2, 3, 0] == pytest.approx(9.0)
        assert out.data[0, 0, 0] == pytest.approx(4.0)
        assert out.data[0, 3, 0] == pytest.approx(6.0)

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 1))
        b = rng.standard_normal(1)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_oracle(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("t, f", [(1, 4), (3, 1), (2, 2), (5, 7)])
    @pytest.mark.parametrize("c_in, c_out", [(1, 1), (2, 3), (7, 16)])
    def test_bitwise_equal_to_patch_forward(self, k, t, f, c_in, c_out):
        rng = np.random.default_rng(k * 1000 + t * 100 + f * 10 + c_in)
        x = rng.standard_normal((t, f, c_in))
        w = rng.standard_normal((k, k, c_in, c_out))
        b = rng.standard_normal(c_out)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_array_equal(out, conv2d_patch_oracle(x, w, b))

    def test_bitwise_equal_to_patch_forward_at_paper_resnet_dims(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((14, 128, 160))
        w = rng.standard_normal((3, 3, 160, 160)) * 0.03
        b = rng.standard_normal(160)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_array_equal(out, conv2d_patch_oracle(x, w, b))

    def test_single_cell_grid(self):
        # A 1x1 grid's patch product has one row, which numpy takes as a
        # matrix-vector product; over the padded width it is a matrix
        # product, so only this shape may differ from the patch forward
        # in the last bits.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 1, 7))
        w = rng.standard_normal((3, 3, 7, 16))
        b = rng.standard_normal(16)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, conv2d_oracle(x, w, b), rtol=0, atol=1e-13)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))), Tensor(np.zeros(1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((2, 2, 1, 1))), Tensor(np.zeros(1)))

    def test_linearity(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.standard_normal((3, 3, 2, 3)))
        b = Tensor(rng.standard_normal(3))
        x1 = rng.standard_normal((5, 4, 2))
        x2 = rng.standard_normal((5, 4, 2))
        joint = conv2d(Tensor(x1 + x2), w, b).data
        split = conv2d(Tensor(x1), w, b).data + conv2d(Tensor(x2), w, b).data - b.data
        np.testing.assert_allclose(joint, split, atol=1e-12)


def spy_conv_blocks(monkeypatch) -> list[tuple[str, int, list[str]]]:
    """Log (calling thread, units, threads the units ran on) of every
    `streams.run` call, as conv2d's row blocks make them."""
    calls = []
    original = streams.run

    def spy(units, unit, scratch=lambda: None):
        caller, ran = threading.current_thread().name, [None] * units

        def named(i, own):
            ran[i] = threading.current_thread().name
            return unit(i, own)

        result = original(units, named, scratch)
        calls.append((caller, units, ran))
        return result

    monkeypatch.setattr(streams, "run", spy)
    return calls


def conv_in_row_blocks(monkeypatch, cap: int, build):
    """`build()` with conv2d's product cap at `cap`, on 3 CPUs, with the
    interpreter switching threads as often as it can."""
    interval = sys.getswitchinterval()
    with monkeypatch.context() as m:
        m.setattr(autodiff_mod, "CONV_BLOCK_PRODUCT", cap)
        m.setattr(streams, "cpus", lambda: 3)
        sys.setswitchinterval(1e-6)
        try:
            return build()
        finally:
            sys.setswitchinterval(interval)


class TestConvRowBlocks:
    """conv2d's forward in blocks of output rows on several streams against
    one block in the calling thread and the patch forward."""

    # (k, f): a 3x3 kernel over 4 columns and a 1x1 kernel over 6, so both
    # pad to a width of 6; (k=1, f=1) takes the plan's one-column rule.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["grid", "stack"])
    @pytest.mark.parametrize("k, f", [(3, 4), (1, 6), (1, 1)])
    def test_bitwise_equal_to_one_block_and_patch_forward(self, k, f, lead, dtype, monkeypatch):
        """7 rows in blocks of 2 (2, 2, 2, 1) on several threads give the
        bytes of one block and, grid by grid, of the patch forward. A grid
        one column wide stays one block in the calling thread."""
        rng = np.random.default_rng(60 + k + f)
        x = rng.standard_normal(lead + (7, f, 5)).astype(dtype)
        w = rng.standard_normal((k, k, 5, 4)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        whole = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        calls = spy_conv_blocks(monkeypatch)
        cap = 2 * (f + k - 1) * 4  # two rows of one grid's product
        split = conv_in_row_blocks(monkeypatch, cap, lambda: conv2d(Tensor(x), Tensor(w), Tensor(b)))
        assert split.data.dtype == dtype
        assert _bits(split.data) == _bits(whole)
        (caller, units, ran), = calls
        if f == 1:
            assert (units, ran) == (1, [caller])
        else:
            assert units == 4 and ran[0::3] == [caller] * 2 and len(set(ran)) > 1
        for grid, ref in zip(split.data.reshape(-1, 7, f, 4), x.reshape(-1, 7, f, 5)):
            assert _bits(grid) == _bits(conv2d_patch_oracle(ref, w, b))

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["grid", "stack"])
    def test_taped_gradients_bitwise_equal_to_one_block(self, lead, monkeypatch):
        """Output, gradients, FLOP buckets and tape nodes of 7 one-row
        blocks on several streams are those of one block."""
        rng = np.random.default_rng(62)
        x, w, b = (rand_tensor(rng, shape) for shape in (lead + (7, 4, 5), (3, 3, 5, 4), (4,)))
        upstream = rng.standard_normal(lead + (7, 4, 4))

        def taped():
            return taped_bits(lambda: conv2d(x, w, b), [x, w, b], upstream)

        assert conv_in_row_blocks(monkeypatch, 1, taped) == taped()

    @pytest.mark.parametrize("variant", layers_mod.VARIANTS)
    def test_every_desk_conv_is_one_block(self, variant, monkeypatch):
        """A desk forward of one grid and of a 6-grid stack, as evaluation
        runs it, plans one block for every conv, so desk training and
        evaluation never run a conv off the calling thread."""
        from axialrx.cli import load_config, receiver_config_from

        cfg = receiver_config_from(load_config(None, "desk"), variant=variant)
        model = layers_mod.Receiver(cfg, seed=0)
        plans = []
        original = autodiff_mod._conv_row_blocks
        monkeypatch.setattr(autodiff_mod, "_conv_row_blocks",
                            lambda *shape: plans.append(original(*shape)) or plans[-1])
        rng = np.random.default_rng(63)
        for lead in ((), (6,)):
            y = rng.standard_normal(lead + (cfg.t, cfg.f, cfg.n_rx)) + 0j
            model(SimpleNamespace(y=y, n0=0.1))
        convs = 2 + (2 * cfg.resnet_units if variant == "cnn-resnet" else 0)
        assert plans == [[(0, cfg.t)]] * 2 * convs

    def test_conv_inside_an_outer_run_stays_in_its_stream(self, monkeypatch):
        """2 outer units on 2 streams each run a 4-block conv: every block
        runs in the thread of the unit that called it, with the bytes of
        one block."""
        rng = np.random.default_rng(64)
        xs = [Tensor(rng.standard_normal((7, 4, 5))) for _ in range(2)]
        w, b = Tensor(rng.standard_normal((3, 3, 5, 4))), Tensor(rng.standard_normal(4))
        whole = [conv2d(x, w, b).data for x in xs]
        calls = spy_conv_blocks(monkeypatch)
        split = conv_in_row_blocks(  # two rows of (6, 4) per block
            monkeypatch, 48, lambda: streams.run(2, lambda i, _: conv2d(xs[i], w, b).data))
        assert [_bits(a) for a in split] == [_bits(a) for a in whole]
        *inner, (outer_caller, _, outer_ran) = calls
        assert len(set(outer_ran)) == 2
        assert sorted(caller for caller, _, _ in inner) == sorted(outer_ran)
        for caller, units, ran in inner:
            assert units == 4 and ran == [caller] * 4

    def test_plan_never_makes_a_one_row_product(self, monkeypatch):
        """Every (T, width, C_out, cap) up to small sizes: the blocks cover
        rows 0..T in order, one block wherever the whole product fits, and
        no block's product has one row where the unsplit one had more."""
        for cap in range(1, 25):
            monkeypatch.setattr(autodiff_mod, "CONV_BLOCK_PRODUCT", cap)
            for t in range(1, 10):
                for width in range(1, 5):
                    for c_out in (1, 2, 3):
                        blocks = autodiff_mod._conv_row_blocks(t, width, c_out)
                        starts, ends = zip(*blocks)
                        assert starts[0] == 0 and ends[-1] == t
                        assert list(starts[1:]) == list(ends[:-1])
                        assert all(r1 > r0 for r0, r1 in blocks)
                        if t * width * c_out <= cap:
                            assert blocks == [(0, t)]
                        if t * width > 1:
                            assert all((r1 - r0) * width > 1 for r0, r1 in blocks)


class TestSelftestConvCheck:
    """`selftest.check_conv_row_blocks` runs conv2d in 7 row blocks on at
    least 2 streams and restores the cap, the CPU count and the switch
    interval."""

    def test_runs_seven_blocks_off_the_calling_thread(self, monkeypatch):
        cap, interval = autodiff_mod.CONV_BLOCK_PRODUCT, sys.getswitchinterval()
        monkeypatch.setattr(streams, "cpus", lambda: 1)  # the check raises it to 2
        cpus = streams.cpus
        calls = spy_conv_blocks(monkeypatch)
        assert selftest.check_conv_row_blocks()[1]
        assert calls[0][1:] == (1, [threading.current_thread().name])  # the one-block reference
        split = calls[1:]
        assert split and all(units == 7 and len(set(ran)) > 1 for _, units, ran in split)
        assert autodiff_mod.CONV_BLOCK_PRODUCT == cap and streams.cpus is cpus
        assert sys.getswitchinterval() == interval

    def test_restores_the_cap_when_gradcheck_fails(self, monkeypatch):
        cap, cpus, interval = autodiff_mod.CONV_BLOCK_PRODUCT, streams.cpus, sys.getswitchinterval()
        monkeypatch.setattr(streams, "cpus", cpus)  # undone even if not restored
        monkeypatch.setattr(autodiff_mod, "CONV_BLOCK_PRODUCT", cap)

        def failing_gradcheck(build_loss, leaves):
            raise AssertionError("injected mismatch")

        monkeypatch.setattr(selftest, "gradcheck", failing_gradcheck)
        assert selftest.check_conv_row_blocks()[1:] == (False, "injected mismatch")
        assert autodiff_mod.CONV_BLOCK_PRODUCT == cap and streams.cpus is cpus
        assert sys.getswitchinterval() == interval


class TestBackward:
    def test_scalars_keep_rank_zero(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        bits = np.ones((2, 3))
        losses = (sum_all(x), mean_all(x), bce_with_logits(x, bits, bits > 0), Tensor(0.5))
        for loss in losses:
            assert loss.shape == () and isinstance(loss.item(), float)
        with Tape() as tape:
            loss = mean_all(x)
        np.testing.assert_array_equal(backward(loss, tape, leaves=[x])[x], np.full((2, 3), 1 / 6))

    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(10).standard_normal((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        grads = backward(loss, tape, leaves=[x])
        np.testing.assert_array_equal(grads[x], np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x * x)
        grads = backward(loss, tape, leaves=[x])
        np.testing.assert_allclose(grads[x], [2.0, 4.0, 6.0], atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape, leaves=[x])

    def test_untouched_leaf_gets_zeros(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        grads = backward(loss, tape, leaves=[x, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros(2))

    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x * x + x * x)  # d/dx 2x^2 = 4x
        grads = backward(loss, tape, leaves=[x])
        np.testing.assert_allclose(grads[x], [8.0], atol=1e-14)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rand_tensor(rng, (3, 4))
        w = rand_tensor(rng, (4, 4))
        g = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)

        def build():
            h = matmul(a, w)
            h = layer_norm(h, g, b)
            h = softmax(h, axis=1)
            return mean_all(h * h)

        gradcheck(build, [a, w, g, b])


class TestElementwise:
    def test_transpose_involution(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_array_equal(transpose(transpose(x, (1, 0)), (1, 0)).data, x.data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3)) + Tensor(np.zeros(4))
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3)) * Tensor(np.zeros((3, 1)))

    def test_bias_add_broadcasts_last_axis_only(self):
        x = Tensor(np.zeros((2, 3)))
        out = bias_add(x, Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (2, 1)))
        with pytest.raises(DimensionError):
            bias_add(x, Tensor([1.0, 2.0]))


class TestGradientSoundness:
    """Central finite differences at step 1e-5, rel err < 1e-4, per operation."""

    def test_matmul(self):
        rng = np.random.default_rng(20)
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
        gradcheck(lambda: sum_all(matmul(a, b)), [a, b])

    def test_bmm(self):
        rng = np.random.default_rng(21)
        a, b = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (2, 4, 2))
        gradcheck(lambda: sum_all(bmm(a, b) * bmm(a, b)), [a, b])

    def test_softmax(self):
        rng = np.random.default_rng(22)
        x = rand_tensor(rng, (3, 5))
        w = rand_tensor(rng, (3, 5))
        gradcheck(lambda: sum_all(softmax(x, axis=1) * w), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(23)
        x = rand_tensor(rng, (4, 6))
        g = Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
        b = rand_tensor(rng, (6,))
        w = rand_tensor(rng, (4, 6))
        gradcheck(lambda: sum_all(layer_norm(x, g, b) * w), [x, g, b])

    def test_conv2d(self):
        rng = np.random.default_rng(24)
        x = rand_tensor(rng, (3, 4, 2))
        w = rand_tensor(rng, (3, 3, 2, 2), scale=0.5)
        b = rand_tensor(rng, (2,))
        m = rand_tensor(rng, (3, 4, 2))
        gradcheck(lambda: sum_all(conv2d(x, w, b) * m), [x, w, b])

    def test_binary_and_unary_suite(self):
        rng = np.random.default_rng(25)
        a = rand_tensor(rng, (3, 3))
        b = rand_tensor(rng, (3, 3))
        # shift away from the relu kink so finite differences are clean
        c = Tensor(rng.standard_normal((3, 3)) + np.sign(rng.standard_normal((3, 3))) * 0.5,
                   requires_grad=True)
        gradcheck(lambda: sum_all((a + b) * b), [a, b])
        gradcheck(lambda: sum_all(scale(a, 2.5) * b), [a])
        gradcheck(lambda: sum_all(relu(c)), [c])
        gradcheck(lambda: mean_all(a * a), [a])

    def test_shape_op_suite(self):
        rng = np.random.default_rng(26)
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (2, 2))
        bias = rand_tensor(rng, (3,))
        c = rand_tensor(rng, (2, 3, 4))
        gradcheck(lambda: sum_all(transpose(a, (1, 0)) * transpose(a, (1, 0))), [a])
        gradcheck(lambda: sum_all(transpose(c, (2, 0, 1)) * transpose(c, (2, 0, 1))), [c])
        gradcheck(lambda: sum_all(reshape(a, (3, 2)) * reshape(a, (3, 2))), [a])
        gradcheck(lambda: sum_all(bias_add(a, bias) * bias_add(a, bias)), [a, bias])


def _bits(a: np.ndarray) -> tuple:
    """Shape and bytes: equal only if bitwise equal, signed zeros included."""
    return a.shape, a.tobytes()


# (x shape (S, L, D), heads, score cap) for each chunk path of `layers.attend`.
CORE_PATHS = {
    "single": ((2, 5, 6), 2, 100),  # 4 sequences of 25 scores in one chunk
    "grouped": ((5, 4, 6), 3, 96),  # 2, 2, 1 sequences with their 3 heads per chunk
    "row-split": ((3, 5, 4), 2, 10),  # query rows of 2, 2, 1 per sequence
}


class TestAttentionCore:
    """The fused multi-head attention against the composed matmul, head-split,
    slice/bmm/softmax/bmm/concat, head-merge and matmul ops."""

    @staticmethod
    def run(path, sharpness, fused):
        shape, heads, cap = CORE_PATHS[path]
        rng = np.random.default_rng(30)
        x = rand_tensor(rng, shape)
        wq = rand_tensor(rng, shape[2:] * 2, scale=sharpness)
        wk, wv, wo = (rand_tensor(rng, shape[2:] * 2) for _ in range(3))
        w = Tensor(rng.standard_normal(shape))
        leaves = [x, wq, wk, wv, wo]
        with FlopCounter() as counter, counter.bucket("block00"):
            with Tape() as tape:
                if fused:
                    out = attend_at(cap, *leaves, heads)
                else:
                    out = composed_attend(*leaves, heads, cap)
                loss = sum_all(out * w)
            grads = backward(loss, tape, leaves=leaves)
        return loss, [grads[t] for t in leaves], counter.buckets, len(tape.nodes)

    @pytest.mark.parametrize("sharpness", [1.0, 2000.0])  # 2000: about half the probabilities are 0
    @pytest.mark.parametrize("path", sorted(CORE_PATHS))
    def test_bitwise_equal_to_composed_ops(self, path, sharpness):
        loss, grads, buckets, nodes = self.run(path, sharpness, fused=True)
        ref_loss, ref_grads, ref_buckets, _ = self.run(path, sharpness, fused=False)
        assert _bits(loss.data) == _bits(ref_loss.data)
        for g, ref in zip(grads, ref_grads):
            assert _bits(g) == _bits(ref)
        assert buckets == ref_buckets
        assert nodes == 3  # attend, mul, sum_all

    @pytest.mark.parametrize("path", sorted(CORE_PATHS))
    def test_gradient(self, path):
        shape, heads, cap = CORE_PATHS[path]
        rng = np.random.default_rng(32)
        leaves = [rand_tensor(rng, shape)] + [rand_tensor(rng, shape[2:] * 2) for _ in range(4)]
        w = Tensor(rng.standard_normal(shape))
        gradcheck(lambda: sum_all(attend_at(cap, *leaves, heads) * w), leaves)

    def test_rejects_mismatched_shapes(self):
        x, w = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 4)))
        with pytest.raises(DimensionError, match="not divisible"):
            attend_at(layers_mod.CORE_CHUNK_SCORES, x, w, w, w, w, 3)
        with pytest.raises(DimensionError, match=r"\(D, D\)"):
            attend_at(layers_mod.CORE_CHUNK_SCORES, x, w, w, Tensor(np.ones((4, 3))), w, 2)


@pytest.mark.parametrize("columns", [1, 2, 14, 31, 32, 40])
def test_row_max_matches_reduction(columns):
    """Column loop and reduction give the same maximum, and the same bits
    after exp(p - max), with rows of mixed-sign zeros and a NaN."""
    rng = np.random.default_rng(33)
    p = rng.standard_normal((3, 5, columns))
    p[0, 0] = 0.0
    p[0, 1, ::2] = -0.0
    p[0, 1, 1::2] = -1.0
    p[1, 2, -1] = np.nan
    got, ref = _row_max(p), p.max(axis=-1, keepdims=True)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
    with np.errstate(invalid="ignore"):
        assert _bits(np.exp(p - got)) == _bits(np.exp(p - ref))


class TestTapeBehavior:
    def test_dropped_tape_is_freed_without_the_cycle_collector(self):
        x = Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                loss = sum_all(softmax(x * x, axis=0))
            backward(loss, tape, leaves=[x])
            assert len(tape.nodes) == 3
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_frees_intermediate_gradients(self):
        """A chain of 30 ops holds O(1), not O(30), gradient buffers at once."""
        x = Tensor(np.ones(100_000), requires_grad=True)
        with Tape() as tape:
            h = x
            for _ in range(30):
                h = scale(h, 1.0001)
            loss = sum_all(h)
        tracemalloc.start()
        try:
            grads = backward(loss, tape, leaves=[x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(grads[x], np.full(100_000, 1.0001 ** 30), rtol=1e-12)
        assert peak < 5 * x.data.nbytes

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * x
        assert y._src_tape is None

    def test_tape_skips_untracked_subgraphs(self):
        data_only = Tensor(np.ones(3))
        param = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            _ = data_only + data_only
            n_pure = len(tape.nodes)
            _ = data_only * param
        assert n_pure == 0
        assert len(tape.nodes) == 1

    def test_forward_values_identical_with_and_without_tape(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        plain = softmax(matmul(x, w), axis=1).data
        with Tape():
            taped = softmax(matmul(x, w), axis=1).data
        np.testing.assert_array_equal(plain, taped)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((6, 6)) * 50.0)
        for out in (softmax(x, 1), relu(x),
                    layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))):
            assert np.isfinite(out.data).all()
