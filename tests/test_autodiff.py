"""Numeric core: forward oracles, gradient soundness, algebraic invariants."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from axialrx.autodiff import (
    DimensionError,
    Tape,
    Tensor,
    backward,
    bias_add,
    bmm,
    concat,
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
from helpers import gradcheck, rand_tensor


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


# Attention score shapes (S*H, L, L) for T=14, F=8, H=2: time, freq, global.
SCORE_SHAPES = [(16, 14, 14), (28, 8, 8), (2, 112, 112)]


class TestScaledSoftmax:
    """softmax(x, axis, scale=c) against the two-op reference softmax(scale(x, c), axis)."""

    @staticmethod
    def forward_and_grad(build, x, w):
        with Tape() as tape:
            out = build(x)
            loss = sum_all(out * w)
        return out.data, backward(loss, tape, leaves=[x])[x], len(tape.nodes)

    @pytest.mark.parametrize("shape", SCORE_SHAPES)
    @pytest.mark.parametrize("c", [1.0 / np.sqrt(3.0), 1.0])
    def test_bitwise_equal_to_composition(self, shape, c):
        rng = np.random.default_rng(31)
        x = rand_tensor(rng, shape, scale=4.0)
        w = Tensor(rng.standard_normal(shape))
        fused, fused_grad, fused_nodes = self.forward_and_grad(
            lambda t: softmax(t, axis=-1, scale=c), x, w)
        ref, ref_grad, ref_nodes = self.forward_and_grad(
            lambda t: softmax(scale(t, c), axis=-1), x, w)
        np.testing.assert_array_equal(fused, ref)
        np.testing.assert_array_equal(fused_grad, ref_grad)
        assert fused_nodes == ref_nodes - 1

    def test_gradient(self):
        rng = np.random.default_rng(32)
        x = rand_tensor(rng, (3, 5))
        w = rand_tensor(rng, (3, 5))
        gradcheck(lambda: sum_all(softmax(x, axis=1, scale=0.37) * w), [x])

    def test_flop_count(self):
        x = Tensor(np.zeros((2, 3, 4)))
        for c in (0.25, 1.0):
            with FlopCounter() as fused:
                softmax(x, axis=-1, scale=c)
            with FlopCounter() as ref:
                softmax(scale(x, c), axis=-1)
            assert fused.total == ref.total == 5 * x.size
        with FlopCounter() as unscaled:
            softmax(x, axis=-1)
        assert unscaled.total == 4 * x.size


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


class TestBackward:
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
    def test_concat_shape(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 5)))
        assert concat([a, b], axis=1).shape == (2, 8)

    def test_transpose_involution(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_array_equal(transpose(transpose(x)).data, x.data)

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
        gradcheck(lambda: sum_all((a + b) * (a - b)), [a, b])
        gradcheck(lambda: sum_all(scale(a, 2.5) * b), [a])
        gradcheck(lambda: sum_all(relu(c)), [c])
        gradcheck(lambda: mean_all(a * a), [a])

    def test_shape_op_suite(self):
        rng = np.random.default_rng(26)
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (2, 2))
        bias = rand_tensor(rng, (3,))
        gradcheck(lambda: sum_all(concat([a, b], axis=1) * concat([a, b], axis=1)), [a, b])
        gradcheck(lambda: sum_all(transpose(a) * transpose(a)), [a])
        gradcheck(lambda: sum_all(reshape(a, (3, 2)) * reshape(a, (3, 2))), [a])
        gradcheck(lambda: sum_all(bias_add(a, bias) * bias_add(a, bias)), [a, bias])


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
