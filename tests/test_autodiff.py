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
    _row_max,
    backward,
    bce_with_logits,
    bias_add,
    bmm,
    conv2d,
    layer_norm,
    matmul,
    mean_all,
    multi_head_attention,
    relu,
    reshape,
    scale,
    softmax,
    sum_all,
    transpose,
)
from axialrx.flopcount import FlopCounter
import axialrx.layers as layers_mod
from axialrx.layers import bmm as core_product
from helpers import composed_attend, gradcheck, rand_tensor


def core_chunks_at(cap, s, length, heads):
    """`layers.core_chunks` with CORE_CHUNK_SCORES set to `cap`."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers_mod, "CORE_CHUNK_SCORES", cap)
        return layers_mod.core_chunks(s, length, heads)


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


def conv2d_patch_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The k*k shifted-patch forward: one copied (t*f, c_in) patch per shift.

    `conv2d` takes the same products over the padded width instead, and
    must give the same bits.
    """
    t, f, c_in = x.shape
    k, c_out = w.shape[0], w.shape[3]
    pad = k // 2
    xp = np.zeros((t + k - 1, f + k - 1, c_in))
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


# (x shape (S, L, D), heads, score cap) for each path of `layers.core_chunks`.
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
                    chunks = core_chunks_at(cap, shape[0], shape[1], heads)
                    out = multi_head_attention(*leaves, heads, chunks, core_product)
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
        assert nodes == 3  # multi_head_attention, mul, sum_all

    @pytest.mark.parametrize("path", sorted(CORE_PATHS))
    def test_gradient(self, path):
        shape, heads, cap = CORE_PATHS[path]
        rng = np.random.default_rng(32)
        leaves = [rand_tensor(rng, shape)] + [rand_tensor(rng, shape[2:] * 2) for _ in range(4)]
        w = Tensor(rng.standard_normal(shape))
        chunks = core_chunks_at(cap, shape[0], shape[1], heads)
        gradcheck(lambda: sum_all(multi_head_attention(*leaves, heads, chunks, core_product) * w),
                  leaves)

    def test_rejects_mismatched_shapes(self):
        x, w = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 4)))
        with pytest.raises(DimensionError, match="not divisible"):
            multi_head_attention(x, w, w, w, w, 3, [(np.s_[:], np.s_[:])], core_product)
        with pytest.raises(DimensionError, match=r"\(D, D\)"):
            multi_head_attention(x, w, w, Tensor(np.ones((4, 3))), w, 2, [], core_product)


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
