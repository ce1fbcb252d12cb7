"""Shared test utilities: finite-difference gradient checking, dense LDPC H,
and the oracles the fused ops must reproduce bit for bit: the composed
attention of `layers.attend`, the composed feed-forward of
`layers.feed_forward` and the written-out `autodiff.layer_norm`."""

from __future__ import annotations

import math

import numpy as np

from axialrx import flopcount, selftest
from axialrx.autodiff import (
    LAYER_NORM_EPS,
    DimensionError,
    Tape,
    Tensor,
    _record,
    backward,
    bmm,
    matmul,
    relu,
    reshape,
    scale,
    softmax,
    sum_all,
    transpose,
)


def gradcheck(build_loss, leaves, step=selftest.FD_STEP, tol=selftest.FD_TOL):
    """Compare tape gradients against central finite differences.

    A thin wrapper around `axialrx.selftest.gradcheck`: fails with a
    message naming the leaf shape and index of the first mismatching
    component and returns the worst relative error seen.
    """
    return selftest.gradcheck(build_loss, leaves, step=step, tol=tol)


def rand_tensor(rng: np.random.Generator, shape, requires_grad=True, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def taped_bits(build, leaves, upstream: np.ndarray):
    """`build()` under a tape and a FLOP counter with `block00` open, then
    backward of sum(output * upstream): the output's shape and bytes, the
    bytes of every leaf's gradient, the FLOP buckets and the tape's node
    count. Equal results are bitwise equal, signed zeros included."""
    with flopcount.FlopCounter() as counter, counter.bucket("block00"):
        with Tape() as tape:
            out = build()
            loss = sum_all(out * Tensor(upstream))
        grads = backward(loss, tape, leaves=leaves)
    return ((out.shape, out.data.tobytes()), [grads[t].tobytes() for t in leaves],
            counter.buckets, len(tape.nodes))


def dense_h(code) -> np.ndarray:
    """(m, n) uint8 parity-check matrix of an `LdpcCode`, built from `row_cols`."""
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    h[np.arange(code.m)[:, None], code.row_cols] = 1
    return h


def _slice(x: Tensor, key) -> Tensor:
    """Basic slice x[key]; the gradient scatters back into zeros of x's shape."""
    xshape = x.shape

    def grad_fn(g):
        gx = np.zeros(xshape)
        gx[key] = g
        return (gx,)

    return _record(Tensor(x.data[key]), (x,), grad_fn)


def _concat(tensors: list[Tensor], axis: int) -> Tensor:
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(Tensor(np.concatenate([t.data for t in tensors], axis=axis)),
                   tuple(tensors), grad_fn)


def composed_attention_core(q: Tensor, kt: Tensor, v: Tensor, c: float, chunks) -> Tensor:
    """The attention core as tape ops over (N, L, d_h) head-split sequences:
    per chunk, taped slices of q, kt and v, then `bmm` -> `scale` by c ->
    `softmax` -> `bmm` with both products charged to `#core`, and one
    concatenation of the chunks. A chunk is a pair of basic-slice keys
    (qkey, kvkey)."""

    def core(qc, ktc, vc):
        with flopcount.bucket("#core"):
            scores = bmm(qc, ktc)
        attn = softmax(scale(scores, c), axis=-1)
        with flopcount.bucket("#core"):
            return bmm(attn, vc)

    if len(chunks) == 1:
        return core(q, kt, v)
    pieces, kv = [], (None, None, None)
    for qkey, kvkey in chunks:
        if kv[0] != kvkey:
            kv = (kvkey, _slice(kt, kvkey), _slice(v, kvkey))
        mixed = core(_slice(q, qkey), kv[1], kv[2])
        pieces.append(reshape(mixed, (1, mixed.shape[0] * mixed.shape[1], mixed.shape[2])))
    return reshape(_concat(pieces, axis=1), q.shape[:2] + v.shape[2:])


def flat_core_chunks(n: int, length: int, cap: int) -> list[tuple]:
    """Chunks of at most `cap` scores over n = S*H head-split sequences:
    groups of whole sequences while L*L fits, else blocks of query rows."""
    group = cap // (length * length)
    if group >= n:
        return [(np.s_[:], np.s_[:])]
    if group >= 1:
        return [(np.s_[i:i + group],) * 2 for i in range(0, n, group)]
    rows = max(1, cap // length)
    return [(np.s_[j:j + 1, r:r + rows], np.s_[j:j + 1])
            for j in range(n) for r in range(0, length, rows)]


def composed_attend(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int,
                    cap: int) -> Tensor:
    """`layers.attend` as the tape ops it replaced: taped projections,
    reshape/transpose/reshape head splits, a transposed copy of K,
    `composed_attention_core` over chunks of at most `cap` scores, the head
    merge and the output projection."""
    s, length, d = x.shape
    dh = d // heads
    n = s * heads

    def split_heads(flat: Tensor) -> Tensor:
        grouped = reshape(flat, (s, length, heads, dh))
        return reshape(transpose(grouped, (0, 2, 1, 3)), (n, length, dh))

    x2 = reshape(x, (s * length, d))
    q = split_heads(matmul(x2, wq))
    k = split_heads(matmul(x2, wk))
    v = split_heads(matmul(x2, wv))
    kt = transpose(k, (0, 2, 1))
    mixed = composed_attention_core(q, kt, v, 1.0 / math.sqrt(dh),
                                    flat_core_chunks(n, length, cap))
    merged = reshape(transpose(reshape(mixed, (s, heads, length, dh)), (0, 2, 1, 3)),
                     (s * length, d))
    return reshape(matmul(merged, wo), (s, length, d))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias along the last axis as a tape op: the step of the
    composed feed-forward that `layers.feed_forward` replaced."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"bias_add needs 1-D bias matching last dim: {x.shape} + {b.shape}")
    flopcount.add(x.size)
    out = Tensor(x.data + b.data)
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        return g, g.sum(axis=lead)

    return _record(out, (x, b), grad_fn)


def composed_feed_forward(x: Tensor, w) -> Tensor:
    """`layers.feed_forward` as the tape ops it replaced: reshape to
    (positions, D), `matmul` -> `bias_add` -> `relu` -> `matmul` ->
    `bias_add`, reshape back."""
    flat = reshape(x, (-1, x.shape[-1]))
    inner = relu(bias_add(matmul(flat, w.w1), w.b1))
    return reshape(bias_add(matmul(inner, w.w2), w.b2), x.shape)


def written_out_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """`autodiff.layer_norm` as the expressions it evaluates in place: the
    mean, variance, normalisation and gradient written out with `np.mean`
    and a fresh array per step."""
    flopcount.add(8 * x.size)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = Tensor(xhat * gamma.data + beta.data)
    gd = gamma.data
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        gh = g * gd
        gx = inv_std * (
            gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _record(out, (x, gamma, beta), grad_fn)
