"""Shared test utilities: finite-difference gradient checking, dense LDPC H,
the composed attention that `layers.attend` must reproduce."""

from __future__ import annotations

import math

import numpy as np

from axialrx import flopcount, selftest
from axialrx.autodiff import Tensor, _record, bmm, matmul, reshape, scale, softmax, transpose


def gradcheck(build_loss, leaves, step=selftest.FD_STEP, tol=selftest.FD_TOL):
    """Compare tape gradients against central finite differences.

    A thin wrapper around `axialrx.selftest.gradcheck`: fails with a
    message naming the leaf shape and index of the first mismatching
    component and returns the worst relative error seen.
    """
    return selftest.gradcheck(build_loss, leaves, step=step, tol=tol)


def rand_tensor(rng: np.random.Generator, shape, requires_grad=True, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


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
