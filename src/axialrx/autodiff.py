"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value is a `Tensor` wrapping a C-contiguous float64 ndarray. While a
`Tape` is active (as a context manager), operations whose inputs require a
gradient are recorded onto it; `backward` then replays the tape in reverse
and returns a gradient map for the leaf tensors. With no active tape the
same functions run as plain forward numerics, which is how inference and
data generation execute.

Deliberate restrictions keep the gradient rules small and auditable:
float64 only, no broadcasting except `bias_add` and scalar ops, and a
fresh tape per forward pass. One process has one stack of active tapes;
the innermost one records.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import flopcount


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


_TAPES: list["Tape"] = []  # active tapes, innermost last
LAYER_NORM_EPS = 1e-5


class Tensor:
    """Dense real tensor: shape metadata over a flat row-major float64 buffer."""

    __slots__ = ("data", "requires_grad", "_src_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self._src_tape = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)


class Node:
    """One recorded operation: input tensors, output tensor, local gradient rule."""

    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs: tuple, output: Tensor, grad_fn: Callable):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class Tape:
    """Append-only record of operations for one forward pass.

    Nodes are appended in execution order, which is a topological order by
    construction; `backward` visits them exactly once in reverse. Recorded
    outputs point at the tape's `token`, not at the tape, so tape -> node ->
    output -> tape is no reference cycle and a dropped tape is freed at once.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.token = object()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _TAPES.pop()
        assert popped is self, "mismatched Tape nesting"
        return False


def _record(output: Tensor, inputs: tuple, grad_fn: Callable) -> Tensor:
    if _TAPES:
        tape = _TAPES[-1]
        if any(t.requires_grad or t._src_tape is tape.token for t in inputs):
            tape.nodes.append(Node(inputs, output, grad_fn))
            output._src_tape = tape.token
    return output


def backward(loss: Tensor, tape: Tape, leaves: Iterable[Tensor]) -> dict:
    """Reverse-sweep the tape from a scalar loss.

    Returns a map Tensor -> float64 gradient array holding exactly the
    tensors in `leaves`, with zeros for any leaf the recorded graph never
    touched. An intermediate gradient is dropped as soon as its producing
    node has consumed it.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    leaves = list(leaves)
    kept = set(leaves)
    for node in reversed(tape.nodes):
        out = node.output
        gout = grads.get(out) if out.requires_grad or out in kept else grads.pop(out, None)
        if gout is None:
            continue
        gins = node.grad_fn(gout)
        for inp, gin in zip(node.inputs, gins):
            if gin is None:
                continue
            if inp.requires_grad or inp._src_tape is tape.token:
                held = grads.get(inp)
                grads[inp] = gin if held is None else held + gin
    return {t: grads.get(t, np.zeros_like(t.data)) for t in leaves}


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with gradients dA = g @ B^T, dB = A^T @ g."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    flopcount.add(2 * m * k * n)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), grad_fn)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over matching leading batch dims (3-D only)."""
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"bmm shapes incompatible: {a.shape} x {b.shape}")
    bsz, m, k = a.shape
    n = b.shape[2]
    flopcount.add(2 * bsz * m * k * n)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g

    return _record(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# elementwise and shape ops


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    flopcount.add(a.size)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    flopcount.add(a.size)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    return _record(out, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    flopcount.add(x.size)
    out = Tensor(x.data * c)
    return _record(out, (x,), lambda g: (g * c,))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias along the last axis (the one permitted broadcast)."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"bias_add needs 1-D bias matching last dim: {x.shape} + {b.shape}")
    flopcount.add(x.size)
    out = Tensor(x.data + b.data)
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        return g, g.sum(axis=lead)

    return _record(out, (x, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0  # subgradient 0 at the kink
    return _record(out, (x,), lambda g: (g * mask,))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.transpose(axes))

    def grad_fn(g):
        inverse = [0] * len(axes)
        for i, a in enumerate(axes):
            inverse[a] = i
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _record(out, (x,), grad_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    xshape = x.shape
    return _record(out, (x,), lambda g: (g.reshape(xshape),))


def sum_all(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(x.data.sum())
    xshape = x.shape
    return _record(out, (x,), lambda g: (np.full(xshape, g),))


def mean_all(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(x.data.mean())
    xshape, n = x.shape, x.size
    return _record(out, (x,), lambda g: (np.full(xshape, g / n),))


# ---------------------------------------------------------------------------
# neural-network primitives


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax; each slice along `axis` sums to one.

    One tape node and one x-sized buffer each way, charged four FLOPs per
    element.
    """
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    flopcount.add(4 * x.size)
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def grad_fn(g):
        gx = g * y
        s = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, s, out=gx)
        gx *= y
        return (gx,)

    return _record(out, (x,), grad_fn)


def _row_max(p: np.ndarray) -> np.ndarray:
    """p.max(axis=-1, keepdims=True) of a C-contiguous array.

    Below 32 columns a loop over the columns runs 1.7-4x faster than numpy's
    reduction over short rows. The maximum is exact either way; only a zero
    maximum may come out with the other sign, and exp(p - max) cannot tell.
    """
    if p.shape[-1] >= 32:
        return p.max(axis=-1, keepdims=True)
    m = p[..., :1].copy()
    for j in range(1, p.shape[-1]):
        np.maximum(m, p[..., j:j + 1], out=m)
    return m


def multi_head_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                         heads: int, chunks: Sequence[tuple], product: Callable) -> Tensor:
    """Multi-head scaled dot-product attention over S sequences as one node.

    x: (S, L, D); wq, wk, wv, wo: (D, D), head h owning the column block
    [h*d_h, (h+1)*d_h) of wq, wk and wv. Per head, softmax(Q K^T / sqrt(d_h))
    V; the heads are concatenated and projected by wo.

    Each chunk is a pair (seq, rows): `seq` a basic-slice key over the
    leading (S, H) dims of the head arrays and `rows` a slice of query rows.
    Its queries q[seq][..., rows, :] attend over k[seq] and v[seq] and fill
    the same rows of out[seq]. The chunks partition the output, and chunks
    that share a `seq` are adjacent. K^T is one contiguous (S, H, d_h, L)
    copy of its projection. Q and V are read as strided (S, H, L, d_h) views
    of their projections, and the core writes straight into an (S, L, H,
    d_h) array, so the head merge is a reshape. The V of a `seq` split into
    several row blocks is copied once, because every block re-reads all of
    it. `product(a, b, out)` computes both products of every chunk and
    charges their FLOPs. One score buffer, sized for the largest chunk,
    serves every chunk. The four projections charge 2*S*L*D^2 FLOPs each and
    every score five, to the open bucket.

    The steps are the IEEE operations of the composition of `matmul`,
    reshape/transpose head splits, `bmm`, `scale`, `softmax`, `bmm`, the
    head merge and `matmul` in the same order (the row maximum is exact,
    however `_row_max` takes it), and a matrix product on a view of another
    leading dimension gives the bits of the same product on a contiguous
    copy. So values, gradients and FLOP charges are bitwise those of the
    composition. Backward runs the composition's gradient
    expressions on contiguous head-layout copies of Q, V and the upstream
    gradient. A single chunk keeps its probabilities for backward. Several
    chunks keep none: backward recomputes each chunk's probabilities (with
    no FLOP charge), visits the chunks last first, sums the gradients of
    chunks that share a `seq`, and adds every chunk's gradient into zeros,
    which repeats the composition's additions, signed zeros included.
    """
    if x.ndim != 3 or any(w.shape != (x.shape[2],) * 2 for w in (wq, wk, wv, wo)):
        raise DimensionError(f"attention needs (S, L, D) input and (D, D) projections: "
                             f"{x.shape}, {[w.shape for w in (wq, wk, wv, wo)]}")
    s, length, d = x.shape
    if heads < 1 or d % heads != 0:
        raise DimensionError(f"embedding dim {d} not divisible by {heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def head_view(m):  # (S*L, D) -> (S, H, L, d_h) without a copy
        return m.reshape(s, length, heads, dh).transpose(0, 2, 1, 3)

    def flat(m):  # (S, L, H, d_h) view -> contiguous (S*L, D)
        return np.ascontiguousarray(m).reshape(s * length, d)

    x2 = x.data.reshape(s * length, d)
    flopcount.add(3 * 2 * s * length * d * d)
    qp, kp, vp = x2 @ wq.data, x2 @ wk.data, x2 @ wv.data
    qd, vd = head_view(qp), head_view(vp)
    ktd = np.ascontiguousarray(kp.reshape(s, length, heads, dh).transpose(0, 2, 3, 1))
    del kp
    merged = np.empty((s, length, heads, dh))
    out_heads = merged.transpose(0, 2, 1, 3)
    groups = [(seq, [rows for _, rows in group])
              for seq, group in itertools.groupby(chunks, key=lambda chunk: chunk[0])]
    size = max(math.prod(qd[seq][..., rows, :].shape[:-1]) * length for seq, blocks in groups
               for rows in blocks)

    def probabilities(q, kt, buf, mul):
        shape = q.shape[:-1] + (length,)
        p = buf[:math.prod(shape)].reshape(shape)
        mul(q, kt, p)
        p *= c
        p -= _row_max(p)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        return p

    buf = np.empty(size)
    for seq, blocks in groups:
        q, v, mixed = qd[seq], vd[seq], out_heads[seq]
        if len(blocks) > 1:
            v = np.ascontiguousarray(v)
        for rows in blocks:
            p = probabilities(q[..., rows, :], ktd[seq], buf, product)
            flopcount.add(5 * p.size)
            product(p, v, mixed[..., rows, :])
    kept = p if len(chunks) == 1 else None
    merged = merged.reshape(s * length, d)
    flopcount.add(2 * s * length * d * d)
    out = Tensor((merged @ wo.data).reshape(s, length, d))
    wqd, wkd, wvd, wod = wq.data, wk.data, wv.data, wo.data

    def chunk_grads(p, g, qc, ktc, vc, gs, gx):
        gv = np.swapaxes(p, -1, -2) @ g
        np.matmul(g, np.swapaxes(vc, -1, -2), out=gs)
        np.multiply(gs, p, out=gx)
        np.subtract(gs, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= p
        gx *= c
        return gx @ np.swapaxes(ktc, -1, -2), np.swapaxes(qc, -1, -2) @ gx, gv

    def core_grads(g, qh, vh):
        if kept is not None:
            return chunk_grads(kept, g, qh, ktd, vh, np.empty_like(kept), np.empty_like(kept))
        gq, gkt, gv = np.zeros(qh.shape), np.zeros(ktd.shape), np.zeros(vh.shape)
        p_buf, gs_buf, gx_buf = np.empty(size), np.empty(size), np.empty(size)
        for seq, blocks in reversed(groups):
            gkt_sum = gv_sum = None
            for rows in reversed(blocks):
                qc = qh[seq][..., rows, :]
                p = probabilities(qc, ktd[seq], p_buf, np.matmul)
                gs, gx = (b[:p.size].reshape(p.shape) for b in (gs_buf, gx_buf))
                gq_c, gkt_c, gv_c = chunk_grads(p, g[seq][..., rows, :], qc, ktd[seq], vh[seq],
                                                gs, gx)
                gq[seq][..., rows, :] += gq_c
                if gkt_sum is None:
                    gkt_sum, gv_sum = gkt_c, gv_c
                else:
                    gkt_sum += gkt_c
                    gv_sum += gv_c
            gkt[seq] += gkt_sum
            gv[seq] += gv_sum
        return gq, gkt, gv

    def grad_fn(g):
        g2 = g.reshape(s * length, d)
        gm = g2 @ wod.T
        gq, gkt, gv = core_grads(*(np.ascontiguousarray(head_view(m)) for m in (gm, qp, vp)))
        gq2 = flat(gq.transpose(0, 2, 1, 3))
        gk2 = flat(gkt.transpose(0, 3, 1, 2))
        gv2 = flat(gv.transpose(0, 2, 1, 3))
        gx = (gv2 @ wvd.T + gk2 @ wkd.T) + gq2 @ wqd.T
        return (gx.reshape(s, length, d), x2.T @ gq2, x2.T @ gk2, x2.T @ gv2,
                merged.T @ g2)

    return _record(out, (x, wq, wk, wv, wo), grad_fn)


def bce_with_logits(x: Tensor, bits: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over the `mask` positions of log1p(exp(-|x|)) + max(x, 0) - x*bits.

    The binary cross-entropy of logits x against 0/1 `bits` (both arrays of
    x's shape, `mask` boolean) as one tape node. Its gradient is
    (sigmoid(x) - bits) * mask / count. Forward and gradient are the IEEE
    operations of the composed abs/exp/log1p/relu/mul/sub/sum/scale graph in
    the order that graph computes and accumulates them, so values and
    gradients are bitwise those of the composition, and so is the FLOP
    charge: ten per element plus one.
    """
    flopcount.add(10 * x.size + 1)
    c = 1.0 / int(mask.sum())
    xd = x.data
    mask_f = mask.astype(np.float64)
    e = np.exp(np.abs(xd) * -1.0)
    per_element = (np.log1p(e) + np.maximum(xd, 0.0)) - xd * bits
    out = Tensor((per_element * mask_f).sum() * c)

    def grad_fn(g):
        gm = np.full(xd.shape, g * c) * mask_f
        return ((-gm) * bits + gm * (xd > 0.0) + ((gm / (1.0 + e)) * e) * -1.0 * np.sign(xd),)

    return _record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
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


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2-D cross-correlation with zero "same" padding.

    x: (T, F, C_in), w: (k, k, C_in, C_out) with odd k, b: (C_out,).
    Spatial dims are preserved. Implemented as k*k shifted matmuls: the
    forward takes each shift's product over the padded width, whose input
    is one contiguous row range of the flattened padded input (a spare
    zero row keeps the last range in bounds), and adds its valid columns.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 3-D input and 4-D kernel: {x.shape}, {w.shape}")
    t, f, c_in = x.shape
    k, k2, wc_in, c_out = w.shape
    if k != k2 or k % 2 == 0:
        raise DimensionError(f"conv2d kernel must be square with odd size, got {w.shape[:2]}")
    if wc_in != c_in:
        raise DimensionError(f"conv2d channel mismatch: input {c_in}, kernel {wc_in}")
    if b.shape != (c_out,):
        raise DimensionError(f"conv2d bias shape {b.shape} != ({c_out},)")
    flopcount.add(t * f * c_out * (2 * k * k * c_in + 1))
    pad = k // 2
    width = f + k - 1
    xp = np.zeros((t + k, width, c_in))
    xp[pad : pad + t, pad : pad + f] = x.data
    rows = xp.reshape(-1, c_in)
    prod = np.empty((t, width, c_out))
    prod_rows = prod.reshape(t * width, c_out)
    acc = np.tile(b.data, (t, f, 1))
    wd = w.data
    for di in range(k):
        for dj in range(k):
            start = di * width + dj
            np.matmul(rows[start : start + t * width], wd[di, dj], out=prod_rows)
            acc += prod[:, :f]
    out = Tensor(acc)

    def grad_fn(g):
        g2 = g.reshape(t * f, c_out)
        gw = np.zeros_like(wd)
        gxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                patch = xp[di : di + t, dj : dj + f].reshape(t * f, c_in)
                gw[di, dj] = patch.T @ g2
                gxp[di : di + t, dj : dj + f] += (g2 @ wd[di, dj].T).reshape(t, f, c_in)
        gx = np.ascontiguousarray(gxp[pad : pad + t, pad : pad + f])
        gb = g.sum(axis=(0, 1))
        return gx, gw, gb

    return _record(out, (x, w, b), grad_fn)
