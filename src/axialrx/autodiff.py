"""Dense float tensors with tape-based reverse-mode differentiation.

Every value is a `Tensor` wrapping a C-contiguous float64 or float32
ndarray; the ops allocate their results in their input's dtype, so a
forward over float32 parameters runs in float32. While a
`Tape` is active (as a context manager), operations whose inputs require a
gradient are recorded onto it; `backward` then replays the tape in reverse
and returns a gradient map for the leaf tensors. With no active tape the
same functions run as plain forward numerics, which is how inference and
data generation execute.

Deliberate restrictions keep the gradient rules small and auditable:
no broadcasting except scalar ops, per-feature parameter vectors and the
second operand of `add` over leading axes (the positional encoding over
the block axis of a stack of grids), and a fresh tape per forward pass.
One process has one stack of active tapes; the innermost one records.
Training and gradient checks run in float64; only evaluation forwards
run in float32.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from . import flopcount, streams


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


_TAPES: list["Tape"] = []  # active tapes, innermost last
LAYER_NORM_EPS = 1e-5
_KEPT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class Tensor:
    """Dense real tensor: shape metadata over a flat row-major buffer.

    float32 and float64 data keep their dtype; any other input (ints,
    bools, float16, Python numbers) becomes float64.
    """

    __slots__ = ("data", "requires_grad", "_src_tape")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, order="C")
        self.data = data if data.dtype in _KEPT_DTYPES else data.astype(np.float64)
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
    return {t: grads[t] if t in grads else np.zeros_like(t.data) for t in leaves}


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
    """a + b, where b has a's shape or a's trailing shape (b is broadcast over
    a's leading axes, such as a positional encoding over a stack of grids).
    b's gradient sums g over those leading axes; with none, it is g itself."""
    lead = tuple(range(a.ndim - b.ndim))
    if a.shape[len(lead):] != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    flopcount.add(a.size)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g.sum(axis=lead) if lead else g))


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


def bce_with_logits(x: Tensor, bits: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over the `mask` positions of log1p(exp(-|x|)) + max(x, 0) - x*bits.

    The binary cross-entropy of logits x against 0/1 `bits` (both arrays of
    x's shape, `mask` boolean) as one tape node. Its gradient is
    (sigmoid(x) - bits) * mask / count, except at a logit of exactly 0: there
    the composition's subgradients (relu' = 0, sign(0) = 0) give
    -bits * mask / count where the derivative is (1/2 - bits) * mask / count.
    A fresh receiver's zero output convolution puts every logit there on the
    first training step. Forward and gradient are the IEEE
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
    """Normalize over the last axis to zero mean / unit variance, then affine.

    Means over the last axis are `np.add.reduce(..., keepdims=True) / d`,
    which is what `np.mean` computes for float64. Every other step runs in
    place on the op's own temporaries: forward makes two x-sized arrays
    (xhat, which backward keeps, and the output) and backward two, where the
    written-out expressions made about six each. The steps are the same IEEE
    operations in the same order, so values and gradients are bitwise those
    of the written-out expressions.

    Every step works on whole rows, so forward runs in blocks of rows
    (`streams.parallel_row_blocks`, given 8*D FLOPs per row). One block
    runs the steps on the whole input in the calling thread, allocating
    their results. Several are the units of one `streams.run`, each running
    the same steps into its own rows of xhat, the output and 1/std, with
    the bits of one block. FLOPs are charged once, before any block runs;
    backward runs in the calling thread.
    """
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    flopcount.add(8 * x.size)
    xd, gd, bd = x.data, gamma.data, beta.data

    def forward(xr, xh=None, yr=None, ir=None):
        xh = np.subtract(xr, np.add.reduce(xr, axis=-1, keepdims=True) / d, out=xh)
        yr = np.multiply(xh, xh, out=yr)
        ir = np.add.reduce(yr, axis=-1, keepdims=True, out=ir)
        ir /= d
        ir += LAYER_NORM_EPS
        np.sqrt(ir, out=ir)
        np.divide(1.0, ir, out=ir)
        xh *= ir
        np.multiply(xh, gd, out=yr)
        yr += bd
        return xh, yr, ir

    rows = x.size // d
    blocks = streams.parallel_row_blocks(rows, d, 8 * d)
    if len(blocks) == 1:
        xhat, y, inv_std = forward(xd)
    else:
        xhat, y = np.empty_like(xd), np.empty_like(xd)
        inv_std = np.empty(xd.shape[:-1] + (1,), dtype=xd.dtype)
        parts = [a.reshape(rows, -1) for a in (xd, xhat, y, inv_std)]
        streams.run(len(blocks), lambda i, _: forward(*(a[slice(*blocks[i])] for a in parts)))
    out = Tensor(y)
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        gx = g * gd
        t = gx * xhat
        gh_mean = np.add.reduce(gx, axis=-1, keepdims=True) / d
        t_mean = np.add.reduce(t, axis=-1, keepdims=True) / d
        gx -= gh_mean
        np.multiply(xhat, t_mean, out=t)
        gx -= t
        gx *= inv_std
        np.multiply(g, xhat, out=t)
        return gx, t.sum(axis=lead), g.sum(axis=lead)

    return _record(out, (x, gamma, beta), grad_fn)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2-D cross-correlation with zero "same" padding over (T, F) grids.

    x: (..., T, F, C_in), one grid or a stack of them; w: (k, k, C_in, C_out)
    with odd k, b: (C_out,). Spatial dims are preserved and every grid is
    convolved on its own. Implemented as k*k shifted matmuls: the forward
    takes each shift's product over the padded width, whose input is one
    contiguous row range of each flattened padded grid (a spare zero row
    keeps the last range in bounds), and adds its valid columns. A stack
    runs each shift as one stacked matmul, one matrix per grid, so every
    grid's output is bitwise that of the grid alone; the weight gradient is
    one product over the rows of every grid.

    The forward runs in blocks of output rows, each block the same rows of
    every grid of a stack, planned by `streams.row_blocks`: by its cache
    rule, one grid's (rows, padded width, C_out) product per block under
    its cap, on one stream too, since the cap keeps the reused product
    buffer in L2; and by its work rule, from the 2*k*k*C_in*width*C_out
    FLOPs per output row of every grid, where a run would get several
    streams. A block of one output row still makes a product of `width`
    rows, so it may have one row; a grid one padded column wide stays one
    block. One block runs directly in the calling thread: at desk dims,
    every conv on one CPU or inside another run, and the input and 1x1
    output convs everywhere; at paper dims, the 1x1 output conv. Several
    are the units of one `streams.run`, each stream with its own product
    buffer, and each block adds into its own rows of the bias-initialised
    output in the unsplit order, so the result is bitwise the same for any
    block or stream count. FLOPs are charged once, in the calling thread,
    before any block runs; backward runs in the calling thread.
    """
    if x.ndim < 3 or w.ndim != 4:
        raise DimensionError(f"conv2d expects (..., T, F, C) input and 4-D kernel: "
                             f"{x.shape}, {w.shape}")
    lead = x.shape[:-3]
    t, f, c_in = x.shape[-3:]
    k, k2, wc_in, c_out = w.shape
    if k != k2 or k % 2 == 0:
        raise DimensionError(f"conv2d kernel must be square with odd size, got {w.shape[:2]}")
    if wc_in != c_in:
        raise DimensionError(f"conv2d channel mismatch: input {c_in}, kernel {wc_in}")
    if b.shape != (c_out,):
        raise DimensionError(f"conv2d bias shape {b.shape} != ({c_out},)")
    flopcount.add(math.prod(lead) * t * f * c_out * (2 * k * k * c_in + 1))
    pad = k // 2
    width = f + k - 1
    xp = np.zeros(lead + (t + k, width, c_in), dtype=x.data.dtype)
    xp[..., pad : pad + t, pad : pad + f, :] = x.data
    rows = xp.reshape(lead + (-1, c_in))
    acc = np.tile(b.data, lead + (t, f, 1))
    wd = w.data
    per_row = math.prod(lead) * width * c_out
    blocks = streams.row_blocks(t, width * c_out, 2 * k * k * c_in * per_row,
                                min_rows=1 if width > 1 else t)

    def block(i, buf):
        r0, r1 = blocks[i]
        n = r1 - r0
        prod_rows = buf[: n * per_row].reshape(lead + (n * width, c_out))
        valid = prod_rows.reshape(lead + (n, width, c_out))[..., :f, :]
        out_rows = acc[..., r0:r1, :, :]
        for di in range(k):
            for dj in range(k):
                start = (r0 + di) * width + dj
                np.matmul(rows[..., start : start + n * width, :], wd[di, dj], out=prod_rows)
                out_rows += valid

    most = max(r1 - r0 for r0, r1 in blocks)

    def scratch():
        return np.empty(most * per_row, dtype=x.data.dtype)

    if len(blocks) == 1:
        block(0, scratch())
    else:
        streams.run(len(blocks), block, scratch)
    out = Tensor(acc)
    x_shape = x.shape

    def grad_fn(g):
        g2 = g.reshape(-1, c_out)
        gw = np.zeros_like(wd)
        gxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                patch = xp[..., di : di + t, dj : dj + f, :].reshape(-1, c_in)
                gw[di, dj] = patch.T @ g2
                gxp[..., di : di + t, dj : dj + f, :] += (g2 @ wd[di, dj].T).reshape(x_shape)
        gx = np.ascontiguousarray(gxp[..., pad : pad + t, pad : pad + f, :])
        gb = g.sum(axis=tuple(range(g.ndim - 1)))
        return gx, gw, gb

    return _record(out, (x, w, b), grad_fn)
