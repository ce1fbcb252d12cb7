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

from typing import Callable, Iterable, Sequence

import numpy as np

from . import flopcount


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


_TAPES: list["Tape"] = []  # active tapes, innermost last


class Tensor:
    """Dense real tensor: shape metadata over a flat row-major float64 buffer."""

    __slots__ = ("data", "requires_grad", "_src_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
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
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    flopcount.add(a.size)
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (g, -g))


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
        return g, g.sum(axis=lead) if lead else g

    return _record(out, (x, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0  # subgradient 0 at the kink
    return _record(out, (x,), lambda g: (g * mask,))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), grad_fn)


def slice_(x: Tensor, key) -> Tensor:
    """Basic slice x[key] (ints and slices only); the gradient scatters back
    into zeros of x's shape."""
    out = Tensor(x.data[key])
    xshape = x.shape

    def grad_fn(g):
        gx = np.zeros(xshape)
        gx[key] = g
        return (gx,)

    return _record(out, (x,), grad_fn)


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    out = Tensor(x.data.transpose(axes))
    inverse = tuple(np.argsort(axes))
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    xshape = x.shape
    return _record(out, (x,), lambda g: (g.reshape(xshape),))


def sum_all(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(x.data.sum())
    xshape = x.shape
    return _record(out, (x,), lambda g: (np.full(xshape, g.reshape(-1)[0]),))


def mean_all(x: Tensor) -> Tensor:
    flopcount.add(x.size)
    out = Tensor(x.data.mean())
    xshape, n = x.shape, x.size
    return _record(out, (x,), lambda g: (np.full(xshape, g.reshape(-1)[0] / n),))


# ---------------------------------------------------------------------------
# neural-network primitives


def softmax(x: Tensor, axis: int, scale: float | None = None) -> Tensor:
    """Max-stabilized softmax of scale*x; each slice along `axis` sums to one.

    One tape node and one score-sized buffer each way. With `scale=c` the
    in-place steps are the IEEE operations of `softmax(scale(x, c), axis)`
    in the same order, so values and gradients are bitwise those of the
    two-op composition, and so is the FLOP charge: one per element for the
    scale plus four for the softmax.
    """
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    flopcount.add((4 if scale is None else 5) * x.size)
    c = 1.0 if scale is None else float(scale)
    y = x.data * c
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def grad_fn(g):
        gx = g * y
        s = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, s, out=gx)
        gx *= y
        if scale is not None:
            gx *= c
        return (gx,)

    return _record(out, (x,), grad_fn)


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
        gm = np.full(xd.shape, (g * c).reshape(-1)[0]) * mask_f
        return ((-gm) * bits + gm * (xd > 0.0) + ((gm / (1.0 + e)) * e) * -1.0 * np.sign(xd),)

    return _record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
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
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Tensor(xhat * gamma.data + beta.data)
    gd = gamma.data
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        gh = g * gd
        gx = inv_std * (
            gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        )
        ggamma = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbeta = g.sum(axis=lead) if lead else g
        return gx, ggamma, gbeta

    return _record(out, (x, gamma, beta), grad_fn)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2-D cross-correlation with zero "same" padding.

    x: (T, F, C_in), w: (k, k, C_in, C_out) with odd k, b: (C_out,).
    Spatial dims are preserved. Implemented as k*k shifted matmuls.
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
    xp = np.zeros((t + k - 1, f + k - 1, c_in))
    xp[pad : pad + t, pad : pad + f] = x.data
    acc = np.tile(b.data, (t, f, 1))
    wd = w.data
    for di in range(k):
        for dj in range(k):
            patch = xp[di : di + t, dj : dj + f].reshape(t * f, c_in)
            acc += (patch @ wd[di, dj]).reshape(t, f, c_out)
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
