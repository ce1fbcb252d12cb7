"""Receiver architectures: axial attention, global MHSA, convolutional ResNet.

All three share the outer structure: a 2-D convolutional input projection
of the received grid (real/imaginary parts per antenna plus log10 noise
power), an additive learned positional encoding for the transformer
variants, a stack of blocks, and a 1x1 convolutional output projection
to one LLR per coded bit.

Every op takes one (T, F, C) grid or a stack of grids along a leading
block axis, (B, T, F, C), and treats each grid on its own; evaluation
receives stacks, training single grids. Attention operates on batches of
independent sequences. Axial blocks run time-axis attention (one
sequence per subcarrier) then frequency-axis attention (one per OFDM
symbol), each with its own Q/K/V/O projections; the global variant
flattens each grid into a single length-T*F sequence. Blocks are
pre-normalized with a residual connection around every sub-operation and
a position-wise ReLU feed-forward at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flopcount, streams
from .autodiff import (
    DimensionError,
    Tensor,
    _record,
    conv2d,
    layer_norm,
    relu,
    reshape,
    transpose,
)

VARIANTS = ("axial", "global", "cnn-resnet")

# Cap on the scores one attention-core chunk holds: 2**16 scores (512 KB in
# float64, 256 KB in float32) keep the one reused score buffer in L2 through
# both products and the softmax between them.
CORE_CHUNK_SCORES = 1 << 16


@dataclass
class ReceiverConfig:
    variant: str = "axial"
    t: int = 14
    f: int = 128
    n_rx: int = 2
    d: int = 128
    heads: int = 4
    n_blocks: int = 6
    ffn_hidden: int | None = None  # defaults to 2*d
    kernel: int = 3
    bits_per_symbol: int = 6
    resnet_units: int = 10
    resnet_channels: int = 160

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.ffn_hidden is None:
            self.ffn_hidden = 2 * self.d
        for key, value, low in (("embedding_dim", self.d, 1), ("heads", self.heads, 1),
                                ("blocks", self.n_blocks, 0), ("kernel", self.kernel, 1),
                                ("ffn_hidden", self.ffn_hidden, 1),
                                ("resnet_units", self.resnet_units, 0),
                                ("resnet_channels", self.resnet_channels, 1)):
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value}")
        if self.d % self.heads != 0:
            raise ValueError(f"embedding_dim {self.d} is not divisible by heads {self.heads}")
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel}")

    @property
    def input_channels(self) -> int:
        return 2 * self.n_rx + 1

    @property
    def width(self) -> int:
        """Channels per position between the input and output convolutions."""
        return self.resnet_channels if self.variant == "cnn-resnet" else self.d


def _he_normal(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    return Tensor(rng.standard_normal(shape) * math.sqrt(2.0 / fan_in), requires_grad=True)


def input_features(y: np.ndarray, n0: float) -> Tensor:
    """Stack [Re(Y), Im(Y), log10(N0)] of y (..., T, F, N_rx) into a
    (..., T, F, 2*N_rx+1) tensor."""
    if n0 <= 0.0:
        raise ValueError(f"noise power must be positive, got {n0}")
    planes = np.concatenate(
        [y.real, y.imag, np.full(y.shape[:-1] + (1,), math.log10(n0))], axis=-1)
    return Tensor(planes)


def _collect_parameters(part, prefix: str, out: dict[str, Tensor]) -> None:
    """Add every Tensor attribute of `part`, and of the parts it holds, to
    `out` under its dotted path below `prefix`."""
    for name, value in vars(part).items():
        if isinstance(value, Tensor):
            out[f"{prefix}.{name}"] = value
        elif hasattr(value, "__dict__"):
            _collect_parameters(value, f"{prefix}.{name}", out)


class AttentionWeights:
    """Projections for one multi-head attention operator.

    wq/wk/wv are D x D with head h occupying the column block
    [h*d_h, (h+1)*d_h), i.e. H stacked D x d_h per-head matrices; wo is the
    shared D x D output projection.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        self.heads = heads
        self.wq = _he_normal(rng, (d, d), d)
        self.wk = _he_normal(rng, (d, d), d)
        self.wv = _he_normal(rng, (d, d), d)
        self.wo = _he_normal(rng, (d, d), d)


def bmm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One attention-core product a @ b into `out`, as `attend`'s forward
    runs it, on any stream; perfbench times the core through this name.
    It charges nothing: `attend` charges every chunk in the calling thread."""
    return np.matmul(a, b, out=out)


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


def attend(x: Tensor, w: AttentionWeights) -> Tensor:
    """Multi-head scaled dot-product attention over S sequences as one node.

    x: (..., L, D) of S sequences, S the product of the leading dims; the
    output has x's shape. Per head, softmax(Q K^T / sqrt(d_h)) V; the
    heads are concatenated and projected by wo. The op scales the scores by
    1/sqrt(d_h) in place, charging one FLOP per score.

    The core runs in chunks of at most CORE_CHUNK_SCORES scores of the S*H
    (L, L) score matrices, one per sequence and head. While a sequence's H
    matrices fit under the cap, a chunk takes whole sequences with all
    their heads, so one chunk covers a call whose S*H matrices all fit
    (every desk-dims axial call). Otherwise each matrix's query rows are
    split into blocks; where a whole matrix fits, its one block spans
    every row. A group is a basic-slice key `seq` over the leading (S, H)
    dims of the head arrays with its row blocks: its queries attend over
    k[seq] and v[seq] and fill the same rows of the output.

    K^T is one contiguous (S, H, d_h, L) copy of its projection. Q and V are
    read as strided (S, H, L, d_h) views of their projections, and the core
    writes straight into an (S, L, H, d_h) array, so the head merge is a
    reshape. When the rows of each `seq` are split into several blocks, V
    is copied once, contiguous, because every block re-reads all of its
    `seq`'s V.

    One chunk runs in the calling thread. Several are the units of one
    `streams.run`: they run on every CPU the process may use, each stream
    with its own score buffer sized for the largest chunk. Every chunk
    writes its own rows of the output, so the result is bitwise the same
    for any stream count. Both products of every chunk go through `bmm`.
    Before any chunk runs, the calling thread charges, chunk by chunk,
    both products to `<block>#core`, a `#core` bucket nested in the open
    one, and every score five FLOPs (scale and softmax) to the open bucket
    itself; the four projections charge 2*S*L*D^2 FLOPs each to the open
    bucket. So the per-chunk counts sum to those of one unchunked core,
    and no tape or counter sees another thread.

    The steps are the IEEE operations of the composition of `matmul`,
    reshape/transpose head splits, `bmm`, `scale`, `softmax`, `bmm`, the
    head merge and `matmul` in the same order (the row maximum is exact,
    however `_row_max` takes it), and a matrix product on a view of another
    leading dimension gives the bits of the same product on a contiguous
    copy. So values, gradients and FLOP charges are bitwise those of the
    composition. Backward runs the composition's gradient
    expressions on the forward's strided head views of Q and V and on the
    same head view of the upstream gradient, so it copies none of them.
    A single chunk keeps its probabilities for backward. Several
    chunks keep none: backward, in the calling thread, recomputes each
    chunk's probabilities (with no FLOP charge), visits the chunks last
    first, sums the gradients of chunks that share a `seq`, and adds every
    chunk's gradient into zeros, which repeats the composition's
    additions, signed zeros included.
    """
    wq, wk, wv, wo, heads = w.wq, w.wk, w.wv, w.wo, w.heads
    if x.ndim < 2 or any(m.shape != (x.shape[-1],) * 2 for m in (wq, wk, wv, wo)):
        raise DimensionError(f"attention needs (..., L, D) input and (D, D) projections: "
                             f"{x.shape}, {[m.shape for m in (wq, wk, wv, wo)]}")
    xshape = x.shape
    length, d = xshape[-2:]
    s = math.prod(xshape[:-2])
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
    merged = np.empty((s, length, heads, dh), dtype=x.data.dtype)
    out_heads = merged.transpose(0, 2, 1, 3)
    group = CORE_CHUNK_SCORES // (length * length)
    if group >= heads:
        seqs = group // heads
        blocks = [np.s_[:]]
        groups = [(np.s_[i:i + seqs], blocks) for i in range(0, s, seqs)]
        size = min(seqs, s) * heads * length * length
    else:
        n_rows = max(1, CORE_CHUNK_SCORES // length)
        blocks = [np.s_[r:r + n_rows] for r in range(0, length, n_rows)]
        groups = [(np.s_[i:i + 1, h:h + 1], blocks) for i in range(s) for h in range(heads)]
        size = min(n_rows, length) * length

    def probabilities(q, kt, buf, mul):
        shape = q.shape[:-1] + (length,)
        p = buf[:math.prod(shape)].reshape(shape)
        mul(q, kt, p)
        p *= c
        p -= _row_max(p)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        return p

    chunks = [(seq, rows) for seq, blocks in groups for rows in blocks]
    for seq, rows in chunks:
        scores = math.prod(qd[seq][..., rows, :].shape[:-1]) * length
        with flopcount.bucket("#core"):
            flopcount.add(2 * scores * dh)
        flopcount.add(5 * scores)
        with flopcount.bucket("#core"):
            flopcount.add(2 * scores * dh)
    if len(chunks) == 1:
        kept = probabilities(qd, ktd, np.empty(size, dtype=x.data.dtype), bmm)
        bmm(kept, vd, out_heads)
    else:
        kept = None
        v_all = np.ascontiguousarray(vd) if len(blocks) > 1 else vd

        def chunk(i, buf):
            seq, rows = chunks[i]
            p = probabilities(qd[seq][..., rows, :], ktd[seq], buf, bmm)
            bmm(p, v_all[seq], out_heads[seq][..., rows, :])

        streams.run(len(chunks), chunk, lambda: np.empty(size, dtype=x.data.dtype))
    merged = merged.reshape(s * length, d)
    flopcount.add(2 * s * length * d * d)
    out = Tensor((merged @ wo.data).reshape(xshape))
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
        gq, gkt, gv = core_grads(head_view(gm), head_view(qp), head_view(vp))
        gq2 = flat(gq.transpose(0, 2, 1, 3))
        gk2 = flat(gkt.transpose(0, 3, 1, 2))
        gv2 = flat(gv.transpose(0, 2, 1, 3))
        gx = (gv2 @ wvd.T + gk2 @ wkd.T) + gq2 @ wqd.T
        return (gx.reshape(xshape), x2.T @ gq2, x2.T @ gk2, x2.T @ gv2,
                merged.T @ g2)

    return _record(out, (x, wq, wk, wv, wo), grad_fn)


def axial_time_attention(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention along the time axis of x (..., T, F, D), independently per
    subcarrier (and grid)."""
    axes = tuple(range(x.ndim - 3)) + (x.ndim - 2, x.ndim - 3, x.ndim - 1)
    out = attend(transpose(x, axes), w)  # (..., F, T, D)
    return transpose(out, axes)


def axial_freq_attention(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention along the frequency axis, independently per OFDM symbol."""
    return attend(x, w)  # (..., T, F, D) is already T sequences per grid


def global_mhsa(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention over each grid's flattened length-T*F sequence."""
    t, f, d = x.shape[-3:]
    flat = reshape(x, x.shape[:-3] + (1, t * f, d))  # one (1, T*F, D) sequence per grid
    return reshape(attend(flat, w), x.shape)


class LayerNormParams:
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class FeedForward:
    """Position-wise D -> hidden -> D with ReLU."""

    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.w1 = _he_normal(rng, (d, hidden), d)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = _he_normal(rng, (hidden, d), hidden)
        self.b2 = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self)


def feed_forward(x: Tensor, w: FeedForward) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 at every position of x (..., D), as one node.

    The op charges 4*n*D*hidden + 2*n*hidden + n*D FLOPs over its n
    positions to the open bucket. Forward adds b1 and applies the ReLU in
    place on its own hidden buffer, then adds b2 in place on its output, so
    it holds one hidden-sized buffer where the composition held three. The
    steps are the IEEE operations of the composition of reshape, `matmul`,
    `bias_add`, `relu`, `matmul`, `bias_add` and reshape in the same order,
    and backward repeats that composition's gradient expressions, taking
    the ReLU mask as h > 0 of the kept activations h (an activation is
    positive exactly where its pre-activation is). So values, gradients
    and FLOP charges are bitwise those of the composition.
    """
    w1, b1, w2, b2 = w.w1.data, w.b1.data, w.w2.data, w.b2.data
    d, hidden = w1.shape
    if x.shape[-1:] != (d,) or b1.shape != (hidden,) or w2.shape != (hidden, d) \
            or b2.shape != (d,):
        raise DimensionError(f"feed-forward needs (..., {d}) input, (D, hidden) w1 and "
                             f"(hidden, D) w2 with matching biases: {x.shape}, {w1.shape}, "
                             f"{b1.shape}, {w2.shape}, {b2.shape}")
    flat = x.data.reshape(-1, d)
    n = flat.shape[0]
    flopcount.add(4 * n * d * hidden + 2 * n * hidden + n * d)
    h = flat @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    y = h @ w2
    y += b2
    out = Tensor(y.reshape(x.shape))
    xshape = x.shape

    def grad_fn(g):
        g2 = g.reshape(n, d)
        gh = g2 @ w2.T
        gw2 = h.T @ g2
        gh *= h > 0.0
        return ((gh @ w1.T).reshape(xshape), flat.T @ gh, gh.sum(axis=0), gw2,
                g2.sum(axis=0))

    return _record(out, (x, w.w1, w.b1, w.w2, w.b2), grad_fn)


class AxialBlock:
    """Pre-norm block: time attention, frequency attention, FFN, each residual."""

    def __init__(self, cfg: ReceiverConfig, rng: np.random.Generator):
        self.ln1 = LayerNormParams(cfg.d)
        self.time = AttentionWeights(cfg.d, cfg.heads, rng)
        self.ln2 = LayerNormParams(cfg.d)
        self.freq = AttentionWeights(cfg.d, cfg.heads, rng)
        self.ln3 = LayerNormParams(cfg.d)
        self.ffn = FeedForward(cfg.d, cfg.ffn_hidden, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + axial_time_attention(self.ln1(x), self.time)
        x = x + axial_freq_attention(self.ln2(x), self.freq)
        return x + self.ffn(self.ln3(x))


class GlobalBlock:
    """Pre-norm block: global attention then FFN, each residual."""

    def __init__(self, cfg: ReceiverConfig, rng: np.random.Generator):
        self.ln1 = LayerNormParams(cfg.d)
        self.att = AttentionWeights(cfg.d, cfg.heads, rng)
        self.ln2 = LayerNormParams(cfg.d)
        self.ffn = FeedForward(cfg.d, cfg.ffn_hidden, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + global_mhsa(self.ln1(x), self.att)
        return x + self.ffn(self.ln2(x))


class ConvLayer:
    def __init__(self, kernel: int, c_in: int, c_out: int, rng: np.random.Generator,
                 zero_init: bool = False):
        if zero_init:
            self.w = Tensor(np.zeros((kernel, kernel, c_in, c_out)), requires_grad=True)
        else:
            self.w = _he_normal(rng, (kernel, kernel, c_in, c_out), kernel * kernel * c_in)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b)


class ResNetUnit:
    """LN -> conv3x3 -> ReLU -> conv3x3 with a skip connection."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.ln = LayerNormParams(channels)
        self.conv1 = ConvLayer(3, channels, channels, rng)
        self.conv2 = ConvLayer(3, channels, channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.conv2(relu(self.conv1(self.ln(x))))


class Receiver:
    """End-to-end neural receiver mapping a received grid to per-bit LLRs.

    The output projection starts at zero so a fresh model emits all-zero
    LLRs (maximal uncertainty, bit-metric loss exactly ln 2); everything
    else uses He-scaled Gaussians.
    """

    def __init__(self, cfg: ReceiverConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        width = cfg.width
        self.input_conv = ConvLayer(cfg.kernel, cfg.input_channels, width, rng)
        if cfg.variant == "cnn-resnet":
            self.pos = None
            self.blocks = [ResNetUnit(width, rng) for _ in range(cfg.resnet_units)]
        else:
            self.pos = Tensor(rng.standard_normal((cfg.t, cfg.f, cfg.d)) * 0.02,
                              requires_grad=True)
            block_type = AxialBlock if cfg.variant == "axial" else GlobalBlock
            self.blocks = [block_type(cfg, rng) for _ in range(cfg.n_blocks)]
        self.output_conv = ConvLayer(1, width, cfg.bits_per_symbol, rng, zero_init=True)

    def forward(self, grid) -> Tensor:
        """grid provides `.y` and `.n0`: one (T, F, N_rx) complex grid, or a
        (B, T, F, N_rx) stack of B grids that share n0.

        LLRs come out as (T, F, bps) or (B, T, F, bps). A stack runs every
        op once over all its grids, and each grid's LLRs are bitwise those
        of its own forward. The features are cast to the parameters' dtype,
        so the forward runs in float32 when the parameters are float32.
        """
        y, n0 = grid.y, grid.n0
        trailing = (self.cfg.t, self.cfg.f, self.cfg.n_rx)
        if y.ndim not in (3, 4) or y.shape[-3:] != trailing:
            raise ValueError(f"grid shape {y.shape} does not end in the configured "
                             f"(T, F, N_rx) = {trailing}")
        with flopcount.bucket("input_conv"):
            features = input_features(y, n0).data.astype(self.input_conv.w.data.dtype,
                                                          copy=False)
            x = self.input_conv(Tensor(features))
        if self.pos is not None:
            with flopcount.bucket("pos"):
                x = x + self.pos
        for i, block in enumerate(self.blocks):
            with flopcount.bucket(f"block{i:02d}"):
                x = block(x)
        with flopcount.bucket("output_conv"):
            return self.output_conv(x)

    __call__ = forward

    def named_parameters(self) -> dict[str, Tensor]:
        out = {} if self.pos is None else {"pos": self.pos}
        parts = [("input_conv", self.input_conv), ("output_conv", self.output_conv)]
        parts += [(f"block{i:02d}", block) for i, block in enumerate(self.blocks)]
        for prefix, part in parts:
            _collect_parameters(part, prefix, out)
        return dict(sorted(out.items()))

    def parameter_count(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in params.items():
            value = np.asarray(state[name], dtype=np.float64, order="C")
            if value.shape != tensor.shape:
                raise ValueError(f"parameter {name}: checkpoint shape {value.shape} "
                                 f"!= model shape {tensor.shape}")
            tensor.data = value


def attention_projection_params(variant: str, d: int) -> int:
    """Q/K/V/O parameter count of one block's attention stage."""
    per_operator = 4 * d * d
    if variant == "axial":
        return 2 * per_operator
    if variant == "global":
        return per_operator
    raise ValueError(f"no attention projections in variant {variant!r}")
