"""Receiver architectures: axial attention, global MHSA, convolutional ResNet.

All three share the outer structure: a 2-D convolutional input projection
of the received grid (real/imaginary parts per antenna plus log10 noise
power), an additive learned positional encoding for the transformer
variants, a stack of blocks, and a 1x1 convolutional output projection
to one LLR per coded bit.

Attention operates on batches of independent sequences. Axial blocks run
time-axis attention (one sequence per subcarrier) then frequency-axis
attention (one per OFDM symbol), each with its own Q/K/V/O projections;
the global variant flattens the grid into a single length-T*F sequence.
Blocks are pre-normalized with a residual connection around every
sub-operation and a position-wise ReLU feed-forward at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flopcount
from .autodiff import (
    Tensor,
    bias_add,
    conv2d,
    layer_norm,
    matmul,
    multi_head_attention,
    relu,
    reshape,
    transpose,
)

VARIANTS = ("axial", "global", "cnn-resnet")

# Cap on the scores one attention-core chunk holds: 2**16 float64 scores
# (512 KB) keep the one reused score buffer in L2 through both products and
# the softmax between them.
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
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def input_channels(self) -> int:
        return 2 * self.n_rx + 1


def _he_normal(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    return Tensor(rng.standard_normal(shape) * math.sqrt(2.0 / fan_in), requires_grad=True)


def input_features(y: np.ndarray, n0: float) -> Tensor:
    """Stack [Re(Y), Im(Y), log10(N0)] into a (T, F, 2*N_rx+1) tensor."""
    if n0 <= 0.0:
        raise ValueError(f"noise power must be positive, got {n0}")
    t, f, _ = y.shape
    planes = np.concatenate(
        [y.real, y.imag, np.full((t, f, 1), math.log10(n0))], axis=-1)
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
        if d % heads != 0:
            raise ValueError(f"embedding dim {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        self.wq = _he_normal(rng, (d, d), d)
        self.wk = _he_normal(rng, (d, d), d)
        self.wv = _he_normal(rng, (d, d), d)
        self.wo = _he_normal(rng, (d, d), d)


def bmm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One attention-core product a @ b into `out`, charged to `<block>#core`."""
    with flopcount.bucket("#core"):
        flopcount.add(2 * a.size * b.shape[-1])
    return np.matmul(a, b, out=out)


def core_chunks(s: int, length: int, heads: int) -> list[tuple]:
    """Chunks (seq, rows) that cut the S*H (L, L) score matrices, one per
    sequence and head, into pieces of at most CORE_CHUNK_SCORES scores:
    `seq` is a basic-slice key over the (S, H) leading dims of the head
    arrays and `rows` a slice of query rows.

    While a sequence's H matrices fit under the cap, a chunk takes whole
    sequences with all their heads. Otherwise each matrix's query rows are
    split into blocks; where a whole matrix fits, its one block spans every
    row.
    """
    group = CORE_CHUNK_SCORES // (length * length)
    every = np.s_[:]
    if group >= s * heads:
        return [(every, every)]
    if group >= heads:
        seqs = group // heads
        return [(np.s_[i:i + seqs], every) for i in range(0, s, seqs)]
    rows = max(1, CORE_CHUNK_SCORES // length)
    return [(np.s_[i:i + 1, h:h + 1], np.s_[r:r + rows])
            for i in range(s) for h in range(heads) for r in range(0, length, rows)]


def attend(x: Tensor, w: AttentionWeights) -> Tensor:
    """Multi-head scaled dot-product attention over independent sequences.

    x: (S, L, D) of S sequences. Scores Q K^T / sqrt(d_h) are softmaxed per
    row and applied to V per head; heads are concatenated and projected by
    wo. The 1/sqrt(d_h) scale runs inside the softmax and is still charged
    one FLOP per score.

    The whole operator is one `multi_head_attention` tape node. Its core
    runs in the chunks of `core_chunks`, which share one score buffer. Both
    products of every chunk go through `bmm`, which charges them to
    `<block>#core`, a `#core` bucket nested in the open one; the
    projections and the softmax (five FLOPs per score) are charged to the
    open bucket itself, so the per-chunk counts sum to those of one
    unchunked core. A single chunk (every desk-dims axial call) keeps its
    probabilities for backward; several chunks recompute theirs there.
    """
    s, length, _ = x.shape
    return multi_head_attention(x, w.wq, w.wk, w.wv, w.wo, w.heads,
                                core_chunks(s, length, w.heads), bmm)


def axial_time_attention(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention along the time axis, independently per subcarrier."""
    columns = transpose(x, (1, 0, 2))  # (F, T, D)
    out = attend(columns, w)
    return transpose(out, (1, 0, 2))


def axial_freq_attention(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention along the frequency axis, independently per OFDM symbol."""
    return attend(x, w)  # (T, F, D) is already T sequences


def global_mhsa(x: Tensor, w: AttentionWeights) -> Tensor:
    """Attention over the flattened length-T*F sequence."""
    t, f, d = x.shape
    flat = reshape(x, (1, t * f, d))
    return reshape(attend(flat, w), (t, f, d))


class LayerNormParams:
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class FeedForward:
    """Position-wise D -> hidden -> D with ReLU."""

    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.d = d
        self.hidden = hidden
        self.w1 = _he_normal(rng, (d, hidden), d)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = _he_normal(rng, (hidden, d), hidden)
        self.b2 = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        t, f, d = x.shape
        flat = reshape(x, (t * f, d))
        inner = relu(bias_add(matmul(flat, self.w1), self.b1))
        return reshape(bias_add(matmul(inner, self.w2), self.b2), (t, f, d))


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
        width = cfg.resnet_channels if cfg.variant == "cnn-resnet" else cfg.d
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
        """grid provides `.y` (T, F, N_rx complex) and `.n0`."""
        y, n0 = grid.y, grid.n0
        if y.shape != (self.cfg.t, self.cfg.f, self.cfg.n_rx):
            raise ValueError(f"grid shape {y.shape} does not match configured "
                             f"({self.cfg.t}, {self.cfg.f}, {self.cfg.n_rx})")
        with flopcount.bucket("input_conv"):
            x = self.input_conv(input_features(y, n0))
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
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise ValueError(f"parameter {name}: checkpoint shape {value.shape} "
                                 f"!= model shape {tensor.shape}")
            tensor.data = np.ascontiguousarray(value)


def attention_projection_params(variant: str, d: int) -> int:
    """Q/K/V/O parameter count of one block's attention stage."""
    per_operator = 4 * d * d
    if variant == "axial":
        return 2 * per_operator
    if variant == "global":
        return per_operator
    raise ValueError(f"no attention projections in variant {variant!r}")
