"""Training and evaluation of the receivers over randomized links.

Each training step samples SNR, velocity, and delay spread uniformly from
the configured ranges, draws a fresh channel and payload, runs the
receiver, and minimizes the bit-metric binary cross-entropy over data
resource elements (pilot positions carry no payload and are masked out),
which the tape records as one op.

Every random draw derives from the master seed through a SeedSequence
keyed by (seed, stream, index), so training traces, checkpoints, and
evaluation results are bitwise reproducible. Evaluation samples each
chunk of blocks one by one in the calling thread, stacks their grids
along a leading block axis, calls every receiver once on the stack, then
decodes the LLRs of every block and receiver in the chunk in one batched
min-sum call. A receiver call splits its stack into slices and runs them
on as many threads as the process may use CPUs (`_in_slices`, one
`streams.run`); sampling and decoding stay in the calling thread, because
they hold the interpreter lock and two threads ran them no faster. Runs
of `streams` never nest, so the attention chunks of a forward inside a
slice stay in that slice's thread. A forward called on its own, as in
training or on a one-slice stack, runs an attention call of several
chunks on every CPU instead (`layers.attend`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import channel as channel_mod
from . import ldpc as ldpc_mod
from . import phy, streams
from .autodiff import _TAPES, Tape, Tensor, backward, bce_with_logits, scale
from .flopcount import _COUNTERS
from .layers import Receiver

TRAIN_STREAM = 101
EVAL_STREAM = 202
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_CHUNK_BLOCKS = 32  # blocks per stack and batched decode; the early-stop granularity
# Cap on the elements one receiver call holds per slice of a stack: T*F*width
# per block, width being the neural embedding (d or resnet_channels) or the
# constellation order. At desk dims (T=14, F=24) axial and global get 6 grids
# per forward, cnn-resnet 1 and the classical receivers a whole chunk; at
# paper dims every receiver gets 1. Measured on a 32-block desk chunk (2-vCPU
# Xeon, one BLAS thread, medians of 12 alternating repetitions, ms per block)
# at caps 2^13..2^19: axial 2.52 2.61 2.11 1.97 2.02 2.43 2.85, global 5.11
# 5.12 4.76 4.66 4.43 4.73 4.85, LS-LMMSE 0.13 falling to 0.07 from 2^16 on.
# Axial and global are flat from 2^15 to 2^17; a 2-grid cnn-resnet forward
# (2^17) read 52.7 against 44.3 ms for one grid. The slices of a stack run
# on all the process's CPUs at once (`_in_slices`), so the cap also sets how
# many slices a chunk offers them: 6 per axial or global chunk at desk dims.
STACK_ELEMENTS = 1 << 16


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the step index and sampled settings."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"non-finite loss at step {step}: {detail}")
        self.step = step


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    learning_rate: float = 5e-3
    seed: int = 0
    checkpoint_every: int = 0  # 0 = only the final state is kept

    def __post_init__(self):
        for key, low in (("steps", 0), ("batch_size", 1), ("seed", 0), ("checkpoint_every", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EvalConfig:
    snr_points_db: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0)
    tiers: tuple[str, ...] = ("tdl-lo",)
    max_blocks: int = 200
    target_errors: int = 100
    seed: int = 0
    threads: int = 1  # ignored: the CPU affinity mask sets the threads; kept for callers

    def __post_init__(self):
        for key, low in (("max_blocks", 1), ("target_errors", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("snr_points_db", "tiers"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must list at least one value")
            # a repeat would be measured twice and written as two rows with one key
            for i, value in enumerate(values):
                if value in values[i + 1:]:
                    raise ValueError(f"{key} lists {value!r} more than once")
        for snr_db in self.snr_points_db:
            if not math.isfinite(snr_db):
                raise ValueError(f"snr_points_db must be finite, got {snr_db}")
        for tier in self.tiers:
            if tier not in channel_mod.VELOCITY_TIERS:
                raise ValueError(f"tiers: unknown tier {tier!r}, "
                                 f"expected one of {tuple(channel_mod.VELOCITY_TIERS)}")


@dataclass
class EvalPoint:
    receiver: str
    snr_db: float
    velocity_tier: str
    blocks: int
    errors: int
    bler: float
    halfwidth: float
    target_errors: int = 0

    @property
    def undersampled(self) -> bool:
        """Budget exhausted before the target error count was observed."""
        return 0 < self.errors < self.target_errors


def bce_loss(llr: Tensor, bits: np.ndarray, data_mask: np.ndarray) -> Tensor:
    """Masked mean of the stable bit-metric cross-entropy, one tape op.

    Uses log(1 + exp(-|L|)) + max(L, 0) - L*B per element, averaged over
    the data positions only; see `autodiff.bce_with_logits`.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.shape != llr.shape:
        raise ValueError(f"bit grid shape {bits.shape} != LLR shape {llr.shape}")
    mask = np.broadcast_to(np.asarray(data_mask, dtype=bool)[..., None], llr.shape)
    if not mask.any():
        raise ValueError("empty data mask")
    return bce_with_logits(llr, bits, mask)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[Tensor, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """Standard Adam with bias correction; parameters update in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    for name in sorted(params):
        tensor = params[name]
        g = grads[tensor]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(tensor.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        tensor.data = tensor.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class LinkSimulator:
    """Seeded generator of received grids for one link configuration."""

    def __init__(self, link: phy.LinkConfig, n_taps: int = 8, n_sinusoids: int = 32):
        self.link = link
        self.pilots = link.pilots()
        self.code = ldpc_mod.construct(link.n_coded_bits, seed=link.pilot_seed)
        self.n_taps = n_taps
        self.n_sinusoids = n_sinusoids

    def sample(self, entropy: Sequence[int], snr_db: float | None = None,
               velocity_range: tuple[float, float] | None = None
               ) -> tuple[phy.ResourceGrid, np.ndarray, dict]:
        """One (grid, info_bits, meta) draw, fully determined by `entropy`.

        A static flat channel is a link whose `velocity_mps` and
        `delay_spread_s` ranges are both (0.0, 0.0).
        """
        link = self.link
        rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
        snr = float(rng.uniform(*link.snr_db)) if snr_db is None else float(snr_db)
        vel_range = velocity_range if velocity_range is not None else link.velocity_mps
        velocity = float(rng.uniform(*vel_range))
        spread = float(rng.uniform(*link.delay_spread_s))
        profile = channel_mod.TdlProfile.make(spread, velocity, link.carrier_hz,
                                              n_taps=self.n_taps)
        h = channel_mod.generate(profile, link.t, link.f, link.n_rx,
                                 link.subcarrier_spacing_hz, seed=rng,
                                 n_sinusoids=self.n_sinusoids)
        info = rng.integers(0, 2, self.code.k).astype(np.uint8)
        codeword = ldpc_mod.encode(self.code, info)
        n0 = phy.snr_to_n0(snr)
        grid = phy.make_grid(codeword, link, h, n0, rng, pilots=self.pilots)
        meta = {"snr_db": snr, "velocity": velocity, "delay_spread": spread, "h": h}
        return grid, info, meta


@dataclass
class TrainResult:
    trace: list[tuple[int, float, float, float]]  # (step, loss, snr_db, velocity)


def train(model: Receiver, sim: LinkSimulator, cfg: TrainConfig,
          log_fn: Callable[[str], None] | None = None,
          checkpoint_fn: Callable[[int, Receiver], None] | None = None) -> TrainResult:
    """Adam-optimize the receiver; deterministic for a fixed master seed.

    Each grid of a step is taped, differentiated and dropped on its own,
    so tape memory is bounded by one grid. Grids are visited last first:
    every parameter is used once per forward, so summing the per-grid
    gradients in that order repeats the additions of one tape over the
    whole batch, bit for bit. The loss is the batch mean, summed first
    to last. The sum accumulates in place into gradient arrays that
    `train` owns. The first grid visited is copied in, not kept, because
    `backward` may hand one array to two leaves.

    `checkpoint_fn(step, model)` fires every `cfg.checkpoint_every` steps
    when both are set; the caller owns serialization.
    """
    params = model.named_parameters()
    leaves = list(params.values())
    state = AdamState()
    trace: list[tuple[int, float, float, float]] = []
    weight = 1.0 / cfg.batch_size
    grads = {t: np.empty_like(t.data) for t in leaves}
    for step in range(cfg.steps):
        samples = [sim.sample((cfg.seed, TRAIN_STREAM, step, b)) for b in range(cfg.batch_size)]
        snrs = [meta["snr_db"] for _, _, meta in samples]
        velocities = [meta["velocity"] for _, _, meta in samples]
        losses = [0.0] * cfg.batch_size
        for b in reversed(range(cfg.batch_size)):
            grid = samples[b][0]
            with Tape() as tape:
                llr = model.forward(grid)
                loss_b = bce_loss(llr, grid.bits, grid.data_mask)
                losses[b] = loss_b.item()
                loss = scale(loss_b, weight)
            first = b == cfg.batch_size - 1
            for t, g in backward(loss, tape, leaves=leaves).items():
                if first:
                    np.copyto(grads[t], g)
                else:
                    grads[t] += g
        loss_value = sum(losses) * weight
        if not math.isfinite(loss_value):
            raise TrainingDiverged(step, f"snr={snrs} velocity={velocities}")
        adam_step(params, grads, state, cfg)
        trace.append((step, loss_value, float(np.mean(snrs)), float(np.mean(velocities))))
        if log_fn is not None and (step % 50 == 0 or step == cfg.steps - 1):
            log_fn(f"step {step}: loss {loss_value:.4f}")
        if checkpoint_fn is not None and cfg.checkpoint_every > 0 \
                and (step + 1) % cfg.checkpoint_every == 0:
            checkpoint_fn(step + 1, model)
    return TrainResult(trace=trace)


# receive(grid, meta) -> LLRs. `grid` is one grid or a stack of grids of one
# SNR point (`phy.stack_grids`): `grid.y` and `meta["h"]` are (..., T, F, N_rx)
# with an optional leading block axis, `grid.n0` one float. The LLRs are
# (..., T, F, bps), and each block's are bitwise those of its own call.
ReceiverFn = Callable[[phy.ResourceGrid, dict], np.ndarray]


def stack_slices(blocks: int, block_elements: int) -> list[slice]:
    """Consecutive slices that cover range(blocks) in order, as few as hold
    at most STACK_ELEMENTS // block_elements blocks each (always at least
    one), with sizes that differ by at most one, larger slices first."""
    count = max(1, -(-blocks // max(1, STACK_ELEMENTS // block_elements)))
    size, larger = divmod(blocks, count)
    bounds = [i * size + min(i, larger) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _in_slices(receive: Callable[[object], np.ndarray], grid: phy.ResourceGrid,
               width: int) -> np.ndarray:
    """receive(key) on each `stack_slices` key of a stack's block axis, for
    T*F*width elements per block, joined along that axis in slice order;
    receive(...) once for a single grid.

    The slices are the units of one `streams.run`, so they run on every
    CPU the process may use, and the first error in slice order is raised
    once every stream is done. Each part is computed alone, so the joined
    LLRs are bitwise the same for any stream count. A tape or FLOP counter
    is process-global and would see the other threads' ops, so a stack of
    more than one slice refuses to run while one is active.
    """
    if grid.y.ndim == 3:
        return receive(...)
    keys = stack_slices(grid.y.shape[0], grid.pilot_mask.size * width)
    if len(keys) == 1:
        return receive(keys[0])
    if _TAPES or _COUNTERS:
        raise RuntimeError("a stack of several slices is received on several threads; "
                           "call it outside every Tape and FlopCounter")
    return np.concatenate(streams.run(len(keys), lambda i, _: receive(keys[i])))


def neural_receiver(model: Receiver) -> ReceiverFn:
    """Receive with a float32 snapshot of `model` taken at call time.

    The snapshot is a deep copy whose parameters are cast to float32 once,
    so every forward and its LLRs are float32; `model` keeps its float64
    parameters untouched. Training `model` or calling its `load_state`
    afterwards does not reach this receiver: call again for a new snapshot.
    A stack runs in forwards of `stack_slices` blocks, each one untaped
    forward over its slice's grids, on several threads (`_in_slices`).
    """
    snapshot = copy.deepcopy(model)
    for tensor in snapshot.named_parameters().values():
        tensor.data = tensor.data.astype(np.float32)
    width = model.cfg.width

    def run(grid: phy.ResourceGrid, meta: dict) -> np.ndarray:
        return _in_slices(lambda key: snapshot.forward(grid[key]).data, grid, width)

    return run


def lmmse_receiver(link: phy.LinkConfig) -> ReceiverFn:
    from .baseline import lmmse_receive

    constellation = link.constellation()
    pilots = link.pilots()
    # mismatched assumption: midpoint of the configured range
    assumed = 0.5 * (link.delay_spread_s[0] + link.delay_spread_s[1])

    def run(grid: phy.ResourceGrid, meta: dict) -> np.ndarray:
        return _in_slices(lambda key: lmmse_receive(grid.y[key], pilots, constellation, grid.n0,
                                                    link.subcarrier_spacing_hz, assumed),
                          grid, constellation.order)

    return run


def perfect_csi_receiver(link: phy.LinkConfig) -> ReceiverFn:
    from .baseline import perfect_csi_receive

    constellation = link.constellation()

    def run(grid: phy.ResourceGrid, meta: dict) -> np.ndarray:
        return _in_slices(lambda key: perfect_csi_receive(grid.y[key], meta["h"][key], grid.n0,
                                                          constellation),
                          grid, constellation.order)

    return run


def _receive_chunk(receivers: dict[str, ReceiverFn], sim: LinkSimulator, entropies: list,
                   snr_db: float, velocity_range: tuple[float, float]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Sample one chunk's blocks and call every receiver once on the stack
    of their grids, which must come back as (blocks, T, F, bps) LLRs.

    Returns the (blocks, k) info bits and the (blocks * receivers, n) LLR
    rows, block-major and receiver-minor. The per-block grids are dropped
    once stacked, and the stack dies with this call, so neither is held
    through the forwards or the decode: at paper dims that kept the peak of
    a 32-block, five-receiver chunk within 1 MB of one receiving a block at
    a time, where holding both read 18 MB above it.
    """
    samples = [sim.sample(entropy, snr_db=snr_db, velocity_range=velocity_range)
               for entropy in entropies]
    infos = np.stack([info for _, info, _ in samples])
    grid = phy.stack_grids([g for g, _, _ in samples])
    meta = {"h": np.stack([m["h"] for _, _, m in samples])}
    del samples
    link = sim.link
    want = (len(infos), link.t, link.f, link.bits_per_symbol)
    llrs = []
    for name, receive in receivers.items():
        llr = receive(grid, meta)
        if np.shape(llr) != want:
            raise ValueError(f"receiver {name!r} returned LLRs of shape {np.shape(llr)}, "
                             f"expected {want}")
        llrs.append(phy.grid_to_bits(llr, grid.pilot_mask))
    return infos, np.stack(llrs, axis=1).reshape(len(infos) * len(llrs), -1)


def evaluate(receivers: dict[str, ReceiverFn], sim: LinkSimulator,
             cfg: EvalConfig) -> list[EvalPoint]:
    """Paired BLER sweep: every receiver decodes the same grids per point.

    Blocks accumulate until every receiver reaches the target error count
    or the block budget runs out; the early-stop check runs after each
    chunk of `EVAL_CHUNK_BLOCKS` blocks, so every point runs at least one.
    Each receiver is called once per chunk, on the stack of its grids, and
    must return (blocks, T, F, bps) LLRs; any other shape raises
    ValueError.
    """
    code = sim.code
    names = list(receivers)
    points: list[EvalPoint] = []
    point_index = 0
    for tier in cfg.tiers:
        vel_range = channel_mod.VELOCITY_TIERS[tier]
        for snr_db in cfg.snr_points_db:
            errors = {name: 0 for name in names}
            blocks_done = 0
            while blocks_done < cfg.max_blocks and \
                    not all(errors[name] >= cfg.target_errors for name in names):
                chunk_end = min(blocks_done + EVAL_CHUNK_BLOCKS, cfg.max_blocks)
                entropies = [(cfg.seed, EVAL_STREAM, point_index, block)
                             for block in range(blocks_done, chunk_end)]
                infos, llrs = _receive_chunk(receivers, sim, entropies, snr_db, vel_range)
                decoded = ldpc_mod.decode_info(code, llrs)
                wrong = decoded.reshape(len(infos), len(names), -1) != infos[:, None]
                for name, count in zip(names, wrong.any(axis=2).sum(axis=0)):
                    errors[name] += int(count)
                blocks_done = chunk_end
            for name in names:
                p = errors[name] / blocks_done
                halfwidth = 1.96 * math.sqrt(p * (1.0 - p) / blocks_done)
                points.append(EvalPoint(receiver=name, snr_db=snr_db, velocity_tier=tier,
                                        blocks=blocks_done, errors=errors[name],
                                        bler=p, halfwidth=halfwidth,
                                        target_errors=cfg.target_errors))
            point_index += 1
    return points


def monotonicity_violations(points: list[EvalPoint]) -> dict[str, list[tuple]]:
    """Per receiver/tier: SNR-adjacent BLER increases beyond one halfwidth sum."""
    out: dict[str, list[tuple]] = {}
    by_key: dict[tuple[str, str], list[EvalPoint]] = {}
    for p in points:
        by_key.setdefault((p.receiver, p.velocity_tier), []).append(p)
    for (name, tier), series in by_key.items():
        series = sorted(series, key=lambda p: p.snr_db)
        inversions = []
        for a, b in zip(series, series[1:]):
            if b.bler > a.bler:
                inversions.append((a.snr_db, b.snr_db, b.bler - a.bler,
                                   a.halfwidth + b.halfwidth))
        out[f"{name}/{tier}"] = inversions
    return out
