"""Transmitter chain and link simulation: bits to received resource grid.

Symbols live on a T x F grid (OFDM symbol index x subcarrier index). Pilot
symbols occupy whole rows at fixed symbol indices; data symbols fill the
remaining positions in (t, f) raster order. The channel acts directly in
the frequency domain, y = h * x + n per resource element, so no IFFT or
cyclic-prefix handling exists here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gray_code(n_bits: int) -> np.ndarray:
    i = np.arange(1 << n_bits)
    return i ^ (i >> 1)


@dataclass(frozen=True)
class Constellation:
    """Gray-labeled square QAM with exactly unit average energy.

    `points` is indexed by the integer label (bits packed MSB-first; the
    first half of the bits selects the I axis, the second half the Q
    axis). Per axis, label bits follow a Gray sequence over amplitude
    positions ordered from most positive to most negative, so the
    all-zero label sits at the positive corner, e.g. (7+7j)/sqrt(42) for
    64-QAM.
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int

    @staticmethod
    def make(order: int) -> "Constellation":
        if order not in (4, 16, 64):
            raise ValueError(f"unsupported constellation order {order} (use 4, 16, or 64)")
        k = int(np.log2(order))
        half = k // 2
        m_axis = 1 << half
        # descending PAM amplitudes indexed by geometric position
        pam = np.array([m_axis - 1 - 2 * i for i in range(m_axis)], dtype=np.float64)
        axis_points = np.empty(m_axis)
        axis_points[gray_code(half)] = pam
        labels = np.arange(order)
        i_vals = axis_points[labels >> half]
        q_vals = axis_points[labels & (m_axis - 1)]
        norm = 2.0 * (m_axis * m_axis - 1) / 3.0  # 2, 10, 42
        points = (i_vals + 1j * q_vals) / np.sqrt(norm)
        return Constellation(order=order, points=points, bits_per_symbol=k)

    def labels_to_bits(self, labels: np.ndarray) -> np.ndarray:
        k = self.bits_per_symbol
        shifts = np.arange(k - 1, -1, -1)
        return (labels[..., None] >> shifts) & 1

    def bit_sets(self) -> np.ndarray:
        """(bits_per_symbol, order) boolean table: bit b of each label."""
        return self.labels_to_bits(np.arange(self.order)).T.astype(bool)


@dataclass(frozen=True)
class PilotPattern:
    """Known unit-modulus QPSK pilots on whole OFDM symbols."""

    symbol_indices: tuple[int, ...]
    values: np.ndarray  # (len(symbol_indices), F) complex, |v| = 1

    @staticmethod
    def make(symbol_indices: tuple[int, ...], n_subcarriers: int, seed: int) -> "PilotPattern":
        rng = np.random.default_rng(seed)
        quadrant = rng.integers(0, 4, size=(len(symbol_indices), n_subcarriers))
        values = np.exp(1j * (np.pi / 4.0 + quadrant * np.pi / 2.0))
        return PilotPattern(symbol_indices=tuple(symbol_indices), values=values)

    def mask(self, t: int, f: int) -> np.ndarray:
        """Boolean (T, F) grid, True at pilot positions."""
        out = np.zeros((t, f), dtype=bool)
        for idx in self.symbol_indices:
            if not 0 <= idx < t:
                raise ValueError(f"pilot symbol index {idx} outside [0, {t})")
            out[idx] = True
        return out


@dataclass(frozen=True)
class LinkConfig:
    t: int = 14
    f: int = 128
    n_rx: int = 2
    subcarrier_spacing_hz: float = 30e3
    carrier_hz: float = 3.5e9
    order: int = 64
    snr_db: tuple[float, float] = (0.0, 15.0)
    velocity_mps: tuple[float, float] = (0.0, 50.0)
    delay_spread_s: tuple[float, float] = (10e-9, 100e-9)
    pilot_symbols: tuple[int, ...] = (2, 11)
    pilot_seed: int = 7

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def n_data_re(self) -> int:
        return (self.t - len(self.pilot_symbols)) * self.f

    @property
    def n_coded_bits(self) -> int:
        return self.n_data_re * self.bits_per_symbol

    def constellation(self) -> Constellation:
        return Constellation.make(self.order)

    def pilots(self) -> PilotPattern:
        return PilotPattern.make(self.pilot_symbols, self.f, self.pilot_seed)


@dataclass
class ResourceGrid:
    """One received grid plus the ground truth needed for training."""

    y: np.ndarray  # (T, F, N_rx) complex received samples
    bits: np.ndarray  # (T, F, bits_per_symbol) coded bits, zero at pilots
    pilot_mask: np.ndarray  # (T, F) bool
    n0: float

    @property
    def data_mask(self) -> np.ndarray:
        return ~self.pilot_mask


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Gray-map a flat bit array (MSB-first per symbol) to complex symbols."""
    bits = np.asarray(bits)
    k = constellation.bits_per_symbol
    if bits.size % k != 0:
        raise ValueError(f"bit count {bits.size} not divisible by bits/symbol {k}")
    grouped = bits.reshape(-1, k)
    weights = 1 << np.arange(k - 1, -1, -1)
    labels = (grouped * weights).sum(axis=1)
    return constellation.points[labels]


def build_grid(bits: np.ndarray, pilots: PilotPattern, cfg: LinkConfig) -> np.ndarray:
    """Transmitted grid X: mapped data symbols in raster order, pilots in place."""
    symbols = map_bits(bits, cfg.constellation())
    mask = pilots.mask(cfg.t, cfg.f)
    n_data = (~mask).sum()
    if symbols.size != n_data:
        raise ValueError(f"{symbols.size} data symbols for {n_data} data positions")
    x = np.zeros((cfg.t, cfg.f), dtype=complex)
    x[~mask] = symbols  # boolean indexing scans in (t, f) raster order
    x[pilots.symbol_indices, :] = pilots.values
    return x


def bits_to_grid(bits: np.ndarray, pilot_mask: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Scatter a flat coded-bit array onto the (T, F, bps) data positions."""
    t, f = pilot_mask.shape
    out = np.zeros((t, f, bits_per_symbol), dtype=np.float64)
    out[~pilot_mask] = np.asarray(bits, dtype=np.float64).reshape(-1, bits_per_symbol)
    return out


def grid_to_bits(grid: np.ndarray, pilot_mask: np.ndarray) -> np.ndarray:
    """Gather data-position values back into the flat raster-order array."""
    return np.asarray(grid)[~pilot_mask].reshape(-1)


def apply_channel(x: np.ndarray, h: np.ndarray, n0: float, rng: np.random.Generator) -> np.ndarray:
    """Per-RE channel: y[t,f,r] = h[t,f,r] * x[t,f] + CN(0, n0) noise."""
    if n0 <= 0.0:
        raise ValueError(f"noise power must be positive, got {n0}")
    if h.shape[:2] != x.shape:
        raise ValueError(f"channel shape {h.shape} does not cover grid {x.shape}")
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    return h * x[..., None] + np.sqrt(n0 / 2.0) * noise


def snr_to_n0(snr_db: float) -> float:
    """Noise power for unit symbol energy and unit-power channel."""
    return 10.0 ** (-snr_db / 10.0)


def make_grid(codeword: np.ndarray, cfg: LinkConfig, h: np.ndarray, n0: float,
              rng: np.random.Generator, pilots: PilotPattern | None = None) -> ResourceGrid:
    """Assemble the full received grid for one coded block."""
    pilots = pilots if pilots is not None else cfg.pilots()
    x = build_grid(codeword, pilots, cfg)
    mask = pilots.mask(cfg.t, cfg.f)
    return ResourceGrid(
        y=apply_channel(x, h, n0, rng),
        bits=bits_to_grid(codeword, mask, cfg.bits_per_symbol),
        pilot_mask=mask,
        n0=n0,
    )
