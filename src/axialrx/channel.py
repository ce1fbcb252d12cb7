"""Tapped-delay-line Rayleigh channel with Jakes Doppler.

Each tap carries an independent complex gain per receive antenna, built
as a sum of sinusoids with random arrival angles and phases so the time
autocorrelation converges to J0(2*pi*f_d*dt). The frequency response at
subcarrier k is the delay-phased sum over taps. Total tap power is one,
so E[|h|^2] = 1.

Stand-in for 3GPP CDL profiles: all presets are NLOS Rayleigh; there is
no LOS/K-factor path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIGHT_SPEED_MPS = 3.0e8

# Velocity tiers for evaluation sweeps, in m/s.
VELOCITY_TIERS: dict[str, tuple[float, float]] = {
    "tdl-lo": (0.0, 5.1),
    "tdl-mid": (10.0, 20.0),
    "tdl-hi": (25.0, 40.0),
}


def doppler_hz(velocity_mps: float, carrier_hz: float) -> float:
    return velocity_mps * carrier_hz / LIGHT_SPEED_MPS


@dataclass(frozen=True)
class TdlProfile:
    """Tap delays/powers plus the maximum Doppler shift."""

    delays_s: tuple[float, ...]
    powers: tuple[float, ...]
    doppler_hz: float
    rms_delay_spread_s: float

    def __post_init__(self):
        if not self.delays_s:
            raise ValueError("profile needs at least one tap")
        if any(d < 0 for d in self.delays_s) or list(self.delays_s) != sorted(self.delays_s):
            raise ValueError("tap delays must be non-negative and ascending")
        if abs(sum(self.powers) - 1.0) > 1e-12:
            raise ValueError(f"tap powers must sum to 1, got {sum(self.powers)}")
        if self.doppler_hz < 0:
            raise ValueError("Doppler must be non-negative")

    @staticmethod
    def make(rms_delay_spread_s: float, velocity_mps: float,
             carrier_hz: float = 3.5e9, n_taps: int = 8) -> "TdlProfile":
        """Exponential power-delay profile calibrated by RMS delay spread."""
        fd = doppler_hz(velocity_mps, carrier_hz)
        if n_taps == 1 or rms_delay_spread_s <= 0.0:
            return TdlProfile((0.0,), (1.0,), fd, max(rms_delay_spread_s, 0.0))
        # exponential quantile spacing with exponentially decaying powers,
        # then rescale delays so the realized RMS spread hits the target
        fractions = np.arange(n_taps) / n_taps
        delays = -np.log1p(-fractions)
        powers = np.exp(-delays)
        powers = powers / powers.sum()
        powers[-1] += 1.0 - powers.sum()  # absorb rounding so the sum is exact
        mean_delay = (powers * delays).sum()
        rms = np.sqrt((powers * (delays - mean_delay) ** 2).sum())
        delays = delays * (rms_delay_spread_s / rms)
        return TdlProfile(tuple(delays), tuple(powers), fd, rms_delay_spread_s)


def generate(profile: TdlProfile, t: int, f: int, n_rx: int,
             subcarrier_spacing_hz: float, seed, n_sinusoids: int = 32) -> np.ndarray:
    """Sample one channel realization: the (T, F, N_rx) complex frequency response.

    Symbol timing uses the OFDM symbol duration 1/scs (cyclic prefix
    ignored). Antennas fade independently. Deterministic in (profile,
    seed): the same inputs give a bitwise-identical response.
    """
    if subcarrier_spacing_hz <= 0:
        raise ValueError("subcarrier spacing must be positive")
    rng = np.random.default_rng(seed)
    n_taps = len(profile.delays_s)
    times = np.arange(t) / subcarrier_spacing_hz
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_taps, n_rx, n_sinusoids))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_taps, n_rx, n_sinusoids))
    omega = 2.0 * np.pi * profile.doppler_hz * np.cos(angles)
    # (taps, rx, sinusoids, time) phase evolution, summed over sinusoids
    arg = omega[..., None] * times + phases[..., None]
    gains = np.exp(1j * arg).sum(axis=2) / np.sqrt(n_sinusoids)  # (taps, rx, T)
    delays = np.asarray(profile.delays_s)
    powers = np.asarray(profile.powers)
    subcarriers = np.arange(f)
    steering = np.exp(-2j * np.pi * np.outer(subcarriers * subcarrier_spacing_hz, delays))  # (F, taps)
    weighted = gains * np.sqrt(powers)[:, None, None]
    return np.einsum("lrt,fl->tfr", weighted, steering)
