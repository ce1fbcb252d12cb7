"""Classical receiver: LS pilots, Wiener interpolation, MMSE combining, demapping.

The estimator is deliberately simple and explicit about its assumptions:
least-squares at the pilot symbols, an LMMSE frequency filter built from a
uniform power-delay-profile correlation (sinc kernel, configurable assumed
delay spread), and linear interpolation between pilot symbols in time,
held constant outside them. Equalization is per-RE maximum-ratio MMSE
combining across antennas. Both a max-log and an exact log-MAP demapper
are provided; both receivers here, LS-LMMSE and the perfect-CSI reference,
demap with max-log, and the exact one is the oracle that checks it.

Every function takes one (T, F, N_rx) grid or a stack of them along
leading block axes, (..., T, F, N_rx), and treats each grid on its own. A
stack shares one noise power, so one Wiener filter serves all of it.
"""

from __future__ import annotations

import numpy as np

from .phy import Constellation, PilotPattern


def ls_estimate(y: np.ndarray, pilots: PilotPattern) -> np.ndarray:
    """Per-antenna LS estimates at the pilot symbols: y / x.

    Returns (..., P, F, N_rx) for P pilot symbols. With unit-modulus pilots
    the estimation error variance equals the noise power.
    """
    idx = list(pilots.symbol_indices)
    return y[..., idx, :, :] / pilots.values[..., None]


def _uniform_pdp_correlation(f: int, subcarrier_spacing_hz: float,
                             assumed_delay_spread_s: float) -> np.ndarray:
    """Frequency correlation for a uniform delay profile on [0, tau_max].

    With h(k) = sum_l g_l exp(-j 2 pi k scs tau_l) and tau uniform on
    [0, tau_max], E[h(i) h(j)*] = e^{j pi x} sinc(x) for x = (j-i) scs tau_max,
    where tau_max = sqrt(12) * rms delay spread.
    """
    tau_max = np.sqrt(12.0) * assumed_delay_spread_s
    idx = np.arange(f)
    x = (idx[None, :] - idx[:, None]) * subcarrier_spacing_hz * tau_max
    return np.exp(1j * np.pi * x) * np.sinc(x)


def lmmse_interpolate(pilot_estimates: np.ndarray, pilots: PilotPattern, t: int,
                      subcarrier_spacing_hz: float, assumed_delay_spread_s: float,
                      n0: float) -> np.ndarray:
    """Separable Wiener-in-frequency, linear-in-time interpolation.

    Returns the (..., T, F, N_rx) complex channel estimate of
    (..., P, F, N_rx) pilot estimates.

    The frequency filter is W = R (R + N0 I)^{-1} with the uniform-PDP
    correlation R; regularization by N0 (floored away from zero) keeps the
    solve well-posed for any input.
    """
    p, f, n_rx = pilot_estimates.shape[-3:]
    if p == 0:
        raise ValueError("need at least one pilot symbol")
    reg = max(n0, 1e-12)
    corr = _uniform_pdp_correlation(f, subcarrier_spacing_hz, assumed_delay_spread_s)
    a = corr + reg * np.eye(f)
    # W = R A^{-1}; A and R are Hermitian, so W = (A^{-1} R)^H
    w = np.linalg.solve(a, corr).conj().T
    filtered = np.einsum("kf,...pfr->...pkr", w, pilot_estimates)

    # time direction: linear between pilot symbols, constant outside
    if p == 1:
        weights = np.ones((t, 1))
    else:
        pilot_ts = np.asarray(pilots.symbol_indices, dtype=float)
        n = np.arange(t)
        j = np.clip(np.searchsorted(pilot_ts, n) - 1, 0, p - 2)  # left pilot of n's span
        frac = np.clip((n - pilot_ts[j]) / (pilot_ts[j + 1] - pilot_ts[j]), 0.0, 1.0)
        weights = np.zeros((t, p))
        weights[n, j] = 1.0 - frac
        weights[n, j + 1] = frac
    return np.einsum("tp,...pkr->...tkr", weights, filtered)


def mmse_equalize(y: np.ndarray, h: np.ndarray, n0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-RE MRC-MMSE combining: x_hat = h^H y / (h^H h + N0), nu = N0 / (h^H h + N0).

    Resource elements with an all-zero estimate emit x_hat = 0 with
    infinite noise variance (maximal uncertainty).
    """
    if n0 <= 0:
        raise ValueError(f"noise power must be positive, got {n0}")
    energy = np.sum(np.abs(h) ** 2, axis=-1)
    numerator = np.sum(np.conj(h) * y, axis=-1)
    x_hat = numerator / (energy + n0)
    nu = np.where(energy > 0.0, n0 / (energy + n0), np.inf)
    return x_hat, nu


def maxlog_demap(x_hat: np.ndarray, nu: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Max-log LLRs, positive meaning bit 1 is more likely.

    LLR_b = (min_{s: b=0} |x - s|^2 - min_{s: b=1} |x - s|^2) / nu.
    """
    nu = np.broadcast_to(np.asarray(nu, dtype=float), np.shape(x_hat))
    if (nu <= 0).any():
        raise ValueError("effective noise variance must be positive")
    dist = np.abs(x_hat[..., None] - constellation.points) ** 2
    bit_is_one = constellation.bit_sets()  # (bps, order)
    llrs = np.empty(np.shape(x_hat) + (constellation.bits_per_symbol,))
    for b, ones in enumerate(bit_is_one):
        d0 = dist[..., ~ones].min(axis=-1)
        d1 = dist[..., ones].min(axis=-1)
        llrs[..., b] = (d0 - d1) / nu
    return llrs


def exact_demap(x_hat: np.ndarray, nu: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Exact log-MAP LLRs via stabilized log-sum-exp over constellation subsets."""
    nu = np.broadcast_to(np.asarray(nu, dtype=float), np.shape(x_hat))
    if (nu <= 0).any():
        raise ValueError("effective noise variance must be positive")
    metric = -(np.abs(x_hat[..., None] - constellation.points) ** 2) / nu[..., None]
    bit_is_one = constellation.bit_sets()

    def logsumexp(m):
        peak = m.max(axis=-1)
        return peak + np.log(np.exp(m - peak[..., None]).sum(axis=-1))

    llrs = np.empty(np.shape(x_hat) + (constellation.bits_per_symbol,))
    for b, ones in enumerate(bit_is_one):
        llrs[..., b] = logsumexp(metric[..., ones]) - logsumexp(metric[..., ~ones])
    return llrs


def lmmse_receive(y: np.ndarray, pilots: PilotPattern, constellation: Constellation,
                  n0: float, subcarrier_spacing_hz: float,
                  assumed_delay_spread_s: float) -> np.ndarray:
    """Full classical chain: LS -> Wiener/linear interpolation -> MMSE -> max-log."""
    t = y.shape[-3]
    h_hat = lmmse_interpolate(ls_estimate(y, pilots), pilots, t,
                              subcarrier_spacing_hz, assumed_delay_spread_s, n0)
    x_hat, nu = mmse_equalize(y, h_hat, n0)
    return maxlog_demap(x_hat, nu, constellation)


def perfect_csi_receive(y: np.ndarray, h: np.ndarray, n0: float,
                        constellation: Constellation) -> np.ndarray:
    """Genie receiver: MMSE combining with the true channel, then max-log."""
    x_hat, nu = mmse_equalize(y, h, n0)
    return maxlog_demap(x_hat, nu, constellation)
