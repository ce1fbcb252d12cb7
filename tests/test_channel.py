"""Tapped-delay-line channel: fading statistics, determinism, Doppler tiers."""

import numpy as np
import pytest
from scipy.special import j0

from axialrx.channel import (
    VELOCITY_TIERS,
    TdlProfile,
    doppler_hz,
    generate,
)

SCS = 30e3


class TestProfile:
    def test_powers_sum_to_one(self):
        p = TdlProfile.make(50e-9, velocity_mps=20.0)
        assert abs(sum(p.powers) - 1.0) <= 1e-12
        assert list(p.delays_s) == sorted(p.delays_s)
        assert all(d >= 0 for d in p.delays_s)

    def test_realized_rms_spread_matches_configured(self):
        for target in (10e-9, 55e-9, 100e-9):
            p = TdlProfile.make(target, velocity_mps=0.0)
            d, w = np.array(p.delays_s), np.array(p.powers)
            mean = (w * d).sum()
            rms = np.sqrt((w * (d - mean) ** 2).sum())
            assert rms == pytest.approx(target, rel=1e-9)

    def test_single_tap_when_no_spread(self):
        p = TdlProfile.make(0.0, velocity_mps=10.0)
        assert p.delays_s == (0.0,)
        assert p.powers == (1.0,)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            TdlProfile(delays_s=(), powers=(), doppler_hz=0.0, rms_delay_spread_s=0.0)

    def test_bad_powers_rejected(self):
        with pytest.raises(ValueError):
            TdlProfile(delays_s=(0.0, 1e-8), powers=(0.7, 0.7), doppler_hz=0.0,
                       rms_delay_spread_s=1e-8)


class TestGenerate:
    def test_static_flat_channel(self):
        p = TdlProfile((0.0,), (1.0,), doppler_hz=0.0, rms_delay_spread_s=0.0)
        r = generate(p, t=14, f=24, n_rx=2, subcarrier_spacing_hz=SCS, seed=0)
        # constant over time and flat over frequency
        reference = np.broadcast_to(r.h[0:1, 0:1, :], r.h.shape)
        np.testing.assert_allclose(r.h, reference, atol=1e-14)

    def test_single_tap_is_flat_over_frequency(self):
        p = TdlProfile((0.0,), (1.0,), doppler_hz=500.0, rms_delay_spread_s=0.0)
        r = generate(p, t=14, f=24, n_rx=1, subcarrier_spacing_hz=SCS, seed=1)
        reference = np.broadcast_to(np.abs(r.h[:, 0:1, :]), r.h.shape)
        np.testing.assert_allclose(np.abs(r.h), reference, atol=1e-14)

    def test_determinism(self):
        p = TdlProfile.make(60e-9, velocity_mps=30.0)
        a = generate(p, 14, 24, 2, SCS, seed=42)
        b = generate(p, 14, 24, 2, SCS, seed=42)
        np.testing.assert_array_equal(a.h, b.h)
        c = generate(p, 14, 24, 2, SCS, seed=43)
        assert not np.array_equal(a.h, c.h)

    def test_unit_power_and_jakes_autocorrelation(self):
        """Monte Carlo over 1e4 realizations vs the J0 oracle."""
        fd = 900.0
        p = TdlProfile((0.0,), (1.0,), doppler_hz=fd, rms_delay_spread_s=0.0)
        t = 11  # lags up to fd*dt = 0.3 at 30 kHz symbol rate
        n_trials = 10_000
        acc = np.zeros((t,), dtype=complex)
        power = 0.0
        for trial in range(n_trials):
            h = generate(p, t, 1, 1, SCS, seed=trial).h[:, 0, 0]
            acc += h[0].conj() * h
            power += np.mean(np.abs(h) ** 2)
        power /= n_trials
        assert 0.95 <= power <= 1.05
        corr = (acc / n_trials).real
        lags = np.arange(t) / SCS
        expected = j0(2.0 * np.pi * fd * lags)
        np.testing.assert_allclose(corr, expected, atol=0.05)

    def test_frequency_correlation_decays_for_multitap(self):
        p = TdlProfile.make(100e-9, velocity_mps=0.0)
        acc1 = acc2 = 0.0
        norm = 0.0
        for trial in range(400):
            h = generate(p, 1, 128, 1, SCS, seed=trial).h[0, :, 0]
            acc1 += np.mean(h[:-4] * np.conj(h[4:]))
            acc2 += np.mean(h[:-96] * np.conj(h[96:]))
            norm += np.mean(np.abs(h) ** 2)
        assert abs(acc1) / norm > abs(acc2) / norm
        assert abs(acc2) / norm < 0.7

    def test_antennas_fade_independently(self):
        p = TdlProfile((0.0,), (1.0,), doppler_hz=200.0, rms_delay_spread_s=0.0)
        samples = np.array([generate(p, 1, 1, 2, SCS, seed=s).h[0, 0] for s in range(4000)])
        corr = np.abs(np.mean(samples[:, 0] * np.conj(samples[:, 1])))
        assert corr < 0.05

    def test_rejects_bad_spacing(self):
        p = TdlProfile((0.0,), (1.0,), doppler_hz=0.0, rms_delay_spread_s=0.0)
        with pytest.raises(ValueError):
            generate(p, 2, 2, 1, 0.0, seed=0)


class TestCoherence:
    def test_doppler_at_40mps(self):
        assert doppler_hz(40.0, 3.5e9) == pytest.approx(466.6666666666667, rel=1e-12)

    def test_velocity_tiers_cover_spec_ranges(self):
        assert VELOCITY_TIERS["tdl-lo"] == (0.0, 5.1)
        assert VELOCITY_TIERS["tdl-mid"] == (10.0, 20.0)
        assert VELOCITY_TIERS["tdl-hi"] == (25.0, 40.0)
