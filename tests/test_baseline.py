"""Classical receiver chain: LS, Wiener interpolation, MMSE, demappers."""

import numpy as np
import pytest

from axialrx.baseline import (
    exact_demap,
    lmmse_interpolate,
    lmmse_receive,
    ls_estimate,
    maxlog_demap,
    mmse_equalize,
    perfect_csi_receive,
)
from axialrx.channel import TdlProfile, generate
from axialrx.phy import Constellation, LinkConfig, PilotPattern, build_grid, grid_to_bits

SCS = 30e3


def make_pilots(t=14, f=24, seed=3):
    return PilotPattern.make((2, 11), f, seed=seed)


class TestLsEstimate:
    def test_noiseless_recovers_h_exactly(self):
        rng = np.random.default_rng(0)
        pilots = make_pilots()
        h = rng.standard_normal((14, 24, 2)) + 1j * rng.standard_normal((14, 24, 2))
        x = np.ones((14, 24), dtype=complex)
        x[list(pilots.symbol_indices)] = pilots.values
        y = h * x[..., None]
        est = ls_estimate(y, pilots)
        np.testing.assert_allclose(est, h[[2, 11]], rtol=1e-14)

    def test_pure_noise_variance(self):
        """h = 0: estimate variance equals N0 over 1e5 pilot draws."""
        rng = np.random.default_rng(1)
        n0 = 0.42
        pilots = PilotPattern.make((0,), 100_000, seed=9)
        noise = (rng.standard_normal((1, 100_000, 1)) + 1j * rng.standard_normal((1, 100_000, 1)))
        y = np.sqrt(n0 / 2.0) * noise
        est = ls_estimate(y, pilots)
        measured = np.mean(np.abs(est) ** 2)
        assert abs(measured - n0) / n0 < 0.03

    def test_unit_modulus_division_preserves_error_magnitude(self):
        rng = np.random.default_rng(2)
        pilots = PilotPattern.make((0,), 64, seed=1)
        h = rng.standard_normal((1, 64, 1)) + 1j * rng.standard_normal((1, 64, 1))
        n = rng.standard_normal((1, 64, 1)) + 1j * rng.standard_normal((1, 64, 1))
        y = h * pilots.values[..., None] + n
        est = ls_estimate(y, pilots)
        np.testing.assert_allclose(np.abs(est - h), np.abs(n), rtol=1e-12)

    def test_unbiased_over_many_trials(self):
        rng = np.random.default_rng(3)
        pilots = PilotPattern.make((0,), 100_000, seed=2)
        h = rng.standard_normal((1, 100_000, 1)) + 1j * rng.standard_normal((1, 100_000, 1))
        noise = rng.standard_normal((1, 100_000, 1)) + 1j * rng.standard_normal((1, 100_000, 1))
        y = h * pilots.values[..., None] + np.sqrt(0.5) * noise
        est = ls_estimate(y, pilots)
        bias = np.mean(est - h)
        assert abs(bias.real) < 0.01 and abs(bias.imag) < 0.01


class TestLmmseInterpolate:
    def test_noiseless_flat_channel_exact(self):
        pilots = make_pilots()
        h = (0.8 - 0.3j) * np.ones((14, 24, 2))
        x = np.ones((14, 24), dtype=complex)
        x[list(pilots.symbol_indices)] = pilots.values
        y = h * x[..., None]
        est = lmmse_interpolate(ls_estimate(y, pilots), pilots, 14, SCS,
                                assumed_delay_spread_s=55e-9, n0=1e-12)
        np.testing.assert_allclose(est, h, atol=1e-6)

    def test_large_noise_shrinks_estimates(self):
        rng = np.random.default_rng(4)
        pilots = make_pilots()
        raw = rng.standard_normal((2, 24, 1)) + 1j * rng.standard_normal((2, 24, 1))
        small = lmmse_interpolate(raw, pilots, 14, SCS, 55e-9, n0=1e-6)
        big = lmmse_interpolate(raw, pilots, 14, SCS, 55e-9, n0=1e6)
        assert np.abs(big).max() < 1e-3 * np.abs(small).max()

    def test_static_multitap_noiseless_matched_spread(self):
        """Simulation oracle: static channel, matched assumed spread, tiny noise."""
        profile = TdlProfile.make(60e-9, velocity_mps=0.0)
        pilots = make_pilots()
        mse_rel = []
        for seed in range(5):
            h = generate(profile, 14, 24, 2, SCS, seed=seed)
            x = np.ones((14, 24), dtype=complex)
            x[list(pilots.symbol_indices)] = pilots.values
            y = h * x[..., None]
            est = lmmse_interpolate(ls_estimate(y, pilots), pilots, 14, SCS,
                                    assumed_delay_spread_s=60e-9, n0=1e-12)
            err = np.mean(np.abs(est - h) ** 2) / np.mean(np.abs(h) ** 2)
            mse_rel.append(err)
        assert max(mse_rel) < 1e-3

    def test_wiener_filter_reduces_noise_on_pilot_symbols(self):
        """Under noise with matched statistics the filter must beat raw LS."""
        profile = TdlProfile.make(60e-9, velocity_mps=0.0)
        pilots = make_pilots(f=64)
        n0 = 10.0 ** (-5.0 / 10.0)
        rng = np.random.default_rng(5)
        raw_err = filt_err = 0.0
        for seed in range(30):
            h = generate(profile, 14, 64, 1, SCS, seed=seed)
            x = np.ones((14, 64), dtype=complex)
            x[list(pilots.symbol_indices)] = pilots.values
            noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
            y = h * x[..., None] + np.sqrt(n0 / 2.0) * noise
            ls = ls_estimate(y, pilots)
            est = lmmse_interpolate(ls, pilots, 14, SCS, 60e-9, n0=n0)
            raw_err += np.mean(np.abs(ls - h[[2, 11]]) ** 2)
            filt_err += np.mean(np.abs(est[[2, 11]] - h[[2, 11]]) ** 2)
        assert filt_err < 0.7 * raw_err

    def test_requires_pilots(self):
        pilots = make_pilots()
        with pytest.raises(ValueError):
            lmmse_interpolate(np.zeros((0, 24, 1), dtype=complex), pilots, 14, SCS, 55e-9, 0.1)


class TestMmseEqualize:
    def test_perfect_csi_near_noiseless(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        y = h * x[..., None]
        x_hat, nu = mmse_equalize(y, h, n0=1e-12)
        np.testing.assert_allclose(x_hat, x, atol=1e-6)
        assert (nu > 0).all()

    def test_single_antenna_unit_channel_closed_form(self):
        rng = np.random.default_rng(7)
        y = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))[..., None]
        n0 = 0.25
        x_hat, nu = mmse_equalize(y, np.ones((3, 5, 1), complex), n0)
        np.testing.assert_allclose(x_hat, y[..., 0] / (1.0 + n0), rtol=1e-14)
        np.testing.assert_allclose(nu, np.full((3, 5), n0 / (1.0 + n0)), rtol=1e-14)

    def test_matches_per_re_brute_force(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        n0 = 0.3
        x_hat, nu = mmse_equalize(y, h, n0)
        for t in range(2):
            for f in range(3):
                hv, yv = h[t, f], y[t, f]
                denom = np.vdot(hv, hv).real + n0
                assert x_hat[t, f] == pytest.approx(np.vdot(hv, yv) / denom, rel=1e-12)
                assert nu[t, f] == pytest.approx(n0 / denom, rel=1e-12)

    def test_zero_estimate_emits_max_uncertainty(self):
        y = np.ones((1, 1, 2), dtype=complex)
        x_hat, nu = mmse_equalize(y, np.zeros((1, 1, 2), complex), 0.5)
        assert x_hat[0, 0] == 0.0
        assert np.isinf(nu[0, 0])

    def test_common_phase_invariance(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        y = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        x1, nu1 = mmse_equalize(y, h, 0.2)
        phase = np.exp(1j * 1.234)
        x2, nu2 = mmse_equalize(phase * y, phase * h, 0.2)
        np.testing.assert_allclose(np.abs(x1), np.abs(x2), rtol=1e-12)
        np.testing.assert_allclose(nu1, nu2, rtol=1e-12)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            mmse_equalize(np.zeros((1, 1, 1), complex),
                          np.ones((1, 1, 1), complex), 0.0)


class TestDemappers:
    def test_qpsk_maxlog_equals_exact(self):
        c = Constellation.make(4)
        rng = np.random.default_rng(10)
        nu = np.exp(rng.uniform(np.log(0.02), np.log(2.0), 5000))
        s = c.points[rng.integers(0, 4, 5000)]
        x = s + (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) * np.sqrt(nu / 2)
        np.testing.assert_allclose(maxlog_demap(x, nu, c), exact_demap(x, nu, c), atol=1e-9)

    def test_qpsk_closed_form(self):
        """Label 0 sits on the positive axis, so LLR(bit) = -2 sqrt(2) Re(x)/nu."""
        c = Constellation.make(4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        nu = np.full(2000, 0.31)
        llr = exact_demap(x, nu, c)
        np.testing.assert_allclose(llr[:, 0], -2.0 * np.sqrt(2.0) * x.real / nu, rtol=1e-10)
        np.testing.assert_allclose(llr[:, 1], -2.0 * np.sqrt(2.0) * x.imag / nu, rtol=1e-10)

    def test_zero_input_zero_llrs_where_subsets_are_symmetric(self):
        # QPSK bits and the sign bits of higher QAM split the plane
        # symmetrically about zero; magnitude bits do not.
        llr4 = exact_demap(np.zeros(1, dtype=complex), np.ones(1), Constellation.make(4))
        np.testing.assert_allclose(llr4, 0.0, atol=1e-12)
        for order in (16, 64):
            c = Constellation.make(order)
            llr = exact_demap(np.zeros(1, dtype=complex), np.ones(1), c)
            half = c.bits_per_symbol // 2
            assert llr[0, 0] == pytest.approx(0.0, abs=1e-12)  # I sign bit
            assert llr[0, half] == pytest.approx(0.0, abs=1e-12)  # Q sign bit

    def test_midpoint_gives_zero_maxlog_llr(self):
        c = Constellation.make(4)
        # on the Q axis, equidistant from both I half-planes
        llr = maxlog_demap(np.array([0.0 + 0.7j]), np.array([0.1]), c)
        assert llr[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_16qam_sign_agreement(self):
        """1e5 random points: whenever |exact| > 0.5 the max-log sign matches."""
        c = Constellation.make(16)
        rng = np.random.default_rng(12)
        n = 100_000
        nu = np.exp(rng.uniform(np.log(0.02), np.log(0.5), n))
        s = c.points[rng.integers(0, 16, n)]
        x = s + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(nu / 2)
        ml = maxlog_demap(x, nu, c)
        ex = exact_demap(x, nu, c)
        mask = np.abs(ex) > 0.5
        assert (np.sign(ml[mask]) == np.sign(ex[mask])).all()

    def test_16qam_magnitude_agreement_at_operating_noise(self):
        """Within 15% of exact for |exact| > 2 at post-equalization nu <= 0.15."""
        c = Constellation.make(16)
        rng = np.random.default_rng(13)
        n = 100_000
        nu = np.exp(rng.uniform(np.log(0.02), np.log(0.15), n))
        s = c.points[rng.integers(0, 16, n)]
        x = s + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(nu / 2)
        ml = maxlog_demap(x, nu, c)
        ex = exact_demap(x, nu, c)
        mask = np.abs(ex) > 2.0
        rel = np.abs(ml[mask] - ex[mask]) / np.abs(ex[mask])
        assert rel.max() < 0.15

    def test_demapper_consistency_with_bit_labels(self):
        """Demapping an exact point at tiny nu reproduces the label (positive = 1)."""
        for order in (4, 16, 64):
            c = Constellation.make(order)
            labels = np.arange(order)
            llr = maxlog_demap(c.points, np.full(order, 1e-6), c)
            decided = (llr > 0).astype(int)
            np.testing.assert_array_equal(decided, c.labels_to_bits(labels))

    def test_agreement_at_high_snr(self):
        c = Constellation.make(64)
        rng = np.random.default_rng(14)
        s = c.points[rng.integers(0, 64, 1000)]
        x = s + (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)) * np.sqrt(0.001 / 2)
        np.testing.assert_allclose(maxlog_demap(x, 0.001, c), exact_demap(x, 0.001, c),
                                   rtol=1e-6, atol=1e-9)

    def test_rejects_nonpositive_variance(self):
        c = Constellation.make(4)
        with pytest.raises(ValueError):
            maxlog_demap(np.zeros(1, complex), np.zeros(1), c)
        with pytest.raises(ValueError):
            exact_demap(np.zeros(1, complex), np.array([-1.0]), c)


class TestPerfectCsi:
    def test_noiseless_hard_decisions_recover_bits(self):
        cfg = LinkConfig(t=14, f=24, n_rx=2, order=16)
        pilots = cfg.pilots()
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        h = rng.standard_normal((14, 24, 2)) + 1j * rng.standard_normal((14, 24, 2))
        y = h * x[..., None]
        llr = perfect_csi_receive(y, h, 1e-9, cfg.constellation())
        hard = (llr > 0).astype(int)
        np.testing.assert_array_equal(grid_to_bits(hard, pilots.mask(14, 24)), bits)

    def test_llr_magnitude_decreases_with_noise(self):
        c = Constellation.make(4)
        x_hat = np.full((1, 1), 0.4 + 0.2j)
        mags = []
        for nu in (0.05, 0.2, 0.8):
            mags.append(np.abs(maxlog_demap(x_hat, np.full((1, 1), nu), c)).sum())
        assert mags[0] > mags[1] > mags[2]

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(16)
        c = Constellation.make(4)
        h = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        y = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        llr = perfect_csi_receive(y, h, 0.2, c)
        x_hat, nu = mmse_equalize(y, h, 0.2)
        np.testing.assert_allclose(llr, maxlog_demap(x_hat, nu, c), rtol=1e-14)


class TestFullChain:
    def test_lmmse_receive_recovers_bits_on_clean_flat_channel(self):
        cfg = LinkConfig(t=14, f=24, n_rx=1, order=4)
        pilots = cfg.pilots()
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        h = (0.9 + 0.4j) * np.ones((14, 24, 1))
        n0 = 1e-6
        y = h * x[..., None]
        llr = lmmse_receive(y, pilots, cfg.constellation(), n0, SCS, 55e-9)
        hard = (llr > 0).astype(int)
        np.testing.assert_array_equal(grid_to_bits(hard, pilots.mask(14, 24)), bits)
