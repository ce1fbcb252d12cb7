"""Transmit chain: constellations, grids, channel application, SNR mapping."""

import numpy as np
import pytest

from axialrx.phy import (
    Constellation,
    LinkConfig,
    PilotPattern,
    apply_channel,
    bits_to_grid,
    build_grid,
    grid_to_bits,
    make_grid,
    map_bits,
    snr_to_n0,
    stack_grids,
)


class ZeroNoiseRng:
    """Stands in for a Generator to inject exactly zero noise."""

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape)


def desk_cfg(**overrides) -> LinkConfig:
    base = dict(t=14, f=24, n_rx=1, order=4)
    base.update(overrides)
    return LinkConfig(**base)


class TestConstellation:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        c = Constellation.make(order)
        # normalization constant is exactly right on the integer lattice
        m_axis = 1 << (c.bits_per_symbol // 2)
        norm = 2.0 * (m_axis * m_axis - 1) / 3.0
        lattice = c.points * np.sqrt(norm)
        assert np.mean(np.abs(np.round(lattice.real)) ** 2 + np.abs(np.round(lattice.imag)) ** 2) == norm
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        """Adjacent points along each axis differ in exactly one label bit."""
        c = Constellation.make(order)
        half = c.bits_per_symbol // 2
        m_axis = 1 << half
        amps = np.unique(c.points.real)[::-1]  # descending = geometric order
        by_point = {(round(p.real, 9), round(p.imag, 9)): lab for lab, p in enumerate(c.points)}
        for other in amps:
            for pos in range(m_axis - 1):
                hi, lo = round(amps[pos], 9), round(amps[pos + 1], 9)
                along_i = by_point[(hi, round(other, 9))] ^ by_point[(lo, round(other, 9))]
                along_q = by_point[(round(other, 9), hi)] ^ by_point[(round(other, 9), lo)]
                assert bin(along_i).count("1") == 1
                assert bin(along_q).count("1") == 1

    def test_qpsk_points_and_labels(self):
        c = Constellation.make(4)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(c.points[0], s + 1j * s)  # 00
        np.testing.assert_allclose(c.points[1], s - 1j * s)  # 01
        np.testing.assert_allclose(c.points[3], -s - 1j * s)  # 11
        np.testing.assert_allclose(c.points[2], -s + 1j * s)  # 10

    def test_qam64_all_zero_label_is_positive_corner(self):
        c = Constellation.make(64)
        np.testing.assert_allclose(c.points[0], (7.0 + 7.0j) / np.sqrt(42.0))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            Constellation.make(8)


class TestMapBits:
    def test_qpsk_gray_mapping(self):
        c = Constellation.make(4)
        out = map_bits(np.array([0, 0, 0, 1, 1, 1, 1, 0]), c)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out, [s + 1j * s, s - 1j * s, -s - 1j * s, -s + 1j * s])

    def test_all_zero_bits_64qam(self):
        c = Constellation.make(64)
        out = map_bits(np.zeros(6, dtype=int), c)
        np.testing.assert_allclose(out, [(7.0 + 7.0j) / np.sqrt(42.0)])

    def test_length_violation(self):
        with pytest.raises(ValueError):
            map_bits(np.zeros(5, dtype=int), Constellation.make(4))


class TestGridBuild:
    def test_data_re_count(self):
        cfg = desk_cfg()
        pilots = cfg.pilots()
        assert cfg.n_data_re == 12 * 24
        assert pilots.mask(cfg.t, cfg.f).sum() == 2 * cfg.f

    def test_pilot_positions_and_values(self):
        cfg = desk_cfg()
        pilots = cfg.pilots()
        bits = np.random.default_rng(0).integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        np.testing.assert_array_equal(x[2], pilots.values[0])
        np.testing.assert_array_equal(x[11], pilots.values[1])
        np.testing.assert_allclose(np.abs(pilots.values), 1.0)

    def test_round_trip_data_symbols(self):
        cfg = desk_cfg()
        pilots = cfg.pilots()
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        recovered = x[~pilots.mask(cfg.t, cfg.f)]
        np.testing.assert_array_equal(recovered, map_bits(bits, cfg.constellation()))

    def test_data_symbols_in_constellation(self):
        cfg = desk_cfg(order=16)
        pilots = cfg.pilots()
        bits = np.random.default_rng(2).integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        data = x[~pilots.mask(cfg.t, cfg.f)]
        points = cfg.constellation().points
        dist = np.abs(data[:, None] - points[None, :]).min(axis=1)
        assert dist.max() < 1e-12

    def test_bits_grid_round_trip(self):
        cfg = desk_cfg()
        mask = cfg.pilots().mask(cfg.t, cfg.f)
        bits = np.random.default_rng(3).integers(0, 2, cfg.n_coded_bits)
        grid = bits_to_grid(bits, mask, cfg.bits_per_symbol)
        np.testing.assert_array_equal(grid_to_bits(grid, mask), bits.astype(float))
        assert grid[mask].sum() == 0

    def test_demap_with_perfect_knowledge_recovers_bits(self):
        cfg = desk_cfg(order=64)
        pilots = cfg.pilots()
        c = cfg.constellation()
        bits = np.random.default_rng(4).integers(0, 2, cfg.n_coded_bits)
        x = build_grid(bits, pilots, cfg)
        data = x[~pilots.mask(cfg.t, cfg.f)]
        labels = np.abs(data[:, None] - c.points[None, :]).argmin(axis=1)
        np.testing.assert_array_equal(c.labels_to_bits(labels).reshape(-1), bits)


class TestApplyChannel:
    def test_zero_noise_limit(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
        y = apply_channel(x, h, 1e-300, ZeroNoiseRng())
        np.testing.assert_array_equal(y, h * x[..., None])

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        h = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        one = apply_channel(x, h, 1e-300, ZeroNoiseRng())
        two = apply_channel(2.0 * x, h, 1e-300, ZeroNoiseRng())
        np.testing.assert_allclose(two, 2.0 * one)

    def test_noise_variance_monte_carlo(self):
        n0 = 0.37
        rng = np.random.default_rng(7)
        x = np.zeros((100, 100))
        h = np.ones((100, 100, 10), dtype=complex)
        y = apply_channel(x, h, n0, rng)  # 1e5 pure-noise samples
        measured = np.mean(np.abs(y) ** 2)
        assert abs(measured - n0) / n0 < 0.03

    def test_noise_whiteness_across_antennas(self):
        rng = np.random.default_rng(8)
        y = apply_channel(np.zeros((250, 200)), np.ones((250, 200, 2), dtype=complex), 1.0, rng)
        a, b = y[..., 0].ravel(), y[..., 1].ravel()
        corr = np.abs(np.mean(a * np.conj(b))) / np.sqrt(np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
        assert corr < 0.02

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            apply_channel(np.zeros((2, 2)), np.ones((2, 2, 1), dtype=complex), 0.0,
                          np.random.default_rng(0))


class TestSnr:
    def test_reference_points(self):
        assert snr_to_n0(0.0) == 1.0
        assert snr_to_n0(10.0) == pytest.approx(0.1, rel=1e-15)
        assert snr_to_n0(3.0) == pytest.approx(0.5011872336272722, rel=1e-12)


class TestMakeGrid:
    def test_assembles_consistent_bundle(self):
        cfg = desk_cfg()
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, cfg.n_coded_bits)
        h = np.ones((cfg.t, cfg.f, cfg.n_rx), dtype=complex)
        grid = make_grid(bits, cfg, h, snr_to_n0(30.0), rng)
        assert grid.y.shape == (cfg.t, cfg.f, cfg.n_rx)
        assert grid.pilot_mask.sum() == 2 * cfg.f
        np.testing.assert_array_equal(grid_to_bits(grid.bits, grid.pilot_mask), bits.astype(float))
        assert grid.n0 == snr_to_n0(30.0)

    def test_pilot_index_validation(self):
        pilots = PilotPattern.make((2, 20), 8, seed=0)
        with pytest.raises(ValueError):
            pilots.mask(14, 8)


class TestStackGrids:
    def grids(self, n0s):
        cfg = desk_cfg(n_rx=2)
        rng = np.random.default_rng(10)
        out = []
        for n0 in n0s:
            h = rng.standard_normal((cfg.t, cfg.f, cfg.n_rx)) + 0j
            out.append(make_grid(rng.integers(0, 2, cfg.n_coded_bits), cfg, h, n0, rng))
        return out

    def test_stack_slices_back_and_gathers_per_block(self):
        grids = self.grids([0.5] * 3)
        stack = stack_grids(grids)
        assert stack.y.shape == (3, 14, 24, 2) and stack.bits.shape == (3, 14, 24, 2)
        assert stack.pilot_mask.shape == (14, 24) and stack.n0 == 0.5
        flat = grid_to_bits(stack.bits, stack.pilot_mask)
        assert flat.shape == (3, 2 * 12 * 24)
        for b, grid in enumerate(grids):
            np.testing.assert_array_equal(stack[b].y, grid.y)
            np.testing.assert_array_equal(flat[b], grid_to_bits(grid.bits, grid.pilot_mask))
        assert stack[1:3].y.shape == (2, 14, 24, 2)

    def test_rejects_mixed_noise_power(self):
        with pytest.raises(ValueError, match="noise power"):
            stack_grids(self.grids([0.5, 0.25]))
