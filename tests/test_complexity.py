"""FLOP formulas, the exact reduction-factor identity, instrumented counts."""

from fractions import Fraction

import numpy as np
import pytest

from axialrx.complexity import (
    analytic_layer_flops,
    attn_flops_axial,
    attn_flops_global,
    model_report,
    reduction_factor,
    render_report,
)
from axialrx.layers import ReceiverConfig


class TestFormulas:
    def test_global_reference_values(self):
        assert attn_flops_global(1, 1, 8) == 32
        assert attn_flops_global(2, 2, 4) == 256
        assert attn_flops_global(14, 128, 128) == 1_644_167_168

    def test_axial_reference_values(self):
        assert attn_flops_axial(1, 1, 8) == 64  # two degenerate axis passes
        assert attn_flops_axial(4, 8, 2) == 3_072
        # 4*T*F*D*(T+F); the exact-ratio identity pins this value
        assert attn_flops_axial(14, 128, 128) == 130_285_568

    def test_reduction_reference_values(self):
        assert reduction_factor(14, 128) == pytest.approx(12.6197183, abs=1e-6)
        assert f"{reduction_factor(14, 128):.2f}" == "12.62"
        assert reduction_factor(6, 6) == pytest.approx(3.0)
        assert reduction_factor(4, 8) == pytest.approx(32.0 / 12.0)
        assert f"{reduction_factor(14, 24):.2f}" == "8.84"

    def test_ratio_identity_exact_over_grid(self):
        """global/axial == TF/(T+F) exactly, as rationals, on the full grid."""
        for t in range(2, 17):
            for f in range(2, 129):
                for d in (8, 32, 128):
                    lhs = Fraction(attn_flops_global(t, f, d), attn_flops_axial(t, f, d))
                    assert lhs == Fraction(t * f, t + f)

    def test_reduction_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t, f = rng.integers(2, 64, size=2)
            assert reduction_factor(t, f) == reduction_factor(f, t)
        for f in (2, 7, 33):
            values = [reduction_factor(t, f) for t in range(2, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))
        for t in (2, 9, 21):
            values = [reduction_factor(t, f) for f in range(2, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))


def small_cfg(variant, **kw):
    base = dict(variant=variant, t=5, f=6, n_rx=2, d=8, heads=2, n_blocks=2,
                bits_per_symbol=2, resnet_units=2, resnet_channels=6)
    base.update(kw)
    return ReceiverConfig(**base)


class TestModelReport:
    @pytest.mark.parametrize("variant", ["axial", "global", "cnn-resnet"])
    def test_counted_equals_analytic_per_layer(self, variant):
        cfg = small_cfg(variant)
        report = model_report(cfg, seed=0, instrumented=True)
        assert report.counted_layers == report.analytic_layers
        assert report.counted_total == report.analytic_total

    @pytest.mark.parametrize("variant", ["axial", "global"])
    def test_counted_equals_analytic_with_unit_head_dim(self, variant):
        # 1/sqrt(d_h) = 1 must still be charged as a scale
        report = model_report(small_cfg(variant, heads=8), seed=0, instrumented=True)
        assert report.counted_layers == report.analytic_layers

    def test_instrumented_attention_matches_formula_random_configs(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            t = int(rng.integers(2, 7))
            f = int(rng.integers(2, 9))
            heads = int(rng.choice([1, 2, 4]))
            d = int(heads * rng.integers(2, 5))
            blocks = int(rng.integers(1, 3))
            axial = model_report(small_cfg("axial", t=t, f=f, d=d, heads=heads,
                                           n_blocks=blocks))
            assert axial.attention_counted == blocks * attn_flops_axial(t, f, d)
            glob = model_report(small_cfg("global", t=t, f=f, d=d, heads=heads,
                                          n_blocks=blocks))
            assert glob.attention_counted == blocks * attn_flops_global(t, f, d)

    def test_counted_equals_analytic_at_paper_dims(self):
        report = model_report(ReceiverConfig(variant="axial"), instrumented=True)
        assert report.counted_layers == report.analytic_layers
        assert report.attention_counted == report.attention_analytic
        assert report.attention_counted == 6 * attn_flops_axial(14, 128, 128)

    def test_attention_subtotal_ratio_at_paper_dims(self):
        axial = analytic_layer_flops(ReceiverConfig(variant="axial"))
        glob = analytic_layer_flops(ReceiverConfig(variant="global"))
        a = sum(v for k, v in axial.items() if k.endswith("#core"))
        g = sum(v for k, v in glob.items() if k.endswith("#core"))
        assert g / a == pytest.approx(reduction_factor(14, 128), rel=1e-3)

    def test_attention_projection_parameter_doubling(self):
        axial = model_report(ReceiverConfig(variant="axial", t=4, f=4, d=32, heads=4,
                                            n_blocks=1, n_rx=1, bits_per_symbol=2),
                             instrumented=False)
        glob = model_report(ReceiverConfig(variant="global", t=4, f=4, d=32, heads=4,
                                           n_blocks=1, n_rx=1, bits_per_symbol=2),
                            instrumented=False)
        assert axial.attention_projection_params_per_block == \
            2 * glob.attention_projection_params_per_block

    def test_total_flop_ordering_at_paper_dims(self):
        """axial < global < cnn-resnet with default configurations."""
        totals = {}
        for variant in ("axial", "global", "cnn-resnet"):
            report = model_report(ReceiverConfig(variant=variant), instrumented=False)
            totals[variant] = report.analytic_total
        assert totals["axial"] < totals["global"] < totals["cnn-resnet"]

    def test_parameter_ratio_reported(self):
        axial = model_report(ReceiverConfig(variant="axial"), instrumented=False)
        glob = model_report(ReceiverConfig(variant="global"), instrumented=False)
        resnet = model_report(ReceiverConfig(variant="cnn-resnet"), instrumented=False)
        ratio = axial.params_total / glob.params_total
        assert 1.2 < ratio < 1.6  # axial carries the duplicated projections
        assert axial.params_total < resnet.params_total

    def test_render_contains_totals_and_reduction(self):
        report = model_report(small_cfg("axial"), instrumented=True)
        text = render_report(report)
        assert "total" in text and "attention subtotal" in text
        assert f"{report.reduction:.2f}" in text
