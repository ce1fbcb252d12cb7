"""FLOP and parameter accounting for the receiver architectures.

Counting convention (shared with the instrumented counter in the tensor
ops): one multiply plus one accumulate is 2 FLOPs, so a matrix product
(m, k) @ (k, n) costs 2mkn and a same-padded conv costs
T*F*C_out*(2*k^2*C_in + 1) including the bias add. Elementwise ops cost
one FLOP per output element, softmax four, layer norm eight.
Data movement (reshape, transpose, chunk views) is free.

The "attention core" is only the two products Q K^T and A V; the 1/sqrt(d_h)
scaling, softmax, and projections are accounted separately. The scaling
runs inside the fused operator (`layers.attend`), which still charges it
one FLOP per score, so the softmax stage costs five FLOPs per score (the
5*H*L*L terms below). Under that convention the core cost is
exactly 4*(TF)^2*D for global attention and 4*T*F*D*(T+F) for one axial
block, so their ratio is exactly TF/(T+F).

`layers.attend` runs the core in cache-sized chunks (groups of whole
sequences with all their heads, or blocks of query rows of one head).
Chunking moves no FLOP: each chunk charges its two products
(`layers.bmm`) to the `<block>#core` bucket and its softmax to the
enclosing block, and the chunks partition the score matrix, so the
instrumented counts equal these formulas unchanged. Backward recomputes
the scores and charges nothing.

Table-level GFLOP/parameter values published for these architectures are
not reproducible without the unpublished hyperparameters; orderings and
ratios are the verifiable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flopcount import FlopCounter
from .layers import Receiver, ReceiverConfig, attention_projection_params


def attn_flops_global(t: int, f: int, d: int) -> int:
    """Score and weighted-sum MACs of one global attention pass."""
    n = t * f
    return 4 * n * n * d


def attn_flops_axial(t: int, f: int, d: int) -> int:
    """Score and weighted-sum MACs of one time-axis plus one frequency-axis pass."""
    return 4 * t * f * d * (t + f)


def reduction_factor(t: int, f: int) -> float:
    """Global-to-axial attention cost ratio: TF / (T + F)."""
    return (t * f) / (t + f)


def _transformer_block_layers(cfg: ReceiverConfig, prefix: str) -> dict[str, int]:
    t, f, d, h = cfg.t, cfg.f, cfg.d, cfg.heads
    hidden = cfg.ffn_hidden
    tf = t * f
    ffn = 8 * tf * d + 2 * tf * d * hidden + 2 * tf * hidden + 2 * tf * hidden * d + 2 * tf * d
    if cfg.variant == "axial":
        time_side = 8 * tf * d + 6 * tf * d * d + 5 * f * h * t * t + 2 * tf * d * d + tf * d
        freq_side = 8 * tf * d + 6 * tf * d * d + 5 * t * h * f * f + 2 * tf * d * d + tf * d
        core = attn_flops_axial(t, f, d)
        total = time_side + freq_side + ffn
    else:
        attn_side = 8 * tf * d + 6 * tf * d * d + 5 * h * tf * tf + 2 * tf * d * d + tf * d
        core = attn_flops_global(t, f, d)
        total = attn_side + ffn
    return {prefix: total, f"{prefix}#core": core}


def _resnet_unit_layers(cfg: ReceiverConfig, prefix: str) -> dict[str, int]:
    t, f, w = cfg.t, cfg.f, cfg.resnet_channels
    conv = t * f * w * (2 * 9 * w + 1)
    return {prefix: 8 * t * f * w + 2 * conv + 2 * t * f * w}


def analytic_layer_flops(cfg: ReceiverConfig) -> dict[str, int]:
    """Per-layer forward FLOPs under the shared counting convention.

    Attention cores appear as separate "<block>#core" entries; a block's
    total is its entry plus its core entries.
    """
    t, f = cfg.t, cfg.f
    c_in = cfg.input_channels
    width = cfg.width
    layers: dict[str, int] = {
        "input_conv": t * f * width * (2 * cfg.kernel * cfg.kernel * c_in + 1)
    }
    if cfg.variant == "cnn-resnet":
        for i in range(cfg.resnet_units):
            layers.update(_resnet_unit_layers(cfg, f"block{i:02d}"))
    else:
        layers["pos"] = t * f * cfg.d
        for i in range(cfg.n_blocks):
            layers.update(_transformer_block_layers(cfg, f"block{i:02d}"))
    layers["output_conv"] = t * f * cfg.bits_per_symbol * (2 * width + 1)
    return layers


@dataclass
class FlopsReport:
    variant: str
    t: int
    f: int
    analytic_layers: dict[str, int]
    analytic_total: int
    attention_analytic: int
    params_total: int
    attention_projection_params_per_block: int
    reduction: float
    counted_layers: dict[str, int] | None = None
    counted_total: int | None = None
    attention_counted: int | None = None


class _ZeroGrid:
    def __init__(self, t, f, n_rx):
        self.y = np.zeros((t, f, n_rx), dtype=complex)
        self.n0 = 1.0


def model_report(cfg: ReceiverConfig, instrumented: bool = True,
                 model: Receiver | None = None) -> FlopsReport:
    """Analytic layer table plus, optionally, an instrumented forward count.

    Counts and parameter totals depend only on shapes, so the model built
    when none is given keeps `Receiver`'s default seed.
    """
    analytic = analytic_layer_flops(cfg)
    attention_analytic = sum(v for k, v in analytic.items() if k.endswith("#core"))
    model = model if model is not None else Receiver(cfg)
    proj = attention_projection_params(cfg.variant, cfg.d) if cfg.variant != "cnn-resnet" else 0
    report = FlopsReport(
        variant=cfg.variant,
        t=cfg.t,
        f=cfg.f,
        analytic_layers=analytic,
        analytic_total=sum(analytic.values()),
        attention_analytic=attention_analytic,
        params_total=model.parameter_count(),
        attention_projection_params_per_block=proj,
        reduction=reduction_factor(cfg.t, cfg.f),
    )
    if instrumented:
        with FlopCounter() as counter:
            model.forward(_ZeroGrid(cfg.t, cfg.f, cfg.n_rx))
        report.counted_layers = counter.buckets
        report.counted_total = counter.total
        report.attention_counted = sum(
            v for k, v in counter.buckets.items() if k.endswith("#core"))
    return report


def render_report(report: FlopsReport) -> str:
    """Human-readable table: one row per layer, analytic and counted columns."""
    lines = [
        f"variant={report.variant} T={report.t} F={report.f} "
        f"params={report.params_total} reduction_factor={report.reduction:.2f}",
        f"{'layer':<24}{'analytic':>16}{'counted':>16}",
    ]
    counted = report.counted_layers or {}
    for name in sorted(report.analytic_layers):
        counted_str = str(counted[name]) if name in counted else "-"
        lines.append(f"{name:<24}{report.analytic_layers[name]:>16}{counted_str:>16}")
    counted_total = report.counted_total if report.counted_total is not None else "-"
    lines.append(f"{'total':<24}{report.analytic_total:>16}{counted_total:>16}")
    lines.append(f"{'attention subtotal':<24}{report.attention_analytic:>16}"
                 f"{report.attention_counted if report.attention_counted is not None else '-':>16}")
    return "\n".join(lines)


def report_csv_rows(report: FlopsReport) -> list[tuple]:
    """(variant, layer, analytic, counted) rows for CSV output."""
    counted = report.counted_layers or {}
    rows = [(report.variant, name, report.analytic_layers[name], counted.get(name, ""))
            for name in sorted(report.analytic_layers)]
    rows.append((report.variant, "total", report.analytic_total,
                 report.counted_total if report.counted_total is not None else ""))
    rows.append((report.variant, "attention_subtotal", report.attention_analytic,
                 report.attention_counted if report.attention_counted is not None else ""))
    rows.append((report.variant, "params_total", report.params_total, ""))
    return rows
