"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass/fail line
per criterion. The training smoke and the monotonicity sweep dominate the
runtime (several minutes on one CPU core); everything else is seconds.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from axialrx import ldpc as ldpc_mod
from axialrx import phy
from axialrx.autodiff import Tensor, mean_all
from axialrx.baseline import exact_demap, ls_estimate, maxlog_demap, perfect_csi_receive
from axialrx.complexity import attn_flops_axial, attn_flops_global, model_report, reduction_factor
from axialrx.layers import (
    AttentionWeights,
    Receiver,
    ReceiverConfig,
    attention_projection_params,
    axial_freq_attention,
    axial_time_attention,
    global_mhsa,
)
from axialrx.phy import Constellation, LinkConfig, PilotPattern
from axialrx.trainer import (
    EvalConfig,
    LinkSimulator,
    TrainConfig,
    evaluate,
    lmmse_receiver,
    monotonicity_violations,
    neural_receiver,
    perfect_csi_receiver,
    train,
)
from helpers import gradcheck, rand_tensor

DESK_LINK = LinkConfig(t=14, f=24, n_rx=1, order=4, pilot_seed=7)
STATIC_FLAT_DESK_LINK = replace(DESK_LINK, velocity_mps=(0.0, 0.0), delay_spread_s=(0.0, 0.0))


def report(criterion: str) -> None:
    print(f"[PASS] {criterion}")


@pytest.fixture(scope="module")
def desk_sim():
    return LinkSimulator(DESK_LINK)


@pytest.fixture(scope="module")
def trained_desk_model(desk_sim):
    """The 500-step training smoke; shared by the criteria that need it.

    The (init seed, data seed) pair matches the desk preset; it was
    validated during development to escape the all-zero-LLR plateau well
    inside the step budget.
    """
    cfg = ReceiverConfig(variant="axial", t=14, f=24, n_rx=1, d=32, heads=4,
                         n_blocks=2, bits_per_symbol=2)
    model = Receiver(cfg, seed=2)
    start = time.monotonic()
    result = train(model, desk_sim, TrainConfig(steps=500, batch_size=8, seed=1,
                                                learning_rate=5e-3))
    elapsed = time.monotonic() - start
    return model, result, elapsed


def static_flat_bler(receivers, n_blocks=400, snr_db=12.0):
    sim = LinkSimulator(STATIC_FLAT_DESK_LINK)
    code = sim.code
    errors = {name: 0 for name in receivers}
    for i in range(n_blocks):
        grid, info, meta = sim.sample((123, 55, 0, i), snr_db=snr_db)
        for name, fn in receivers.items():
            llrs = phy.grid_to_bits(fn(grid, meta), grid.pilot_mask)
            decoded = ldpc_mod.decode(code, llrs)
            errors[name] += bool((decoded.bits[code.info_cols] != info).any())
    return {name: count / n_blocks for name, count in errors.items()}


def test_criterion_1_reduction_factor_identity():
    """attn_flops_global / attn_flops_axial == TF/(T+F) exactly on the grid."""
    for t in range(2, 17):
        for f in range(2, 129):
            for d in (8, 32, 128):
                assert Fraction(attn_flops_global(t, f, d), attn_flops_axial(t, f, d)) \
                    == Fraction(t * f, t + f)
    assert f"{reduction_factor(14, 128):.2f}" == "12.62"
    report("reduction-factor identity exact on {2..16}x{2..128}x{8,32,128}; "
           "T=14,F=128 prints 12.62")


def test_criterion_2_degenerate_equivalence():
    """Axial equals global on single-column / single-row grids, 20 seeds."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for seed in range(20):
        d = int(rng.choice([8, 32]))
        heads = int(rng.choice([1, 2, 4]))
        length = int(rng.integers(2, 33))
        w = AttentionWeights(d, heads, np.random.default_rng(seed))
        x_col = Tensor(rng.standard_normal((length, 1, d)))
        worst = max(worst, np.abs(axial_time_attention(x_col, w).data
                                  - global_mhsa(x_col, w).data).max())
        x_row = Tensor(rng.standard_normal((1, length, d)))
        worst = max(worst, np.abs(axial_freq_attention(x_row, w).data
                                  - global_mhsa(x_row, w).data).max())
    assert worst < 1e-10
    report(f"degenerate axial/global equivalence over 20 seeds (max diff {worst:.1e})")


def test_criterion_3_gradient_soundness():
    """Finite-difference checks on every layer and the full 1-block receiver."""
    import axialrx.autodiff as ad

    rng = np.random.default_rng(1)
    a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 3))
    gradcheck(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])
    x = rand_tensor(rng, (3, 5))
    m = rand_tensor(rng, (3, 5))
    gradcheck(lambda: ad.sum_all(ad.softmax(x, axis=1) * m), [x])
    g = Tensor(rng.standard_normal(5) + 1.0, requires_grad=True)
    beta = rand_tensor(rng, (5,))
    gradcheck(lambda: ad.sum_all(ad.layer_norm(x, g, beta) * m), [x, g, beta])
    cx = rand_tensor(rng, (3, 4, 2))
    cw = rand_tensor(rng, (3, 3, 2, 2), scale=0.5)
    cb = rand_tensor(rng, (2,))
    gradcheck(lambda: ad.sum_all(ad.conv2d(cx, cw, cb) * ad.conv2d(cx, cw, cb)), [cx, cw, cb])
    q = rand_tensor(rng, (2, 3, 4))
    k = rand_tensor(rng, (2, 4, 3))
    gradcheck(lambda: ad.sum_all(ad.bmm(q, k) * ad.bmm(q, k)), [q, k])

    for variant in ("axial", "global"):
        cfg = ReceiverConfig(variant=variant, t=4, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                             bits_per_symbol=2)
        model = Receiver(cfg, seed=2)
        model.output_conv.w.data = rng.standard_normal(model.output_conv.w.shape) * 0.5
        model.output_conv.b.data = rng.standard_normal(model.output_conv.b.shape) * 0.1

        class Grid:
            y = rng.standard_normal((4, 4, 1)) + 1j * rng.standard_normal((4, 4, 1))
            n0 = 0.5

        leaves = list(model.named_parameters().values())
        gradcheck(lambda: mean_all(model(Grid())), leaves)
    report("gradient soundness: layers and 1-block receivers pass rel < 1e-4")


def test_criterion_4_attention_parameter_doubling():
    for d in (8, 32, 128):
        assert attention_projection_params("axial", d) == \
            2 * attention_projection_params("global", d)
    axial = model_report(ReceiverConfig(variant="axial"), instrumented=False)
    glob = model_report(ReceiverConfig(variant="global"), instrumented=False)
    ratio = axial.params_total / glob.params_total
    report(f"attention-projection params double (axial/global total ratio {ratio:.2f}; "
           "published reference 1,600,902/1,196,898 = 1.34, non-binding)")


def test_criterion_5_flop_ordering_at_paper_dims():
    totals = {variant: model_report(ReceiverConfig(variant=variant),
                                    instrumented=False).analytic_total
              for variant in ("axial", "global", "cnn-resnet")}
    assert totals["axial"] < totals["global"] < totals["cnn-resnet"]
    gflops = {k: v / 1e9 for k, v in totals.items()}
    report("total-FLOP ordering axial < global < cnn-resnet at T=14,F=128,D=128 "
           f"({gflops['axial']:.2f} < {gflops['global']:.2f} < {gflops['cnn-resnet']:.2f} "
           "GFLOPs; published 3.34 < 9.40 < 11.81 non-binding)")


def test_criterion_6_demapper_oracle():
    rng = np.random.default_rng(2)
    qpsk = Constellation.make(4)
    nu = np.exp(rng.uniform(np.log(0.02), np.log(2.0), 10_000))
    x = qpsk.points[rng.integers(0, 4, 10_000)] + \
        (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)) * np.sqrt(nu / 2)
    gap = np.abs(maxlog_demap(x, nu, qpsk) - exact_demap(x, nu, qpsk)).max()
    assert gap < 1e-9

    qam = Constellation.make(16)
    n = 100_000
    nu16 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), n))
    x16 = qam.points[rng.integers(0, 16, n)] + \
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(nu16 / 2)
    ml = maxlog_demap(x16, nu16, qam)
    ex = exact_demap(x16, nu16, qam)
    mask = np.abs(ex) > 0.5
    assert (np.sign(ml[mask]) == np.sign(ex[mask])).all()
    report(f"demapper oracle: QPSK max-log == exact (gap {gap:.1e}); 16-QAM sign "
           f"agreement on all {int(mask.sum())} LLRs with |exact| > 0.5 from 1e5 points")


def test_criterion_7_classical_chain_sanity(desk_sim):
    # noiseless LS recovers h exactly at pilot positions
    rng = np.random.default_rng(3)
    pilots = PilotPattern.make((2, 11), 24, seed=7)
    h = rng.standard_normal((14, 24, 1)) + 1j * rng.standard_normal((14, 24, 1))
    x = np.ones((14, 24), dtype=complex)
    x[[2, 11]] = pilots.values
    est = ls_estimate(h * x[..., None], pilots)
    np.testing.assert_allclose(est, h[[2, 11]], rtol=1e-13)

    # perfect-CSI at 20 dB over a unit channel: zero block errors in 1000 blocks
    code = desk_sim.code
    constellation = DESK_LINK.constellation()
    n0 = phy.snr_to_n0(20.0)
    h_unit = np.ones((14, 24, 1), dtype=complex)
    errors = 0
    for i in range(1000):
        block_rng = np.random.default_rng(np.random.SeedSequence([77, i]))
        info = block_rng.integers(0, 2, code.k).astype(np.uint8)
        grid = phy.make_grid(ldpc_mod.encode(code, info), DESK_LINK, h_unit, n0, block_rng)
        llr = perfect_csi_receive(grid.y, h_unit, n0, constellation)
        decoded = ldpc_mod.decode(code, phy.grid_to_bits(llr, grid.pilot_mask))
        errors += bool((decoded.bits[code.info_cols] != info).any())
    assert errors == 0

    # the n=48 code corrects every single-bit flip
    code48 = ldpc_mod.construct(48, seed=5)
    c = ldpc_mod.encode(code48, np.random.default_rng(4).integers(0, 2, code48.k))
    base = np.where(c == 1, 20.0, -20.0)
    for position in range(48):
        llr = base.copy()
        llr[position] = -llr[position]
        result = ldpc_mod.decode(code48, llr)
        assert result.converged and (result.bits == c).all()
    report("classical chain: LS exact, perfect-CSI BLER 0/1000 at 20 dB, "
           "all 48 single-bit flips corrected")


def test_criterion_8_training_smoke(trained_desk_model):
    model, result, elapsed = trained_desk_model
    assert elapsed < 15 * 60, f"training took {elapsed/60:.1f} min"
    losses = [row[1] for row in result.trace]
    first50 = float(np.mean(losses[:50]))
    last50 = float(np.mean(losses[-50:]))
    assert last50 < 0.9 * first50, f"loss {first50:.4f} -> {last50:.4f}"

    # LS-LMMSE assumes the delay spread of the link it is built for
    receivers = {"axial": neural_receiver(model), "ls-lmmse": lmmse_receiver(DESK_LINK)}
    blers = static_flat_bler(receivers)
    assert blers["axial"] < 1.0
    assert blers["axial"] <= 5.0 * blers["ls-lmmse"], f"{blers}"
    report(f"training smoke: loss {first50:.3f} -> {last50:.3f} "
           f"({100 * (1 - last50 / first50):.0f}% drop) in {elapsed/60:.1f} min; "
           f"BLER@12dB flat {blers['axial']:.3f} vs LS-LMMSE {blers['ls-lmmse']:.3f}")


def test_criterion_9_determinism(tmp_path):
    from axialrx.cli import main

    config = tmp_path / "tiny.ini"
    config.write_text(
        "[link]\nsubcarriers = 8\n\n[model]\nembedding_dim = 8\nheads = 2\nblocks = 1\n\n"
        "[train]\nsteps = 15\nbatch_size = 2\n\n"
        "[eval]\nsnr_points_db = 6,12\nmax_blocks = 24\ntarget_errors = 100\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"train_{name}"
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--seed", "17"]) == 0
        outs.append(out)
    assert (outs[0] / "checkpoint.axrx").read_bytes() == (outs[1] / "checkpoint.axrx").read_bytes()
    assert (outs[0] / "loss_trace.csv").read_text() == (outs[1] / "loss_trace.csv").read_text()

    evals = []
    for name, threads in (("e1", "1"), ("e2", "4")):
        out = tmp_path / name
        assert main(["eval", "--config", str(config), "--out", str(out), "--seed", "17",
                     "--threads", threads, str(outs[0] / "checkpoint.axrx")]) == 0
        evals.append((out / "eval_results.csv").read_text())
    assert evals[0] == evals[1]
    report("determinism: identical checkpoints and eval CSVs across runs and --threads")


def test_criterion_10_monotonicity_sweep(desk_sim, trained_desk_model):
    model, _, _ = trained_desk_model
    receivers = {
        "axial": neural_receiver(model),
        "ls-lmmse": lmmse_receiver(DESK_LINK),
        "perfect-csi": perfect_csi_receiver(DESK_LINK),
    }
    cfg = EvalConfig(snr_points_db=(0.0, 3.0, 6.0, 9.0, 12.0), tiers=("tdl-lo",),
                     max_blocks=2000, target_errors=2001, seed=31)
    points = evaluate(receivers, desk_sim, cfg)
    assert all(p.blocks == 2000 for p in points)
    summary = []
    for key, inversions in monotonicity_violations(points).items():
        assert len(inversions) <= 1, f"{key}: {inversions}"
        for snr_a, snr_b, rise, allowance in inversions:
            assert rise <= allowance, f"{key}: rise {rise:.4f} > allowance {allowance:.4f}"
        summary.append(f"{key}: {len(inversions)} inversion(s)")
    report("BLER monotonicity over 5-point sweep, 2000 blocks/point (" +
           "; ".join(summary) + ")")
