"""BCE loss, Adam, the training loop, and the paired evaluation sweep."""

import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialrx import channel, ldpc, phy, trainer
from axialrx.autodiff import Tape, Tensor, backward, scale
from axialrx.flopcount import FlopCounter
from axialrx.layers import Receiver, ReceiverConfig
from axialrx.phy import LinkConfig
from axialrx.trainer import (
    EVAL_STREAM,
    TRAIN_STREAM,
    AdamState,
    EvalConfig,
    EvalPoint,
    LinkSimulator,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    bce_loss,
    evaluate,
    lmmse_receiver,
    monotonicity_violations,
    neural_receiver,
    perfect_csi_receiver,
    train,
)

SMALL_LINK = LinkConfig(t=14, f=8, n_rx=1, order=4, pilot_seed=11)


@pytest.fixture(scope="module")
def small_sim():
    return LinkSimulator(SMALL_LINK)


def small_model(seed=0, variant="axial", n_blocks=1):
    cfg = ReceiverConfig(variant=variant, t=14, f=8, n_rx=1, d=8, heads=2,
                         n_blocks=n_blocks, bits_per_symbol=2, resnet_units=2, resnet_channels=8)
    return Receiver(cfg, seed=seed)


class TestBceLoss:
    def test_all_zero_llrs_give_ln2(self):
        # analytically exactly ln 2; the masked mean costs at most an ulp
        llr = Tensor(np.zeros((4, 6, 2)))
        bits = np.random.default_rng(0).integers(0, 2, (4, 6, 2))
        mask = np.ones((4, 6), dtype=bool)
        assert bce_loss(llr, bits, mask).item() == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zeroed_output_projection_gives_ln2(self):
        model = small_model(seed=8)
        model.output_conv.w.data = np.zeros_like(model.output_conv.w.data)
        model.output_conv.b.data = np.zeros_like(model.output_conv.b.data)
        sim = LinkSimulator(SMALL_LINK)
        grid, _, _ = sim.sample((0, 1, 2))
        loss = bce_loss(model.forward(grid), grid.bits, grid.data_mask)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)

    def test_saturated_correct_is_tiny(self):
        llr = Tensor(np.full((2, 2, 1), 20.0))
        bits = np.ones((2, 2, 1))
        assert bce_loss(llr, bits, np.ones((2, 2), dtype=bool)).item() < 1e-8

    def test_matches_direct_oracle_longdouble(self):
        rng = np.random.default_rng(1)
        llr = rng.standard_normal((3, 5, 2)) * 3.0
        bits = rng.integers(0, 2, (3, 5, 2)).astype(float)
        mask = rng.random((3, 5)) < 0.7
        mask[0, 0] = True
        got = bce_loss(Tensor(llr), bits, mask).item()
        ld = np.longdouble
        sigma = 1.0 / (1.0 + np.exp(-llr.astype(ld)))
        direct = -(bits * np.log(sigma) + (1.0 - bits) * np.log1p(-sigma))
        expected = float(direct[mask].mean())
        assert abs(got - expected) < 1e-10

    def test_gradient_is_sigmoid_minus_bits(self):
        rng = np.random.default_rng(2)
        llr = Tensor(rng.standard_normal((3, 4, 2)) * 2.0, requires_grad=True)
        bits = rng.integers(0, 2, (3, 4, 2)).astype(float)
        sigma = 1.0 / (1.0 + np.exp(-llr.data))
        full = np.ones((3, 4), dtype=bool)
        partial = rng.random((3, 4)) < 0.6
        partial[0, 0], partial[0, 1] = True, False
        for mask in (full, partial):
            with Tape() as tape:
                loss = bce_loss(llr, bits, mask)
            assert len(tape.nodes) == 1
            grad = backward(loss, tape, leaves=[llr])[llr]
            weight = mask[..., None] / (2 * mask.sum())
            np.testing.assert_allclose(grad, (sigma - bits) * weight, atol=1e-10)
            assert (grad[~mask] == 0.0).all()

    def test_pilot_positions_excluded(self):
        rng = np.random.default_rng(3)
        llr = rng.standard_normal((4, 4, 2))
        bits = rng.integers(0, 2, (4, 4, 2)).astype(float)
        mask = np.ones((4, 4), dtype=bool)
        mask[1] = False
        base = bce_loss(Tensor(llr), bits, mask).item()
        corrupted = llr.copy()
        corrupted[1] = 1e6  # masked row must not matter
        assert bce_loss(Tensor(corrupted), bits, mask).item() == pytest.approx(base, rel=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            bce_loss(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 2, 1)),
                     np.zeros((2, 2), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 2, 2)),
                     np.ones((2, 2), dtype=bool))


class TestAdam:
    def test_first_step_moves_by_lr_sign(self):
        cfg = TrainConfig(learning_rate=1e-3)
        x = Tensor(np.array([0.5, -2.0]), requires_grad=True)
        adam_step({"x": x}, {x: np.array([3.0, -7.0])}, AdamState(), cfg)
        np.testing.assert_allclose(x.data, [0.5 - 1e-3, -2.0 + 1e-3], atol=1e-9)

    def test_zero_gradient_no_change(self):
        cfg = TrainConfig()
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        adam_step({"x": x}, {x: np.zeros(2)}, AdamState(), cfg)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])

    def test_converges_on_scalar_quadratic(self):
        """100 steps on (x-0.3)^2 with analytic gradients lands within 1e-3."""
        cfg = TrainConfig(learning_rate=0.05)
        x = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState()
        for _ in range(100):
            adam_step({"x": x}, {x: 2.0 * (x.data - 0.3)}, state, cfg)
        assert abs(x.data[0] - 0.3) < 1e-3


class TestLinkSimulator:
    def test_sample_is_deterministic(self, small_sim):
        g1, info1, meta1 = small_sim.sample((7, 1, 2, 3))
        g2, info2, meta2 = small_sim.sample((7, 1, 2, 3))
        np.testing.assert_array_equal(g1.y, g2.y)
        np.testing.assert_array_equal(info1, info2)
        assert meta1["snr_db"] == meta2["snr_db"]

    def test_distinct_entropy_gives_distinct_grids(self, small_sim):
        g1, _, _ = small_sim.sample((7, 1, 2, 3))
        g2, _, _ = small_sim.sample((7, 1, 2, 4))
        assert not np.array_equal(g1.y, g2.y)

    def test_snr_and_tier_overrides(self, small_sim):
        _, _, meta = small_sim.sample((1, 2, 3), snr_db=9.0, velocity_range=(25.0, 40.0))
        assert meta["snr_db"] == 9.0
        assert 25.0 <= meta["velocity"] <= 40.0

    def test_static_flat_sample(self):
        static = LinkSimulator(replace(SMALL_LINK, velocity_mps=(0.0, 0.0),
                                       delay_spread_s=(0.0, 0.0)))
        _, _, meta = static.sample((1, 2, 4))
        assert (meta["velocity"], meta["delay_spread"]) == (0.0, 0.0)
        h = meta["h"]
        reference = np.broadcast_to(h[0:1, 0:1, :], h.shape)
        np.testing.assert_allclose(h, reference, atol=1e-12)

    def test_payload_fills_grid(self, small_sim):
        assert small_sim.code.n == SMALL_LINK.n_coded_bits


class TestTrain:
    def test_zero_steps_leaves_model_unchanged(self, small_sim):
        model = small_model(seed=1)
        before = {k: t.data.copy() for k, t in model.named_parameters().items()}
        result = train(model, small_sim, TrainConfig(steps=0, batch_size=2, seed=3))
        assert result.trace == []
        for k, t in model.named_parameters().items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_identical_seeds_identical_parameters(self, small_sim):
        cfg = TrainConfig(steps=4, batch_size=2, seed=5)
        m1 = small_model(seed=2)
        m2 = small_model(seed=2)
        r1 = train(m1, small_sim, cfg)
        r2 = train(m2, small_sim, cfg)
        assert r1.trace == r2.trace
        for k in m1.named_parameters():
            np.testing.assert_array_equal(m1.named_parameters()[k].data,
                                          m2.named_parameters()[k].data)

    def test_trace_schema(self, small_sim):
        model = small_model(seed=3)
        result = train(model, small_sim, TrainConfig(steps=3, batch_size=2, seed=7))
        assert len(result.trace) == 3
        for step, loss, snr, velocity in result.trace:
            assert 0 <= step < 3
            assert math.isfinite(loss)
            assert 0.0 <= snr <= 15.0
            assert 0.0 <= velocity <= 50.0

    def test_divergence_aborts_with_step_index(self, small_sim):
        model = small_model(seed=4)
        model.pos.data[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(model, small_sim, TrainConfig(steps=1, batch_size=1, seed=9))

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("variant", ["axial", "global", "cnn-resnet"])
    def test_per_grid_tapes_match_one_tape_oracle(self, small_sim, variant, batch_size):
        """Trace and trained parameters equal the one-tape step's, bit for bit."""
        cfg = TrainConfig(steps=3, batch_size=batch_size, seed=13)
        model, oracle = small_model(seed=3, variant=variant), small_model(seed=3, variant=variant)
        result = train(model, small_sim, cfg)
        assert result.trace == one_tape_train(oracle, small_sim, cfg)
        got, want = model.named_parameters(), oracle.named_parameters()
        assert list(got) == list(want)
        for name in got:
            assert got[name].data.tobytes() == want[name].data.tobytes(), name

    def test_step_memory_does_not_grow_with_batch(self, small_sim):
        """Only one grid's tape is alive at a time."""
        def peak(batch_size):
            model = small_model(seed=12)
            cfg = TrainConfig(steps=1, batch_size=batch_size, seed=17)
            train(model, small_sim, cfg)  # leave one-time allocations out of the peak
            tracemalloc.start()
            try:
                train(small_model(seed=12), small_sim, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) < 1.5 * peak(1)

    @pytest.mark.parametrize("bad_grid", [0, 2])
    def test_divergence_leaves_parameters_untouched(self, small_sim, monkeypatch, bad_grid):
        """A non-finite loss in step 1 stops training before Adam moves anything."""
        cfg = TrainConfig(steps=2, batch_size=3, seed=19)
        clean = small_model(seed=14)
        train(clean, small_sim, TrainConfig(steps=1, batch_size=3, seed=19))
        original = trainer.bce_loss
        calls = []

        def poisoned(llr, bits, mask):
            loss = original(llr, bits, mask)
            calls.append(None)
            # grids run last first, so grid b of step 1 is call 4 + (2 - b), counting from 1
            return scale(loss, math.nan) if len(calls) == 4 + (2 - bad_grid) else loss

        monkeypatch.setattr(trainer, "bce_loss", poisoned)
        model = small_model(seed=14)
        with pytest.raises(TrainingDiverged, match="step 1") as excinfo:
            train(model, small_sim, cfg)
        assert excinfo.value.step == 1
        for name, tensor in model.named_parameters().items():
            assert tensor.data.tobytes() == clean.named_parameters()[name].data.tobytes(), name

    def test_loss_decreases_over_short_run(self, small_sim):
        model = small_model(seed=5)
        result = train(model, small_sim, TrainConfig(steps=40, batch_size=4, seed=11))
        first = np.mean([row[1] for row in result.trace[:10]])
        last = np.mean([row[1] for row in result.trace[-10:]])
        assert last < first


def seeded_receiver(preset, variant):
    """The preset's receiver with a seeded non-zero output convolution, so its
    LLRs are not all zero."""
    from axialrx import cli

    config = cli.load_config(None, preset)
    model = Receiver(cli.receiver_config_from(config, variant=variant),
                     seed=config["model"]["init_seed"])
    w = model.output_conv.w
    w.data = np.random.default_rng(77).standard_normal(w.shape) * 0.1
    sim = LinkSimulator(cli.link_from_config(config))
    return model, sim.sample((2024, 11))


class TestNeuralReceiver:
    @pytest.mark.parametrize("variant", ["axial", "global", "cnn-resnet"])
    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_float32_llrs_track_float64_forward(self, preset, variant):
        model, (grid, _, meta) = seeded_receiver(preset, variant)
        want = model.forward(grid).data
        got = neural_receiver(model)(grid, meta)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.abs(want).max() > 1.0
        assert np.abs(got - want).max() < 1e-4

    def test_snapshot_leaves_model_alone(self):
        model, (grid, _, meta) = seeded_receiver("desk", "axial")
        before = {name: t.data.copy() for name, t in model.named_parameters().items()}
        receive = neural_receiver(model)
        llr = receive(grid, meta)
        for name, tensor in model.named_parameters().items():
            assert tensor.data.dtype == np.float64, name
            assert tensor.data.tobytes() == before[name].tobytes(), name
        model.load_state({name: value * 0.5 for name, value in before.items()})
        model.output_conv.b.data += 1.0
        assert receive(grid, meta).tobytes() == llr.tobytes()
        assert neural_receiver(model)(grid, meta).tobytes() != llr.tobytes()


@pytest.fixture(scope="module")
def desk_stack():
    """The desk link and 32 grids of one SNR point, one by one and stacked."""
    from axialrx import cli

    link = cli.link_from_config(cli.load_config(None, "desk"))
    samples = [LinkSimulator(link).sample((2024, 12, b), snr_db=6.0) for b in range(32)]
    grid = phy.stack_grids([g for g, _, _ in samples])
    meta = {"h": np.stack([m["h"] for _, _, m in samples])}
    return link, samples, grid, meta


class TestStackedReceive:
    """Every receiver takes a stack of grids in one call and gives each block
    the bits of its own call."""

    @pytest.mark.parametrize("name", ["ls-lmmse", "perfect-csi", "axial", "global",
                                      "cnn-resnet"])
    def test_stacks_equal_per_block_llrs(self, desk_stack, name):
        link, samples, grid, meta = desk_stack
        if name in ("ls-lmmse", "perfect-csi"):
            receive = (lmmse_receiver if name == "ls-lmmse" else perfect_csi_receiver)(link)
        else:
            receive = neural_receiver(seeded_receiver("desk", name)[0])
        single = [receive(g, m) for g, _, m in samples]
        assert {llr.shape for llr in single} == {(link.t, link.f, link.bits_per_symbol)}
        assert np.abs(single[0]).max() > 1.0
        for blocks in (1, 5, 32):
            stacked = receive(grid[:blocks], {"h": meta["h"][:blocks]})
            assert stacked.shape == (blocks, link.t, link.f, link.bits_per_symbol)
            assert stacked.tobytes() == np.stack(single[:blocks]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.integers(1, 300), block_elements=st.integers(1, 1 << 18))
    def test_slices_cover_every_block_once_within_the_cap(self, blocks, block_elements):
        keys = trainer.stack_slices(blocks, block_elements)
        assert [i for key in keys for i in range(blocks)[key]] == list(range(blocks))
        for key in keys:
            held = key.stop - key.start
            assert held >= 1
            assert held * block_elements <= trainer.STACK_ELEMENTS or held == 1

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.integers(1, 300), block_elements=st.integers(1, 1 << 18))
    def test_slices_are_balanced_larger_first(self, blocks, block_elements):
        """As few slices as the cap allows, sizes differing by at most one and
        non-increasing, so the threads that run them get equal work."""
        sizes = [key.stop - key.start for key in trainer.stack_slices(blocks, block_elements)]
        cap = max(1, trainer.STACK_ELEMENTS // block_elements)
        assert len(sizes) == -(-blocks // cap)
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_desk_and_paper_slice_sizes(self):
        """Desk axial/global forwards take 6 grids, cnn-resnet 1 and QPSK
        receivers a whole chunk; at paper dims every receiver takes 1 grid."""
        def size(t, f, width):
            return trainer.stack_slices(trainer.EVAL_CHUNK_BLOCKS, t * f * width)[0].stop

        assert [size(14, 24, w) for w in (32, 160, 4)] == [6, 1, trainer.EVAL_CHUNK_BLOCKS]
        assert [size(14, 128, w) for w in (128, 160, 64)] == [1, 1, 1]

    def test_desk_axial_chunk_splits_evenly(self):
        keys = trainer.stack_slices(trainer.EVAL_CHUNK_BLOCKS, 14 * 24 * 32)
        assert [key.stop - key.start for key in keys] == [6, 6, 5, 5, 5, 5]


def forward_threads(monkeypatch) -> list[str]:
    """Names of the threads that run each `Receiver.forward` from now on."""
    names = []
    forward = Receiver.forward

    def spy(model, grid):
        names.append(threading.current_thread().name)
        return forward(model, grid)

    monkeypatch.setattr(Receiver, "forward", spy)
    return names


class TestSliceThreads:
    """A stack's slices run on min(CPUs, slices) threads, the caller's and
    `trainer._workers()`'s, with the results of one thread."""

    @pytest.mark.parametrize("variant", ["axial", "cnn-resnet"])
    def test_cpu_count_changes_no_bit(self, small_sim, monkeypatch, variant):
        """Forced to 1 and to 3 CPUs, an eval chunk of 16 two-block slices
        gives byte-identical LLRs and equal points; at 3 the forwards ran
        on 3 threads (interpreter switch interval shortened), at 1 only on
        the calling thread."""
        monkeypatch.setattr(trainer, "STACK_ELEMENTS", 2 * 14 * 8 * 8)
        samples = [small_sim.sample((5, 6, b), snr_db=4.0) for b in range(32)]
        grid = phy.stack_grids([g for g, _, _ in samples])
        model = small_model(seed=3, variant=variant)
        w = model.output_conv.w
        w.data = np.random.default_rng(4).standard_normal(w.shape)  # zero-init: all LLRs 0
        receivers = {variant: neural_receiver(model)}
        cfg = EvalConfig(snr_points_db=(-2.0, 10.0), tiers=("tdl-lo",), max_blocks=40,
                         target_errors=100, seed=8)
        names = forward_threads(monkeypatch)
        results = {}
        interval = sys.getswitchinterval()
        for cpus in (1, 3):
            monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
            names.clear()
            sys.setswitchinterval(1e-6)
            try:
                llr = receivers[variant](grid, {})
                points = evaluate(receivers, small_sim, cfg)
            finally:
                sys.setswitchinterval(interval)
            assert len(set(names)) == cpus
            assert threading.current_thread().name in names
            results[cpus] = (llr.tobytes(), points)
        assert llr.shape == (32, 14, 8, 2) and np.abs(llr).max() > 1.0
        assert results[1] == results[3]

    def test_first_error_in_slice_order_once_every_slice_is_done(self, monkeypatch):
        """Slice 2 raises at once, slice 1 on a worker 0.2 s later, and the
        calling thread's slices 0 and 3 end within 0.05 s. The caller gets
        slice 1's error, and only once no slice is running."""
        monkeypatch.setattr(trainer, "_cpus", lambda: 3)
        grid = phy.ResourceGrid(y=np.zeros((6, 2, 2, 1), complex), bits=np.zeros((6, 2, 2, 1)),
                                pilot_mask=np.zeros((2, 2), bool), n0=1.0)
        events = []

        def receive(key):
            events.append(("start", key.start))
            time.sleep({1: 0.2, 3: 0.05}.get(key.start, 0.0))
            events.append(("end", key.start))
            if key.start in (1, 2):
                raise ValueError(f"slice {key.start}")
            return np.zeros(key.stop - key.start)

        width = trainer.STACK_ELEMENTS // grid.pilot_mask.size  # one block per slice
        with pytest.raises(ValueError, match="slice 1"):
            trainer._in_slices(receive, grid, width)
        done = list(events)
        time.sleep(0.3)
        assert events == done
        started = {i for kind, i in done if kind == "start"}
        assert started == {i for kind, i in done if kind == "end"} == {0, 1, 2, 3}

    @pytest.mark.parametrize("active", [Tape, FlopCounter], ids=["tape", "flop-counter"])
    def test_refused_under_a_process_global_stack(self, small_sim, monkeypatch, active):
        monkeypatch.setattr(trainer, "STACK_ELEMENTS", 14 * 8 * 8)
        samples = [small_sim.sample((5, 7, b), snr_db=4.0) for b in range(3)]
        grid = phy.stack_grids([g for g, _, _ in samples])
        receive = neural_receiver(small_model(seed=3))
        with active(), pytest.raises(RuntimeError, match="Tape and FlopCounter"):
            receive(grid, {})
        with active():
            assert receive(samples[0][0], {}).shape == (14, 8, 2)


def one_tape_train(model, sim, cfg):
    """Every grid of a step on one tape, summed first to last: the trace of `train`."""
    params = model.named_parameters()
    state = AdamState()
    trace = []
    for step in range(cfg.steps):
        snrs, velocities = [], []
        with Tape() as tape:
            total = None
            for b in range(cfg.batch_size):
                grid, _, meta = sim.sample((cfg.seed, TRAIN_STREAM, step, b))
                snrs.append(meta["snr_db"])
                velocities.append(meta["velocity"])
                loss_b = bce_loss(model.forward(grid), grid.bits, grid.data_mask)
                total = loss_b if total is None else total + loss_b
            loss = scale(total, 1.0 / cfg.batch_size)
        grads = backward(loss, tape, leaves=list(params.values()))
        adam_step(params, grads, state, cfg)
        trace.append((step, loss.item(), float(np.mean(snrs)), float(np.mean(velocities))))
    return trace


class TestEvaluate:
    def test_perfect_csi_clean_at_high_snr_and_schema(self, small_sim):
        receivers = {
            "perfect-csi": perfect_csi_receiver(SMALL_LINK),
            "ls-lmmse": lmmse_receiver(SMALL_LINK),
        }
        cfg = EvalConfig(snr_points_db=(20.0,), tiers=("tdl-lo",), max_blocks=64,
                         target_errors=100, seed=1)
        points = evaluate(receivers, small_sim, cfg)
        assert len(points) == 2
        perfect = next(p for p in points if p.receiver == "perfect-csi")
        lmmse = next(p for p in points if p.receiver == "ls-lmmse")
        assert perfect.bler == 0.0
        assert lmmse.bler >= perfect.bler - (perfect.halfwidth + lmmse.halfwidth)
        for p in points:
            assert p.blocks == 64
            assert 0.0 <= p.bler <= 1.0
            assert p.errors == round(p.bler * p.blocks)

    def test_information_ordering_at_moderate_snr(self, small_sim):
        receivers = {
            "perfect-csi": perfect_csi_receiver(SMALL_LINK),
            "ls-lmmse": lmmse_receiver(SMALL_LINK),
        }
        cfg = EvalConfig(snr_points_db=(6.0,), tiers=("tdl-mid",), max_blocks=96,
                         target_errors=1000, seed=2)
        points = evaluate(receivers, small_sim, cfg)
        perfect = next(p for p in points if p.receiver == "perfect-csi")
        lmmse = next(p for p in points if p.receiver == "ls-lmmse")
        assert lmmse.bler >= perfect.bler - (perfect.halfwidth + lmmse.halfwidth)

    @pytest.mark.parametrize("config, kwargs, key", [
        (TrainConfig, {"seed": -1}, "seed"),
        (EvalConfig, {"seed": -1}, "seed"),
        (EvalConfig, {"snr_points_db": (0.0, float("nan"))}, "snr_points_db"),
    ], ids=["train-seed", "eval-seed", "nan-snr-point"])
    def test_config_rejects_unrunnable_value(self, config, kwargs, key):
        """Library callers get the check the CLI reports as exit 2."""
        with pytest.raises(ValueError, match=key):
            config(**kwargs)

    def test_thread_count_does_not_change_results(self, small_sim):
        receivers = {"ls-lmmse": lmmse_receiver(SMALL_LINK)}
        base = EvalConfig(snr_points_db=(4.0, 8.0), tiers=("tdl-lo",), max_blocks=48,
                          target_errors=100, seed=3, threads=1)
        threaded = EvalConfig(snr_points_db=(4.0, 8.0), tiers=("tdl-lo",), max_blocks=48,
                              target_errors=100, seed=3, threads=4)
        assert evaluate(receivers, small_sim, base) == evaluate(receivers, small_sim, threaded)

    def test_neural_receiver_runs_in_eval(self, small_sim):
        model = small_model(seed=6)
        receivers = {"axial": neural_receiver(model)}
        cfg = EvalConfig(snr_points_db=(10.0,), tiers=("tdl-lo",), max_blocks=8,
                         target_errors=100, seed=4)
        points = evaluate(receivers, small_sim, cfg)
        assert points[0].blocks == 8

    def test_early_stop_on_target_errors(self, small_sim, monkeypatch):
        """An untrained model errs on every block, so the target stops the sweep."""
        monkeypatch.setattr(trainer, "EVAL_CHUNK_BLOCKS", 8)
        model = small_model(seed=7)
        receivers = {"axial": neural_receiver(model)}
        cfg = EvalConfig(snr_points_db=(0.0,), tiers=("tdl-lo",), max_blocks=200,
                         target_errors=8, seed=5)
        points = evaluate(receivers, small_sim, cfg)
        assert points[0].blocks == 8
        assert points[0].errors >= 8

    def test_chunked_decode_equals_per_block_loop(self, small_sim, monkeypatch):
        """One batched decode per chunk gives the per-block loop's points.

        Chunks of 4 blocks do not divide max_blocks=11, so full-budget points
        end on a short chunk; the untrained axial receiver errs on every
        block and stops the low-SNR points after one or two chunks.
        """
        receivers = {
            "ls-lmmse": lmmse_receiver(SMALL_LINK),
            "perfect-csi": perfect_csi_receiver(SMALL_LINK),
            "axial": neural_receiver(small_model(seed=7)),
        }
        monkeypatch.setattr(trainer, "EVAL_CHUNK_BLOCKS", 4)
        cfg = EvalConfig(snr_points_db=(-4.0, 4.0, 20.0), tiers=("tdl-lo", "tdl-hi"),
                         max_blocks=11, target_errors=3, seed=6)
        expected = per_block_evaluate(receivers, small_sim, cfg)
        calls = []
        original = ldpc.decode_info

        def spy(code, llr, *args, **kwargs):
            calls.append(llr.shape)
            return original(code, llr, *args, **kwargs)

        monkeypatch.setattr(ldpc, "decode_info", spy)
        points = evaluate(receivers, small_sim, cfg)
        assert points == expected
        blocks = [p.blocks for p in points[::len(receivers)]]
        assert blocks == [4, 8, 11, 4, 4, 11]
        chunks = [4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3]
        assert calls == [(size * len(receivers), small_sim.code.n) for size in chunks]

    @pytest.mark.parametrize("bad", ["flat", "one-block"])
    def test_wrong_llr_shape_names_receiver_and_shapes(self, small_sim, bad):
        lmmse = lmmse_receiver(SMALL_LINK)

        def broken(grid, meta):
            llr = lmmse(grid, meta)
            return phy.grid_to_bits(llr, grid.pilot_mask) if bad == "flat" else llr[0]

        cfg = EvalConfig(snr_points_db=(8.0,), tiers=("tdl-lo",), max_blocks=3,
                         target_errors=100, seed=3)
        got = "(3, 192)" if bad == "flat" else "(14, 8, 2)"
        with pytest.raises(ValueError, match=rf"'broken'.*{re.escape(got)}.*\(3, 14, 8, 2\)"):
            evaluate({"ls-lmmse": lmmse, "broken": broken}, small_sim, cfg)

    def test_monotonicity_helper(self):
        series = [
            EvalPoint("rx", 0.0, "tdl-lo", 100, 60, 0.6, 0.05),
            EvalPoint("rx", 3.0, "tdl-lo", 100, 40, 0.4, 0.05),
            EvalPoint("rx", 6.0, "tdl-lo", 100, 45, 0.45, 0.05),
            EvalPoint("rx", 9.0, "tdl-lo", 100, 10, 0.1, 0.03),
        ]
        violations = monotonicity_violations(series)["rx/tdl-lo"]
        assert len(violations) == 1
        snr_a, snr_b, rise, allowance = violations[0]
        assert (snr_a, snr_b) == (3.0, 6.0)
        assert rise == pytest.approx(0.05)
        assert allowance == pytest.approx(0.10)


def per_block_evaluate(receivers, sim, cfg):
    """The sweep as a plain loop that decodes one block per receiver at a time."""
    names = list(receivers)
    points = []
    point_index = 0
    for tier in cfg.tiers:
        vel_range = channel.VELOCITY_TIERS[tier]
        for snr_db in cfg.snr_points_db:
            errors = {name: 0 for name in names}
            blocks_done = 0
            while blocks_done < cfg.max_blocks and \
                    not all(errors[name] >= cfg.target_errors for name in names):
                chunk_end = min(blocks_done + trainer.EVAL_CHUNK_BLOCKS, cfg.max_blocks)
                for block in range(blocks_done, chunk_end):
                    grid, info, meta = sim.sample((cfg.seed, EVAL_STREAM, point_index, block),
                                                  snr_db=snr_db, velocity_range=vel_range)
                    for name in names:
                        llrs = phy.grid_to_bits(receivers[name](grid, meta), grid.pilot_mask)
                        errors[name] += bool((ldpc.decode_info(sim.code, llrs) != info).any())
                blocks_done = chunk_end
            for name in names:
                p = errors[name] / blocks_done
                points.append(EvalPoint(receiver=name, snr_db=snr_db, velocity_tier=tier,
                                        blocks=blocks_done, errors=errors[name], bler=p,
                                        halfwidth=1.96 * math.sqrt(p * (1.0 - p) / blocks_done),
                                        target_errors=cfg.target_errors))
            point_index += 1
    return points
