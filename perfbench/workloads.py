"""The three benchmark workloads, driven through axialrx's public API.

A workload is set up once per repetition (`setup`), then runs rounds of
fixed work (`run_round`), each round returning its number of work units
(train steps or received blocks) and the outputs that `check_round`
compares against the recorded reference. `probe`, run
after every round, times untaped forwards of every receiver variant at
the workload's dimensions. `check_models` runs once before the rounds:
it verifies the counted FLOP table of every variant, and its forwards
warm every model up.

The seed picks the inputs: for the desk workloads it shuffles the order
of the recorded input sets (`reference.json` holds the outputs each set
must reproduce); for paper-infer it is the entropy of every sampled block.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from axialrx import checkpoint, cli, complexity, layers, ldpc, phy, trainer

DATA = Path(__file__).resolve().parent / "data"
REFERENCE_PATH = DATA / "reference.json"
CHECKPOINT_PATH = DATA / "desk_axial.axrx"
PROVENANCE_PATH = DATA / "desk_axial.provenance.json"

REF_SETS = 64  # recorded input sets per desk workload
TRAIN_STEPS_PER_ROUND = 8
EVAL_SNRS_DB = (0.0, 3.0, 6.0, 9.0, 12.0)
EVAL_BLOCKS_PER_POINT = 32  # one evaluation chunk per SNR point
LOSS_RTOL = 1e-6  # recorded-loss tolerance, relative
AXIAL_ERROR_SLACK = 2  # blocks per SNR point the neural receiver may differ by
PROBE_SECONDS = 0.02  # forward time per variant per probe
PROBE_STREAM = 505
PAPER_STREAM = 404


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build_link(preset: str):
    """(config, link, simulator) for a CLI preset."""
    config = cli.load_config(None, preset)
    link = cli.link_from_config(config)
    sim = trainer.LinkSimulator(link, n_taps=config["channel"]["taps"],
                                n_sinusoids=config["channel"]["sinusoids"])
    return config, link, sim


def build_model(config: dict, variant: str | None = None) -> layers.Receiver:
    return layers.Receiver(cli.receiver_config_from(config, variant),
                           seed=config["model"]["init_seed"])


def errors_by_receiver(points: list[trainer.EvalPoint]) -> dict[str, list[int]]:
    """Block-error counts per receiver, in SNR order."""
    errors: dict[str, list[int]] = {}
    for p in points:
        errors.setdefault(p.receiver, []).append(p.errors)
    return errors


class Workload:
    name = ""
    preset = ""
    unit = ""  # what one unit of work is

    def __init__(self, seed: int, checks: Checks, reference: dict | None = None):
        self.seed = seed
        self.checks = checks
        self.reference = reference
        self._variant_models: dict[str, layers.Receiver] | None = None
        self.forward_seconds: dict[str, list[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def bind(self) -> None:
        """Build receiver callables from the module bindings in force now."""
        self.forward_seconds = {v: [] for v in layers.VARIANTS}
        self._probes = 0

    def indices(self):
        """Endless round indices determined by the seed."""
        order = np.random.default_rng(self.seed).permutation(REF_SETS)
        return itertools.cycle(int(i) for i in order)

    def run_round(self, index: int) -> tuple[int, object]:
        raise NotImplementedError

    def check_round(self, index: int, outputs) -> None:
        raise NotImplementedError

    def variant_models(self) -> dict[str, layers.Receiver]:
        if self._variant_models is None:
            self._variant_models = {v: build_model(self.config, v) for v in layers.VARIANTS}
        return self._variant_models

    def probe(self) -> None:
        """Time untaped forwards of every variant on the next seeded grid.

        Called after every round, so the samples spread over the whole run.
        Each variant runs until PROBE_SECONDS have passed (at least once),
        so the short desk forwards get several samples per probe.
        """
        grid = self.sim.sample((self.seed, PROBE_STREAM, self._probes))[0]
        self._probes += 1
        for variant, model in self.variant_models().items():
            spent = 0.0
            while spent < PROBE_SECONDS:
                start = time.perf_counter()
                model.forward(grid)
                self.forward_seconds[variant].append(time.perf_counter() - start)
                spent += self.forward_seconds[variant][-1]

    def check_models(self) -> dict[str, complexity.FlopsReport]:
        """Counted FLOPs equal the analytic table for every variant; returns the reports."""
        reports = {}
        for variant, model in self.variant_models().items():
            report = complexity.model_report(model.cfg, model=model)
            self.checks.expect(
                report.counted_total == report.analytic_total
                and report.attention_counted == report.attention_analytic
                and report.counted_layers == report.analytic_layers,
                f"{variant}: counted FLOPs {report.counted_total} != analytic "
                f"{report.analytic_total}")
            reports[variant] = report
        return reports


class DeskTrain(Workload):
    """Desk preset, axial receiver: rounds of training from the fixed init."""

    name = "desk-train"
    preset = "desk"
    unit = f"train step (batch 8, {TRAIN_STEPS_PER_ROUND} steps per round from the fixed init)"

    def setup(self) -> None:
        self.config, self.link, self.sim = build_link(self.preset)

    def train_config(self, index: int) -> trainer.TrainConfig:
        train = self.config["train"]
        return trainer.TrainConfig(steps=TRAIN_STEPS_PER_ROUND, batch_size=train["batch_size"],
                                   learning_rate=train["learning_rate"], seed=index)

    def run_round(self, index: int) -> tuple[int, list[float]]:
        model = build_model(self.config)  # every round trains from the same fixed init
        result = trainer.train(model, self.sim, self.train_config(index))
        return TRAIN_STEPS_PER_ROUND, [loss for _, loss, _, _ in result.trace]

    def check_round(self, index: int, losses: list[float]) -> None:
        expected = self.reference["desk-train"]["losses"][index]
        self.checks.expect(len(losses) == len(expected),
                           f"train set {index}: {len(losses)} losses, expected {len(expected)}")
        for step, (got, want) in enumerate(zip(losses, expected)):
            self.checks.expect(math.isfinite(got) and abs(got - want) <= LOSS_RTOL * abs(want),
                               f"train set {index} step {step}: loss {got!r} != {want!r}")


class DeskEval(Workload):
    """Desk preset: paired LS-LMMSE / perfect-CSI / axial-checkpoint sweep."""

    name = "desk-eval"
    preset = "desk"
    unit = (f"paired block (ls-lmmse, perfect-csi, axial checkpoint; "
            f"{len(EVAL_SNRS_DB)} SNR points x {EVAL_BLOCKS_PER_POINT} blocks per round)")

    def setup(self) -> None:
        self.config, self.link, self.sim = build_link(self.preset)
        state = checkpoint.load(str(CHECKPOINT_PATH))
        self.model = build_model(self.config)
        self.model.load_state(state)

    def bind(self) -> None:
        super().bind()
        self.receivers = {
            "ls-lmmse": trainer.lmmse_receiver(self.link),
            "perfect-csi": trainer.perfect_csi_receiver(self.link),
            "axial": trainer.neural_receiver(self.model),
        }

    def eval_config(self, index: int) -> trainer.EvalConfig:
        return trainer.EvalConfig(snr_points_db=EVAL_SNRS_DB, tiers=("tdl-lo",),
                                  max_blocks=EVAL_BLOCKS_PER_POINT,
                                  target_errors=EVAL_BLOCKS_PER_POINT + 1,  # never stops early
                                  seed=index, threads=1)

    def run_round(self, index: int) -> tuple[int, list[trainer.EvalPoint]]:
        points = trainer.evaluate(self.receivers, self.sim, self.eval_config(index))
        return len(EVAL_SNRS_DB) * EVAL_BLOCKS_PER_POINT, points

    def check_round(self, index: int, points: list[trainer.EvalPoint]) -> None:
        self.checks.expect(all(p.blocks == EVAL_BLOCKS_PER_POINT for p in points),
                           f"eval set {index}: a point ran {[p.blocks for p in points]} blocks")
        errors = errors_by_receiver(points)
        recorded = self.reference["desk-eval"]["errors"]
        for name in ("ls-lmmse", "perfect-csi"):
            self.checks.expect(errors[name] == recorded[name][index],
                               f"eval set {index} {name}: errors {errors[name]} "
                               f"!= recorded {recorded[name][index]}")
        want = recorded["axial"][index]
        self.checks.expect(
            len(errors["axial"]) == len(want)
            and all(abs(a - b) <= AXIAL_ERROR_SLACK for a, b in zip(errors["axial"], want)),
            f"eval set {index} axial: errors {errors['axial']} not within "
            f"{AXIAL_ERROR_SLACK} of recorded {want}")

    def check_models(self) -> dict[str, complexity.FlopsReport]:
        with open(PROVENANCE_PATH) as fh:
            provenance = json.load(fh)
        digest = hashlib.sha256(CHECKPOINT_PATH.read_bytes()).hexdigest()
        self.checks.expect(digest == provenance["sha256"],
                           f"checkpoint sha256 {digest} != provenance {provenance['sha256']}")
        grid = self.sim.sample((self.seed, PROBE_STREAM, 0), snr_db=12.0)[0]
        llr = self.model.forward(grid).data
        self.checks.expect(bool(np.isfinite(llr).all() and np.any(llr != 0.0)),
                           "axial checkpoint gives degenerate (zero or non-finite) LLRs")
        return super().check_models()


class PaperInfer(Workload):
    """Paper preset: every variant plus both references on each sampled block."""

    name = "paper-infer"
    preset = "paper"
    unit = "paper block (sample, 3 neural forwards, ls-lmmse, perfect-csi, 5 decodes)"

    def setup(self) -> None:
        self.config, self.link, self.sim = build_link(self.preset)
        self._variant_models = {v: build_model(self.config, v) for v in layers.VARIANTS}

    def bind(self) -> None:
        super().bind()
        self.baselines = {
            "ls-lmmse": trainer.lmmse_receiver(self.link),
            "perfect-csi": trainer.perfect_csi_receiver(self.link),
        }

    def indices(self):
        return itertools.count()

    def run_round(self, index: int) -> tuple[int, tuple]:
        grid, info, meta = self.sim.sample((self.seed, PAPER_STREAM, index))
        llrs = {}
        for variant, model in self._variant_models.items():
            t0 = time.perf_counter()
            llrs[variant] = model.forward(grid).data
            self.forward_seconds[variant].append(time.perf_counter() - t0)
        for name, receive in self.baselines.items():
            llrs[name] = receive(grid, meta)
        decoded = {name: ldpc.decode_info(self.sim.code, phy.grid_to_bits(llr, grid.pilot_mask))
                   for name, llr in llrs.items()}
        return 1, (grid, info, llrs, decoded)

    def check_round(self, index: int, outputs: tuple) -> None:
        grid, info, llrs, decoded = outputs
        code = self.sim.code
        codeword = phy.grid_to_bits(grid.bits, grid.pilot_mask).astype(np.uint8)
        self.checks.expect(not ldpc.syndrome(code, codeword).any()
                           and np.array_equal(codeword[code.info_cols], info),
                           f"paper block {index}: encoded codeword fails H c = 0")
        for name, llr in llrs.items():
            self.checks.expect(bool(np.isfinite(llr).all()) and decoded[name].shape == info.shape,
                               f"paper block {index} {name}: non-finite LLRs or bad decode shape")

    def probe(self) -> None:
        """Nothing to add: every round already times every variant's forward."""


WORKLOADS = {cls.name: cls for cls in (DeskTrain, DeskEval, PaperInfer)}
