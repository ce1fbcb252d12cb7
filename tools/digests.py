"""Print sha256 digests of the numbers a refactor must keep bitwise.

Run from the repository root:

    PYTHONPATH=src python tools/digests.py

Each line is `<name> <sha256>`. Two checkouts that compute the same bits
print identical lines, so `diff` of their outputs is the bitwise check:

- `llr <preset>/<variant>`: the untaped float64 forward LLRs of every variant
  on one sampled grid at desk and at paper dims
- `llr-eval <preset>/<variant>`: the float32 LLRs that
  `trainer.neural_receiver` gives on the same grid, for the same receivers
- `llr-stack desk/<variant>`: the float32 LLRs that `trainer.neural_receiver`
  gives on one stack of 8 seeded desk grids of one SNR point, as `evaluate`
  passes them (printed last, so the lines above keep their order)
- `grads <preset>/<variant>`: the BCE loss and every parameter gradient of
  one taped grid, for every desk variant and the paper axial receiver
- `train checkpoint` and `train loss_trace`: the checkpoint and the loss
  trace body (below its `# config_hash=...` header) of a 4-step desk `train`

A fresh receiver's output convolution is zero, which would make every LLR
and most gradients zero, so each receiver gets a seeded non-zero one.
Peaks near 0.4 GB (the taped paper grid) and takes about seven seconds on
one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from axialrx import cli  # first: it pins BLAS to one thread before numpy loads
from axialrx.autodiff import Tape, backward
from axialrx.layers import VARIANTS, Receiver
from axialrx.phy import stack_grids
from axialrx.trainer import LinkSimulator, bce_loss, neural_receiver

import numpy as np

GRID_ENTROPY = (2024, 11)
STACK_BLOCKS = 8
STACK_SNR_DB = 6.0
OUTPUT_CONV_SEED = 77


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def seeded_receiver(config: dict, variant: str) -> Receiver:
    model = Receiver(cli.receiver_config_from(config, variant=variant),
                     seed=config["model"]["init_seed"])
    w = model.output_conv.w
    w.data = np.random.default_rng(OUTPUT_CONV_SEED).standard_normal(w.shape) * 0.1
    return model


def grid_digests(preset: str, taped: tuple[str, ...]) -> list[tuple[str, str]]:
    config = cli.load_config(None, preset)
    grid, _, meta = LinkSimulator(cli.link_from_config(config)).sample(GRID_ENTROPY)
    lines, evals = [], []
    for variant in VARIANTS:
        model = seeded_receiver(config, variant)
        lines.append((f"llr {preset}/{variant}", sha256(model(grid).data.tobytes())))
        evals.append((f"llr-eval {preset}/{variant}",
                      sha256(neural_receiver(model)(grid, meta).tobytes())))
        if variant not in taped:
            continue
        params = model.named_parameters()
        with Tape() as tape:
            loss = bce_loss(model(grid), grid.bits, grid.data_mask)
        grads = backward(loss, tape, leaves=params.values())
        chunks = [loss.data.tobytes()]
        for name, tensor in params.items():
            chunks += [name.encode(), grads[tensor].tobytes()]
        lines.append((f"grads {preset}/{variant}", sha256(*chunks)))
    return lines + evals


def stack_digests() -> list[tuple[str, str]]:
    config = cli.load_config(None, "desk")
    sim = LinkSimulator(cli.link_from_config(config))
    samples = [sim.sample(GRID_ENTROPY + (b,), snr_db=STACK_SNR_DB) for b in range(STACK_BLOCKS)]
    grid = stack_grids([g for g, _, _ in samples])
    meta = {"h": np.stack([m["h"] for _, _, m in samples])}
    return [(f"llr-stack desk/{variant}",
             sha256(neural_receiver(seeded_receiver(config, variant))(grid, meta).tobytes()))
            for variant in VARIANTS]


def train_digests() -> list[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "train.ini"
        ini.write_text("[train]\nsteps = 4\n")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--preset", "desk", "--config", str(ini), "--out", str(out)])
        if rc != cli.EXIT_OK:
            raise SystemExit(f"desk train exited {rc}")
        trace_body = (out / "loss_trace.csv").read_bytes().split(b"\n", 1)[1]
        return [("train checkpoint", sha256((out / "checkpoint.axrx").read_bytes())),
                ("train loss_trace", sha256(trace_body))]


def main() -> None:
    os.environ.pop("AXRX_SEED", None)  # the train digest is of the config's own seed
    lines = grid_digests("desk", taped=VARIANTS)
    lines += grid_digests("paper", taped=("axial",))
    lines += train_digests()
    lines += stack_digests()
    for name, digest in lines:
        print(f"{name:<22} {digest}")


if __name__ == "__main__":
    main()
