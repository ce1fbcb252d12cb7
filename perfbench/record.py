"""Regenerate the benchmark's recorded data under perfbench/data.

    python3 perfbench/record.py

1. Trains the desk-eval checkpoint with the CLI (desk preset plus
   data/desk_axial.ini) and writes desk_axial.axrx with its provenance.
2. Runs every recorded input set of desk-train and desk-eval once and
   writes the outputs the benchmark checks against to reference.json:
   the loss of every training step, and the block-error count of every
   receiver at every SNR point.

Training and evaluation are bitwise reproducible, so a rerun on the same
code gives the same files. Rerun it only when the program's numerics are
meant to change; the benchmark then checks the new numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def train_checkpoint(workloads) -> None:
    from axialrx import __version__, cli

    ini = workloads.DATA / "desk_axial.ini"
    argv = ["train", "--preset", "desk", "--config", str(ini)]
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        status = cli.main(argv + ["--out", out])
        seconds = time.perf_counter() - start
        if status != 0:
            raise SystemExit(f"training the checkpoint failed with exit code {status}")
        shutil.copyfile(Path(out) / "checkpoint.axrx", workloads.CHECKPOINT_PATH)
        with open(Path(out) / "loss_trace.csv") as fh:
            header, _, *rows = fh.read().splitlines()
    last_loss = float(rows[-1].split(",")[1])
    provenance = {
        "command": "PYTHONPATH=src python3 -m axialrx.cli " + " ".join(
            argv[:-1] + ["perfbench/data/desk_axial.ini", "--out", "<dir>"]),
        "csv_header": header,
        "axialrx_version": __version__,
        "source_commit": source_commit(),
        "steps": len(rows),
        "final_loss": last_loss,
        "train_seconds": round(seconds, 1),
        "sha256": hashlib.sha256(workloads.CHECKPOINT_PATH.read_bytes()).hexdigest(),
    }
    with open(workloads.PROVENANCE_PATH, "w") as fh:
        json.dump(provenance, fh, indent=1)
        fh.write("\n")
    print(f"checkpoint: {len(rows)} steps, final loss {last_loss:.4f}, {seconds:.1f} s")


def record_references(workloads) -> None:
    train = workloads.DeskTrain(0, workloads.Checks())
    train.setup()
    evaluation = workloads.DeskEval(0, workloads.Checks())
    evaluation.setup()
    evaluation.bind()
    losses = []
    errors: dict[str, list[list[int]]] = {}
    for index in range(workloads.REF_SETS):
        losses.append(train.run_round(index)[1])
        points = evaluation.run_round(index)[1]
        for name, counts in workloads.errors_by_receiver(points).items():
            errors.setdefault(name, []).append(counts)
        print(f"input set {index}: final loss {losses[-1][-1]:.6f}, "
              f"ls-lmmse errors {errors['ls-lmmse'][-1]}", flush=True)
    reference = {
        "source_commit": source_commit(),
        "desk-train": {"steps_per_set": workloads.TRAIN_STEPS_PER_ROUND, "losses": losses},
        "desk-eval": {"snr_points_db": list(workloads.EVAL_SNRS_DB),
                      "blocks_per_point": workloads.EVAL_BLOCKS_PER_POINT, "errors": errors},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh)
        fh.write("\n")


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    train_checkpoint(workloads)
    record_references(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
