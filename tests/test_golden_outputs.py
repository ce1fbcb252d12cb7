"""sha256 pins of whole CLI outputs that refactors must leave bitwise unchanged.

Each digest covers the file body, the lines after the `# config_hash=...`
header, so a version bump does not move it. A change that means to alter
one of these outputs must say why and re-record the digest.
"""

import hashlib
from pathlib import Path

import pytest

from axialrx.cli import EXIT_OK, main

DESK_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "desk_axial.axrx"


def body_sha256(path: Path) -> str:
    header, body = path.read_bytes().split(b"\n", 1)
    assert header.startswith(b"# config_hash=")
    return hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("preset, digest", [
    ("desk", "69e6fe9eab80dc678327c7f9247a6492d9d558c12f9dae4e9ba51a1d0c029323"),
    ("paper", "a57af8d6220dd3ee046964bb398ef22a06b215b8f45d6c46187fb1cb40983df0"),
])
def test_flops_report(preset, digest, tmp_path):
    assert main(["flops", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
    assert body_sha256(tmp_path / "flops_report.csv") == digest


def test_desk_eval_of_pinned_checkpoint(tmp_path, monkeypatch):
    """LS-LMMSE, perfect CSI and the pinned desk axial checkpoint, 2 points x 32 blocks."""
    monkeypatch.delenv("AXRX_SEED", raising=False)
    config = tmp_path / "sweep.ini"
    config.write_text("[eval]\nsnr_points_db = 0,6\nmax_blocks = 32\n")
    out = tmp_path / "out"
    assert main(["eval", "--preset", "desk", "--config", str(config), "--out", str(out),
                 str(DESK_CHECKPOINT)]) == EXIT_OK
    assert body_sha256(out / "eval_results.csv") == (
        "36bfd50f91acd62a43a8cdd3ec6c17b7f168f4ccb94cbe9d10dd5f2e10148e77")
