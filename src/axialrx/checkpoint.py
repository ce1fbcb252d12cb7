"""Flat binary parameter checkpoints.

Layout: magic b"AXRX1", then for each parameter in lexicographic name
order: u32-LE name length, UTF-8 name, u32-LE rank, u32-LE dims, payload
of little-endian float64 in row-major order. The fixed ordering makes
checkpoints byte-identical for identical parameter sets.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import Tensor

MAGIC = b"AXRX1"


class CheckpointError(IOError):
    """Checkpoint file is missing, truncated, or malformed."""


def save(params: dict[str, Tensor], path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name in sorted(params):
            data = np.asarray(params[name].data, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def load(path: str) -> dict[str, np.ndarray]:
    """Name -> float64 array map. Raises CheckpointError naming the file for
    a missing, truncated or malformed file, and also naming the parameter
    for a repeated name or a NaN/inf payload."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not an AXRX1 checkpoint")
    out: dict[str, np.ndarray] = {}
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        piece = blob[pos : pos + n]
        pos += n
        return piece

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: parameter name is not UTF-8 ({err})") from err
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(dims)
        payload = take(8 * count)
        if name in out:
            raise CheckpointError(f"{path}: parameter {name!r} appears twice")
        value = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.isfinite(value).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds NaN or inf")
        out[name] = value
    return out
