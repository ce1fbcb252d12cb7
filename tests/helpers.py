"""Shared test utilities: finite-difference gradient checking, dense LDPC H."""

from __future__ import annotations

import numpy as np

from axialrx.autodiff import Tape, Tensor, backward

FD_STEP = 1e-5
FD_TOL = 1e-4
FD_ABS_FLOOR = 1e-7


def gradcheck(build_loss, leaves, step=FD_STEP, tol=FD_TOL):
    """Compare tape gradients against central finite differences.

    `build_loss` must construct the graph from scratch on each call,
    reading the current contents of every leaf in `leaves`. Passes when
    each gradient component matches within relative `tol` (with a small
    absolute floor for near-zero components). Returns the worst relative
    error seen.
    """
    with Tape() as tape:
        loss = build_loss()
    grads = backward(loss, tape, leaves=leaves)

    worst = 0.0
    for leaf in leaves:
        analytic = grads[leaf]
        flat = leaf.data.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            up = build_loss().item()
            flat[idx] = original - step
            down = build_loss().item()
            flat[idx] = original
            fd = (up - down) / (2.0 * step)
            ad = analytic.reshape(-1)[idx]
            diff = abs(ad - fd)
            denom = max(abs(ad), abs(fd))
            if diff > FD_ABS_FLOOR:
                rel = diff / max(denom, 1e-12)
                worst = max(worst, rel)
                assert rel < tol, (
                    f"gradient mismatch at leaf shape {leaf.shape} index {idx}: "
                    f"autodiff {ad:.8e} vs finite-diff {fd:.8e} (rel {rel:.3e})"
                )
    return worst


def rand_tensor(rng: np.random.Generator, shape, requires_grad=True, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def dense_h(code) -> np.ndarray:
    """(m, n) uint8 parity-check matrix of an `LdpcCode`, built from `row_cols`."""
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    h[np.arange(code.m)[:, None], code.row_cols] = 1
    return h
