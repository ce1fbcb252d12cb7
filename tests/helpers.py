"""Shared test utilities: finite-difference gradient checking, dense LDPC H."""

from __future__ import annotations

import numpy as np

from axialrx import selftest
from axialrx.autodiff import Tensor


def gradcheck(build_loss, leaves, step=selftest.FD_STEP, tol=selftest.FD_TOL):
    """Compare tape gradients against central finite differences.

    A thin wrapper around `axialrx.selftest.gradcheck`: fails with a
    message naming the leaf shape and index of the first mismatching
    component and returns the worst relative error seen.
    """
    return selftest.gradcheck(build_loss, leaves, step=step, tol=tol)


def rand_tensor(rng: np.random.Generator, shape, requires_grad=True, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def dense_h(code) -> np.ndarray:
    """(m, n) uint8 parity-check matrix of an `LdpcCode`, built from `row_cols`."""
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    h[np.arange(code.m)[:, None], code.row_cols] = 1
    return h
