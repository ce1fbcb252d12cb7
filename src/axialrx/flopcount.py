"""Thread-local floating-point operation counter.

Tensor operations report their cost here whenever a counter is active;
with no active counter the overhead is a single attribute lookup. Costs
follow one fixed convention (multiply-accumulate = 2 FLOPs, see
`axialrx.complexity` for the per-operation table) so that instrumented
counts can be compared against analytic formulas exactly.

Counts are kept per named bucket. Code wraps regions of interest with
``flopcount.bucket("name")``, which is a shared no-op context when no
counter is active; anything outside an explicit bucket lands in "other".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext

_state = threading.local()
_INACTIVE = nullcontext()


def _stack() -> list:
    stack = getattr(_state, "counters", None)
    if stack is None:
        stack = []
        _state.counters = stack
    return stack


class FlopCounter:
    """Accumulates FLOP counts while active as a context manager."""

    def __init__(self):
        self.total = 0
        self.buckets: dict[str, int] = {}
        self._bucket = "other"

    def __enter__(self) -> "FlopCounter":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _stack().pop()
        assert popped is self, "mismatched FlopCounter nesting"
        return False

    @contextmanager
    def bucket(self, name: str):
        """Attribute counts to `name` for the duration of the block."""
        previous = self._bucket
        self._bucket = name
        try:
            yield self
        finally:
            self._bucket = previous

    def _add(self, n: int) -> None:
        self.total += n
        self.buckets[self._bucket] = self.buckets.get(self._bucket, 0) + n


def add(n: int) -> None:
    """Report `n` FLOPs to the innermost active counter, if any."""
    stack = _stack()
    if stack:
        stack[-1]._add(n)


def active() -> FlopCounter | None:
    stack = _stack()
    return stack[-1] if stack else None


def bucket(name: str):
    """The active counter's `bucket(name)`, or a no-op context without one."""
    counter = active()
    return _INACTIVE if counter is None else counter.bucket(name)
