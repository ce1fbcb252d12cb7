"""Floating-point operation counter.

Tensor operations report their cost here whenever a counter is active;
with no active counter the overhead is one list truth test. One process
has one stack of active counters; the innermost one counts. Costs follow
one fixed convention (multiply-accumulate = 2 FLOPs, see
`axialrx.complexity` for the per-operation table) so that instrumented
counts can be compared against analytic formulas exactly.

Counts are kept per named bucket, and this module is the only place that
builds bucket names. Code wraps regions of interest with
``flopcount.bucket("name")``, which is a shared no-op context when no
counter is active. Buckets nest by appending: inside ``bucket("block00")``
the attention core's ``bucket("#core")`` counts to "block00#core".
Anything outside every bucket lands in "other".
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

_COUNTERS: list["FlopCounter"] = []  # active counters, innermost last
_INACTIVE = nullcontext()


class FlopCounter:
    """Accumulates FLOP counts while active as a context manager."""

    def __init__(self):
        self.total = 0
        self.buckets: dict[str, int] = {}
        self._bucket = ""  # joined names of the open buckets

    def __enter__(self) -> "FlopCounter":
        _COUNTERS.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _COUNTERS.pop()
        assert popped is self, "mismatched FlopCounter nesting"
        return False

    @contextmanager
    def bucket(self, name: str):
        """Append `name` to the open bucket for the duration of the block."""
        previous = self._bucket
        self._bucket = previous + name
        try:
            yield self
        finally:
            self._bucket = previous

    def _add(self, n: int) -> None:
        key = self._bucket or "other"
        self.total += n
        self.buckets[key] = self.buckets.get(key, 0) + n


def add(n: int) -> None:
    """Report `n` FLOPs to the innermost active counter, if any."""
    if _COUNTERS:
        _COUNTERS[-1]._add(n)


def bucket(name: str):
    """The active counter's `bucket(name)`, or a no-op context without one."""
    return _COUNTERS[-1].bucket(name) if _COUNTERS else _INACTIVE
