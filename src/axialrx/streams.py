"""Independent units of numpy work on every CPU the process may use.

`run` computes units 0..n-1 on streams: the calling thread is stream 0
and the others are threads of one pool, started on first use. Evaluation
runs the slices of a stacked receiver call this way
(`trainer._in_slices`), and `layers.attend` its attention-core chunks.
Runs never nest: while one is in progress, any other run, from any
thread, computes its units one after another in its own thread. So the
chunks of a slice's forward stay in that slice's stream, the CPUs are
not oversubscribed, and no stream waits on the pool it runs in.

A unit runs on whichever thread its stream has, so it must leave
process-global state alone: an active `Tape` or `FlopCounter` would see
its ops in no fixed order.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable, TypeVar

R = TypeVar("R")
S = TypeVar("S")

_lock = threading.Lock()
_running = False  # a run with more than one stream is in progress


def cpus() -> int:
    """CPUs this process may run on now (its affinity mask, e.g. `taskset`)."""
    return len(os.sched_getaffinity(0))


@functools.cache
def workers():
    """The process's stream threads, started on first use and only as needed.
    Imported here: `concurrent.futures` loads `logging`, which raised the
    peak RSS of runs that never use a second stream by 0.7 MB."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=os.cpu_count(), thread_name_prefix="axialrx-stream")


def run(units: int, unit: Callable[[int, S], R], scratch: Callable[[], S] = lambda: None
        ) -> list[R]:
    """[unit(i, own) for i in range(units)], where `own` is what `scratch()`
    returned once in the stream that runs unit i.

    The units run on min(`cpus()`, units) streams, or on one while another
    run is in progress: the calling thread and threads of `workers()`,
    unit i on stream i mod streams. A stream stops at its first error.
    Once every stream is done, the first error in unit order is raised.
    """
    global _running
    with _lock:
        streams = 1 if _running else min(cpus(), units)
        _running = _running or streams > 1
    if streams <= 1:
        own = scratch()
        return [unit(i, own) for i in range(units)]
    results: list = [None] * units
    failed: dict[int, Exception] = {}

    def stream(first: int) -> None:
        i = first
        try:
            own = scratch()
            for i in range(first, units, streams):
                results[i] = unit(i, own)
        except Exception as error:  # raised by the caller once every stream is done
            failed[i] = error

    try:
        futures = [workers().submit(stream, s) for s in range(1, streams)]
        try:
            stream(0)
        finally:
            for future in futures:
                future.result()
    finally:
        with _lock:
            _running = False
    if failed:
        raise failed[min(failed)]
    return results
