"""Independent units of numpy work on every CPU the process may use.

`run` computes units 0..n-1 on streams: the calling thread is stream 0
and the others are threads of one pool, started on first use. Evaluation
runs the slices of a stacked receiver call this way
(`trainer._in_slices`), `layers.attend` its attention-core chunks and
its Q/K/V and output projections in blocks of rows, `layers.feed_forward`
and `autodiff.layer_norm` their blocks of rows, and `autodiff.conv2d` its
blocks of output rows. Every row block comes from one plan,
`row_blocks`. Runs never nest: while one is in progress, any other run,
from any thread, computes its units one after another in its own thread.
So the chunks and row blocks of a slice's forward stay in that slice's
stream, the CPUs are not oversubscribed, and no stream waits on the pool
it runs in.

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
# Cap on the elements of one row block's product: 2**16 (512 KB in float64,
# 256 KB in float32) keep a stream's block of the product in L2, as
# `layers.CORE_CHUNK_SCORES` does the attention core's scores.
BLOCK_ELEMENTS = 1 << 16


def cpus() -> int:
    """CPUs this process may run on now (its affinity mask, e.g. `taskset`)."""
    return len(os.sched_getaffinity(0))


def row_blocks(rows: int, per_row: int, min_rows: int = 2) -> list[tuple[int, int]]:
    """Blocks [r0, r1) of rows 0..rows in order, each of as many rows as keep
    its (r1 - r0) * per_row product elements within BLOCK_ELEMENTS, and of at
    least `min_rows` rows: a shorter last block joins the block before.

    The plan depends on the shapes alone. numpy runs a one-row matrix
    product as a matrix-vector product, which gives other bits, while
    blocks of 2 or more rows give the bits of the whole product; so a block
    whose rows are product rows takes the default of 2. A product whose
    whole fits under the cap is one block.
    """
    if rows * per_row <= BLOCK_ELEMENTS:
        return [(0, rows)]
    n = max(BLOCK_ELEMENTS // per_row, min_rows)
    blocks = [(r, min(r + n, rows)) for r in range(0, rows, n)]
    if len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < min_rows:
        blocks[-2:] = [(blocks[-2][0], rows)]
    return blocks


def parallel_row_blocks(rows: int, per_row: int) -> list[tuple[int, int]]:
    """`row_blocks(rows, per_row)`, but one block wherever a run would get
    one stream: inside another run, such as evaluation's slices, or on one
    CPU. For the row-wise work of `layers.attend`, `layers.feed_forward`
    and `autodiff.layer_norm`, which, unlike conv2d's reused product
    buffer, has no L2 reason to split on one stream."""
    blocks = row_blocks(rows, per_row)
    return blocks if len(blocks) == 1 or (not _running and cpus() > 1) else [(0, rows)]


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
