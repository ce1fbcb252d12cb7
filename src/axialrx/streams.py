"""Independent units of numpy work on every CPU the process may use.

`run` computes units 0..n-1 on streams: the calling thread is stream 0
and the others are threads of one pool, started on first use. Evaluation
runs the slices of a stacked receiver call this way
(`trainer._in_slices`), `layers.attend` its attention-core chunks and
its Q/K/V and output projections in blocks of rows, `layers.feed_forward`
and `autodiff.layer_norm` their blocks of rows, and `autodiff.conv2d` its
blocks of output rows. Every row block comes from one plan,
`row_blocks`: a product that outgrows a cache-sized cap splits on any
CPU count, and one that carries enough FLOPs (a desk 160-channel conv,
not a desk attention or feed-forward) splits where a run would get more
than one stream. Runs never nest: while one is in progress, any other run,
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
# Floor on the FLOPs of a block that the work rule of `row_blocks` splits
# off. On a 2-vCPU Xeon with one BLAS thread, a desk 3x3 conv in 2 blocks
# on 2 CPUs took 3.1x the time of one block at 1 MFLOP (5 -> 32 channels),
# 1.21x at 12.4 MFLOP (32 -> 64), 0.98x at 24.8 MFLOP (64 -> 64), 0.81x
# at 55.7 MFLOP (96 -> 96) and 0.62x at 155 MFLOP (160 -> 160): 2**24
# (16.8 MFLOP) per block sits at the crossover.
BLOCK_FLOPS = 1 << 24


def cpus() -> int:
    """CPUs this process may run on now (its affinity mask, e.g. `taskset`)."""
    return len(os.sched_getaffinity(0))


def row_blocks(rows: int, per_row: int, row_flops: int = 0,
               min_rows: int = 2) -> list[tuple[int, int]]:
    """Blocks [r0, r1) of rows 0..rows in order, planned by two rules.

    The cache rule: where the whole (rows * per_row product elements) does
    not fit in BLOCK_ELEMENTS, blocks of as many rows as keep their product
    within it, and of at least `min_rows` rows; a shorter last block joins
    the block before. It depends on the shapes alone.

    The work rule, only where the cache rule leaves one block: where the
    whole carries at least 2 * BLOCK_FLOPS (`row_flops` FLOPs per row) and
    a run would get more than one stream (not inside another run, more than
    one CPU), as many balanced blocks, at most one per CPU, as each keep at
    least BLOCK_FLOPS and `min_rows` rows. The work is compared with the
    floor first, so a small op's one block reads no CPU count. The rule
    never merges the cache rule's blocks.

    numpy runs a one-row matrix product as a matrix-vector product, which
    gives other bits, while blocks of 2 or more rows give the bits of the
    whole product; so a block whose rows are product rows takes the default
    of 2.
    """
    if rows * per_row > BLOCK_ELEMENTS:
        n = max(BLOCK_ELEMENTS // per_row, min_rows)
        blocks = [(r, min(r + n, rows)) for r in range(0, rows, n)]
        if len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < min_rows:
            blocks[-2:] = [(blocks[-2][0], rows)]
        if len(blocks) > 1:
            return blocks
    if rows * row_flops < 2 * BLOCK_FLOPS or _running:
        return [(0, rows)]
    n = max(1, min(cpus(), rows // max(min_rows, -(-BLOCK_FLOPS // row_flops))))
    size, larger = divmod(rows, n)  # sizes differ by at most one, larger first
    return [(i * size + min(i, larger), (i + 1) * size + min(i + 1, larger)) for i in range(n)]


def parallel_row_blocks(rows: int, per_row: int, row_flops: int = 0) -> list[tuple[int, int]]:
    """`row_blocks(rows, per_row, row_flops)`, but one block wherever a run
    would get one stream: inside another run, such as evaluation's slices,
    or on one CPU. For the row-wise work of `layers.attend`,
    `layers.feed_forward` and `autodiff.layer_norm`, which, unlike conv2d's
    reused product buffer, has no L2 reason to split on one stream."""
    blocks = row_blocks(rows, per_row, row_flops)
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
