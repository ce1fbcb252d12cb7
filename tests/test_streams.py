"""`streams.run`: unit order, one scratch per stream, errors, no nesting;
the row-block plan's cache and work rules."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axialrx import streams


def test_units_in_order_each_stream_with_its_own_scratch(monkeypatch):
    """10 units on 3 streams, unit i on stream i mod 3. Each unit fills its
    stream's scratch row by row with its own index and reads it back, with
    the interpreter switching threads as often as it can: a scratch that
    two streams shared would read back the other stream's index."""
    monkeypatch.setattr(streams, "cpus", lambda: 3)
    opened = []

    def scratch():
        opened.append(threading.current_thread().name)
        return np.empty(1000)

    def unit(i, buf):
        for row in range(10):
            buf[row * 100:(row + 1) * 100] = i
        return i, threading.current_thread().name, bool((buf == i).all())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = streams.run(10, unit, scratch)
    finally:
        sys.setswitchinterval(interval)
    assert [i for i, _, _ in results] == list(range(10))
    assert all(clean for _, _, clean in results)
    assert len(opened) == 3 and threading.current_thread().name in opened
    for first in range(3):
        assert len({name for _, name, _ in results[first::3]}) == 1
    assert {name for _, name, _ in results[0::3]} == {threading.current_thread().name}


def test_one_cpu_runs_every_unit_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(streams, "cpus", lambda: 1)
    names = streams.run(4, lambda i, _: threading.current_thread().name)
    assert names == [threading.current_thread().name] * 4


def test_a_run_inside_a_run_uses_one_stream(monkeypatch):
    """Each of 2 outer units starts an inner run of 3 units: every inner
    unit runs in the thread of the outer unit that started it."""
    monkeypatch.setattr(streams, "cpus", lambda: 2)

    def outer(i, _):
        mine = threading.current_thread().name
        return streams.run(3, lambda j, _: threading.current_thread().name == mine)

    assert streams.run(2, outer) == [[True] * 3] * 2
    assert len(set(streams.run(2, lambda i, _: threading.current_thread().name))) == 2


@pytest.mark.parametrize("raising, started, first", [
    ({2, 5}, {0, 1, 2, 3, 5}, 2),  # the calling thread's error, while the worker sleeps
    ({3, 4}, {0, 1, 2, 3, 4}, 3),  # the worker's error, 0.2 s after the calling thread's
], ids=["calling-thread", "unit-order"])
def test_first_error_in_unit_order_once_every_stream_is_done(monkeypatch, raising, started,
                                                             first):
    """8 units on 2 streams; unit 1, the worker's first, sleeps 0.2 s. Each
    stream stops at its own first error. The caller gets the first error
    in unit order, only once no unit is running, and a later run uses both
    streams again."""
    monkeypatch.setattr(streams, "cpus", lambda: 2)
    events = []

    def unit(i, _):
        events.append(("start", i))
        if i == 1:
            time.sleep(0.2)
        events.append(("end", i))
        if i in raising:
            raise ValueError(f"unit {i}")
        return i

    with pytest.raises(ValueError, match=f"unit {first}"):
        streams.run(8, unit)
    done = list(events)
    time.sleep(0.3)
    assert events == done
    assert {i for kind, i in done if kind == "start"} == started
    assert {i for kind, i in done if kind == "end"} == started
    assert len(set(streams.run(2, lambda i, _: threading.current_thread().name))) == 2


def test_row_blocks_keep_the_cap_and_min_rows(monkeypatch):
    """A whole product within the cap is one block; otherwise blocks of as
    many rows as fit, at least `min_rows`, and a shorter last block joins
    the one before. A `min_rows` of all the rows keeps one block."""
    monkeypatch.setattr(streams, "BLOCK_ELEMENTS", 12)
    assert streams.row_blocks(6, 2) == [(0, 6)]
    assert streams.row_blocks(7, 2) == [(0, 7)]
    assert streams.row_blocks(7, 2, min_rows=1) == [(0, 6), (6, 7)]
    assert streams.row_blocks(5, 100) == [(0, 2), (2, 5)]
    assert streams.row_blocks(5, 100, min_rows=1) == [(r, r + 1) for r in range(5)]
    assert streams.row_blocks(5, 100, min_rows=5) == [(0, 5)]
    assert streams.row_blocks(0, 100) == [(0, 0)]


def test_parallel_row_blocks_are_one_block_where_a_run_gets_one_stream(monkeypatch):
    """Split on several CPUs, one block inside a run and on one CPU."""
    monkeypatch.setattr(streams, "BLOCK_ELEMENTS", 12)
    monkeypatch.setattr(streams, "cpus", lambda: 3)
    assert streams.parallel_row_blocks(5, 100) == [(0, 2), (2, 5)]
    assert streams.run(2, lambda i, _: streams.parallel_row_blocks(5, 100)) == [[(0, 5)]] * 2
    monkeypatch.setattr(streams, "cpus", lambda: 1)
    assert streams.parallel_row_blocks(5, 100) == [(0, 5)]


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(0, 16), per_row=st.integers(1, 6), row_flops=st.integers(0, 8),
       width=st.integers(1, 3), cap=st.integers(1, 40), floor=st.integers(1, 12),
       cpus=st.integers(1, 4), conv=st.booleans())
@example(rows=5, per_row=1, row_flops=4, width=1, cap=4, floor=9, cpus=2, conv=False)
@example(rows=4, per_row=1, row_flops=3, width=1, cap=4, floor=8, cpus=2, conv=False)
def test_plan_property(rows, per_row, row_flops, width, cap, floor, cpus, conv):
    """Small plans of row-wise products (blocks of at least 2 rows) and of
    convs (`width` product rows per output row, as conv2d plans them),
    planned outside a run and in each unit of a 2-unit run:

    - the blocks cover the rows in order;
    - never fewer blocks than the cache-only plan (no row FLOPs), and
      wherever that plan splits, its blocks;
    - a work split (other blocks than the cache-only plan's) only where a
      run would get more than one stream, and every block of it carries
      at least the floor; it makes balanced blocks, as many as fit, at
      most one per CPU;
    - where the cache rule splits or the whole carries under 2 floors, the
      plan reads no CPU count;
    - no block makes a one-row product where the whole did not, so a conv
      one padded column wide stays one block."""
    min_rows = (1 if width > 1 else rows) if conv else 2
    product_rows = width if conv else 1
    reads = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(streams, "BLOCK_ELEMENTS", cap)
        m.setattr(streams, "BLOCK_FLOPS", floor)
        m.setattr(streams, "cpus", lambda: reads.append(1) or cpus)
        cache = streams.row_blocks(rows, per_row, 0, min_rows)
        outside = streams.row_blocks(rows, per_row, row_flops, min_rows)
        read_outside = len(reads)
        inside = streams.run(2, lambda i, _: streams.row_blocks(rows, per_row, row_flops, min_rows))
    assert inside == [cache] * 2
    for blocks in (cache, outside):
        starts, ends = zip(*blocks)
        assert starts[0] == 0 and ends[-1] == rows and list(starts[1:]) == list(ends[:-1])
        assert all(r1 > r0 for r0, r1 in blocks) or blocks == [(0, 0)]
        if rows * product_rows > 1:
            assert all((r1 - r0) * product_rows > 1 for r0, r1 in blocks)
    assert len(outside) >= len(cache)
    if len(cache) > 1 or rows * row_flops < 2 * floor:
        assert read_outside == 0
    if len(cache) > 1 or cpus == 1 or rows * row_flops < 2 * floor:
        assert outside == cache
        return
    sizes = [r1 - r0 for r0, r1 in outside]
    if len(outside) > 1:
        assert all(size * row_flops >= floor for size in sizes)
    n = min(cpus, rows // max(min_rows, -(-floor // row_flops)))
    assert len(outside) == max(n, 1) and max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
