"""`streams.run`: unit order, one scratch per stream, errors, no nesting."""

import sys
import threading
import time

import numpy as np
import pytest

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
