"""Span tracing of axialrx from outside the package.

`installed(tracer)` replaces the public functions of each axialrx module
with wrappers that open a span around the original call, at the place
where callers look the name up (for example `axialrx.trainer.backward`,
not `axialrx.autodiff.backward`, because the trainer imported the name).
Every original is put back when the context exits.

Spans nest: a span's self time is its duration minus the time covered by
its direct children. Spans are kept in memory and aggregated after the
run. Each span carries the tracer's current phase ("setup", "loop",
"probe") and a tag inherited from its parent; the tag of a receiver
forward is the receiver variant, so attention-core spans below it are
attributed to that variant.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    """A finished span. A tuple of plain values, so the garbage collector
    stops tracking it and a long run's spans add no collection work."""

    name: str
    tag: str | None
    phase: str | None
    parent: int | None
    start: float
    end: float
    child: float  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records nested spans and per-name observed values (one thread)."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while a span is open
        self.values: dict[tuple[str | None, str], list[float]] = defaultdict(list)
        self.phase: str | None = None
        self._open: list[list] = []  # [index, name, tag, phase, parent, start, child]

    def begin(self, name: str, tag: str | None = None) -> None:
        parent = self._open[-1] if self._open else None
        if tag is None and parent is not None:
            tag = parent[2]
        self._open.append([len(self.spans), name, tag, self.phase,
                           parent[0] if parent is not None else None, time.perf_counter(), 0.0])
        self.spans.append(None)

    def end(self) -> None:
        index, name, tag, phase, parent, start, child = self._open.pop()
        end = time.perf_counter()
        self.spans[index] = Span(name, tag, phase, parent, start, end, child)
        if self._open:
            self._open[-1][6] += end - start

    def observe(self, name: str, value: float) -> None:
        self.values[self.phase, name].append(float(value))

    def select(self, phase: str, name: str | None = None, tag: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.phase == phase
                and (name is None or s.name == name) and (tag is None or s.tag == tag)]

    def self_seconds(self, phase: str, name: str, tag: str | None = None) -> float:
        return sum(s.self_time for s in self.select(phase, name, tag))


def _targets(tracer: Tracer) -> list[tuple]:
    """(owner, attribute names, span name, tag function, result observer)."""
    from axialrx import baseline, channel, checkpoint, cli, layers, ldpc, phy, trainer

    def variant_tag(args):
        return args[0].cfg.variant

    def tape_nodes(args, result):
        tracer.observe("autodiff.tape_nodes", len(args[1].nodes))

    def decode_result(args, result):
        tracer.observe("ldpc.iterations", result.iterations)
        tracer.observe("ldpc.converged", result.converged)

    return [
        (cli, ("load_config",), "cli.config", None, None),
        (cli, ("link_from_config",), "cli.config", None, None),
        (cli, ("receiver_config_from",), "cli.config", None, None),
        (checkpoint, ("load",), "checkpoint.load", None, None),
        (ldpc, ("construct",), "ldpc.construct", None, None),
        (ldpc, ("encode",), "ldpc.encode", None, None),
        (ldpc, ("decode_info",), "ldpc.decode", None, None),
        (ldpc, ("decode",), "ldpc.decode", None, decode_result),
        (channel, ("generate",), "channel.generate", None, None),
        (phy, ("make_grid",), "phy.make_grid", None, None),
        (baseline, ("lmmse_receive",), "baseline.lmmse", None, None),
        (baseline, ("perfect_csi_receive",), "baseline.perfect_csi", None, None),
        (trainer, ("train",), "trainer.train", None, None),
        (trainer, ("evaluate",), "trainer.evaluate", None, None),
        (trainer.LinkSimulator, ("sample",), "trainer.sample", None, None),
        (trainer, ("bce_loss",), "trainer.bce", None, None),
        (trainer, ("adam_step",), "trainer.adam", None, None),
        (trainer, ("backward",), "autodiff.backward", None, tape_nodes),
        (layers.Receiver, ("forward", "__call__"), "layers.forward", variant_tag, None),
        (layers, ("axial_time_attention",), "layers.time_attn", None, None),
        (layers, ("axial_freq_attention",), "layers.freq_attn", None, None),
        (layers, ("global_mhsa",), "layers.global_attn", None, None),
        (layers, ("bmm",), "layers.attn_core", None, None),
        (layers.FeedForward, ("__call__",), "layers.ffn", None, None),
        (layers.ConvLayer, ("__call__",), "layers.conv", None, None),
        (layers.LayerNormParams, ("__call__",), "layers.layernorm", None, None),
    ]


def _wrap(tracer: Tracer, original, name: str, tag_fn, observe):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer.begin(name, tag_fn(args) if tag_fn is not None else None)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end()
        if observe is not None:
            observe(args, result)
        return result

    return traced


def originals() -> dict[tuple[int, str], object]:
    """The objects currently bound at every wrapped location."""
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attrs, *_ in _targets(Tracer()) for attr in attrs}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attrs, name, tag_fn, observe in _targets(tracer):
            original = vars(owner)[attrs[0]]
            traced = _wrap(tracer, original, name, tag_fn, observe)
            for attr in attrs:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
