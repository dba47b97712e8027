"""Instrumentation of the forward pass: cost counters and a value recorder.

A single CostMeter can be activated at a time (measurement sessions are
single-threaded and sequential). While active, the conv layers report
their exact logical multiply-accumulate counts under the innermost tag, and the
`window_attention` op reports its two products under "attn_scores" and
"attn_apply". The attention forward also reports the element counts of its
q/k/v and weight buffers so the peak simultaneous footprint can be read off
afterwards.

The recorder is separate, so counting never pays for copies. Inside
`recording()`, each `observe(name, make)` call appends `make()` to the
list under `name` (the attention stages observe "attention", the toy net
"stage_output"); outside it, `observe` returns at once and `make` is never
called.
"""
from __future__ import annotations

from contextlib import contextmanager

_CURRENT: "CostMeter | None" = None
_TAG_STACK: list[str] = []
_RECORDING: "dict[str, list] | None" = None


class CostMeter:
    def __init__(self):
        self.macs: dict[str, int] = {}
        self._live: dict[str, int] = {}
        self.live_elems = 0
        self.peak_elems = 0

    def macs_for(self, tags) -> int:
        return sum(self.macs.get(t, 0) for t in tags)

    @contextmanager
    def active(self):
        global _CURRENT
        if _CURRENT is not None:
            raise RuntimeError("a CostMeter is already active")
        _CURRENT = self
        try:
            yield self
        finally:
            _CURRENT = None


@contextmanager
def tagged(tag: str):
    """Attribute kernel counts inside the block to `tag`."""
    _TAG_STACK.append(tag)
    try:
        yield
    finally:
        _TAG_STACK.pop()


def add_macs(count: int) -> None:
    if _CURRENT is None:
        return
    tag = _TAG_STACK[-1] if _TAG_STACK else "other"
    _CURRENT.macs[tag] = _CURRENT.macs.get(tag, 0) + int(count)


def track_buffer(tag: str, elems: int) -> None:
    if _CURRENT is None:
        return
    _CURRENT._live[tag] = _CURRENT._live.get(tag, 0) + int(elems)
    _CURRENT.live_elems = sum(_CURRENT._live.values())
    _CURRENT.peak_elems = max(_CURRENT.peak_elems, _CURRENT.live_elems)


def release_buffers() -> None:
    if _CURRENT is None:
        return
    _CURRENT._live.clear()
    _CURRENT.live_elems = 0


@contextmanager
def recording():
    """Collect every `observe`d value of the block, by name."""
    global _RECORDING
    if _RECORDING is not None:
        raise RuntimeError("a recording is already active")
    _RECORDING = {}
    try:
        yield _RECORDING
    finally:
        _RECORDING = None


def observe(name: str, make) -> None:
    """Record `make()` under `name` if a recording is active."""
    if _RECORDING is None:
        return
    _RECORDING.setdefault(name, []).append(make())
