"""Spans around the calls a pipeline makes into each cfcsim layer.

The tracer wraps functions where the calling module binds them (for
example ``cfcsim.presets.simulate`` or ``cfcsim.formats.write_events_csv``,
which ``presets`` and ``experiment`` reach as ``formats.write_events_csv``)
and restores the original bindings afterwards, so no ``src/`` code
changes.  Calls are recorded only inside an open span, such as the one
the benchmark opens around each pipeline run; calls made outside it
(the output checks) pass straight through.  Spans stay in memory until
the benchmark writes them out.

A span's layer is the module that defines the wrapped function, so the
same ``simulate`` is attributed to ``simulator`` whoever calls it.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: Optional[int]
    run: int
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    path: Optional[str] = None  # file a formats call wrote or read

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _counts(layer: str, name: str, out) -> dict:
    """Work done by one call, read off its return value (constant time
    apart from the range-flag sum, which is one numpy reduction)."""
    if layer == "simulator" and name == "simulate":
        return {"events": len(out.events), "events_high": int(out.events.sf.sum())}
    if layer == "stimulus":
        signal = out[0] if isinstance(out, tuple) else out
        if hasattr(signal, "i_start"):
            return {"pieces": int(signal.times.size)}
        return {}
    if layer == "decoder" and name == "reconstruct":
        return {"samples": len(out)}
    if name == "read_events_csv":
        return {"rows_read": len(out)}
    return {}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self.run = 0

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.run, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap_module(self, module) -> None:
        """Wrap every public cfcsim function that ``module`` binds."""
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if not fn.__module__.startswith("cfcsim."):
                continue
            self._patch(module, name, fn)

    def _patch(self, module, name: str, fn: Callable) -> None:
        layer = fn.__module__.rsplit(".", 1)[-1]
        span_name = f"{module.__name__}.{name}"
        fn_name = fn.__name__

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(span_name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.counts = _counts(layer, fn_name, out)
            if layer == "formats":
                span.path = str(out if fn_name.startswith("write_") else args[0])
            return out

        setattr(module, name, traced)
        self._patches.append((module, name, fn))

    def restore(self) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    One thread makes every call, so children of a span never overlap.
    """
    own = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end_ns - s.start_ns
    return {k: v * 1e-9 for k, v in own.items()}
