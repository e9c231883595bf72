"""Hierarchical tracing spans over ``time.perf_counter``.

A :class:`Tracer` records a tree of timed :class:`Span`\\ s — one node
per interesting region of work (a compile phase, an ILP solve, a state
migration) — plus point-in-time events attached to whichever span was
active when they fired (the runtime's telemetry bus is bridged in this
way, see :mod:`repro.obs.bridge`). The result is one coherent timeline
of a reconfiguration instead of three disjoint peepholes.

Design constraints, in order:

1. **Near-zero overhead when disabled.** ``tracer.span(...)`` on a
   disabled tracer is one attribute check and returns a preallocated
   no-op context manager — no allocation, no locking, no clock read.
   The packet-processing hot path is never instrumented per-packet at
   all (only per batch), so the disabled tracer costs nothing there.
2. **Thread-safe.** The active-span stack is thread-local (the
   fleet controller plans its switches on worker threads); the finished-
   span list is guarded by a lock. Spans started on a worker thread
   become roots of that thread's track in the Chrome trace view.
3. **Plain data.** A finished span is just numbers, strings, and dicts,
   so exporters (:mod:`repro.obs.export`) need no live tracer.

Timestamps are ``perf_counter`` seconds relative to the tracer's epoch
(reset on :meth:`Tracer.enable`/:meth:`Tracer.reset`); the matching
wall-clock epoch is kept so exports can anchor the timeline in real
time.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any

__all__ = ["Span", "SpanEvent", "Tracer", "NULL_SPAN"]


class _NullSpan:
    """The do-nothing span a disabled tracer hands out.

    A single shared instance: entering, exiting, annotating, and
    attaching events are all no-ops, so instrumentation sites never
    branch on whether tracing is on.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, _name: str, _value: Any) -> None:
        pass

    def set_attrs(self, **_attrs: Any) -> None:
        pass

    def event(self, _name: str, **_attrs: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: Shared no-op span (also useful as a default in tests).
NULL_SPAN = _NullSpan()


class SpanEvent:
    """A point-in-time annotation inside a span (or at top level)."""

    __slots__ = ("name", "ts", "attrs")

    def __init__(self, name: str, ts: float, attrs: dict[str, Any]):
        self.name = name
        self.ts = ts
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ts": self.ts, "attrs": self.attrs}


class Span:
    """One timed region. Use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "start", "end", "events", "thread_id", "thread_name")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.start = 0.0
        self.end = 0.0
        self.events: list[SpanEvent] = []
        self.thread_id = 0
        self.thread_name = ""

    # -- context manager -------------------------------------------------------
    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        stack = self.tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start = time.perf_counter() - self.tracer._epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter() - self.tracer._epoch
        stack = self.tracer._stack()
        # Tolerate a mid-span reset() (stack cleared underneath us) and
        # exceptions that unwound through several spans at once.
        if self in stack:
            while stack and stack[-1] is not self:
                stack.pop()
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self.tracer._record(self)
        return False

    # -- annotation ------------------------------------------------------------
    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = value

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to this span."""
        self.events.append(
            SpanEvent(name, time.perf_counter() - self.tracer._epoch, attrs)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": self.attrs,
            "events": [e.to_dict() for e in self.events],
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {self.duration * 1e3:.3f}ms)")


class Tracer:
    """Collects spans; disabled (and effectively free) by default.

    Enable explicitly (``trace.enable()``, the CLI's ``--trace`` flag)
    or ambiently with ``REPRO_TRACE=1`` in the environment.
    """

    def __init__(self, enabled: bool | None = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._events: list[SpanEvent] = []   # events outside any span
        self._epoch = time.perf_counter()
        self.wall_epoch = time.time()
        #: Callables invoked with each finished span (flight recorder,
        #: live aggregators). Called outside the lock; must not raise.
        self.sinks: list = []

    # -- lifecycle -------------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans/events and restart the clock epoch."""
        with self._lock:
            self._spans = []
            self._events = []
            self._ids = itertools.count(1)
            self._epoch = time.perf_counter()
            self.wall_epoch = time.time()
            self._local = threading.local()

    # -- recording -------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def clear_recorded(self) -> None:
        """Drop finished spans/events but keep the epoch and id counter.

        Worker-side capture uses this between batches: the epoch must
        stay aligned with the parent's so merged timestamps land on one
        timeline, and ids must keep advancing so adopted spans never
        collide.
        """
        with self._lock:
            self._spans = []
            self._events = []
            self._local = threading.local()

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        for sink in self.sinks:
            try:
                sink(span)
            except Exception:
                pass

    def span(self, name: str, **attrs: Any):
        """Start a span; returns a context manager.

        On a disabled tracer this is one attribute check returning the
        shared :data:`NULL_SPAN` — the near-zero-overhead path.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event on the active span (or at the
        top level when no span is active on this thread)."""
        if not self.enabled:
            return
        ev = SpanEvent(name, time.perf_counter() - self._epoch, attrs)
        stack = self._stack()
        if stack:
            stack[-1].events.append(ev)
        else:
            with self._lock:
                self._events.append(ev)

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, or None."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    # -- introspection ---------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    @property
    def orphan_events(self) -> list[SpanEvent]:
        """Events recorded while no span was active."""
        with self._lock:
            return list(self._events)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self)} spans)"
