"""Flight recorder: an always-on bounded ring of recent activity.

Tracing is opt-in and metrics are aggregates — when a run crashes you
want the *last few seconds of raw events*, which neither gives you. The
:class:`FlightRecorder` keeps a ``deque(maxlen=...)`` of recent entries
(finished spans via a tracer sink, batch notes from the engines, and
telemetry events — SLO violations among them — noted by the bus) at a
cost of one tuple append per entry — cheap enough to leave on.

The ring dumps to JSONL:

* on demand — ``p4all obs --flight dump.jsonl`` or
  :meth:`FlightRecorder.dump`;
* on signal — :func:`install_flight_dump` hooks ``SIGUSR1``;
* on crash — the same installer chains ``sys.excepthook`` so an
  unhandled exception leaves ``<path>`` behind with the final moments
  and a closing metrics snapshot.

Set ``REPRO_FLIGHT=/path/out.jsonl`` to arm crash/signal dumping for
any process without touching code (:func:`maybe_install_from_env`).
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any

__all__ = [
    "FlightRecorder",
    "install_flight_dump",
    "maybe_install_from_env",
    "CAPACITY",
]

#: Ring entries kept: the newest win.
CAPACITY = 4096


def _json_safe(value: Any):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return repr(value)


class FlightRecorder:
    """Bounded ring buffer of recent observability entries.

    Entries are ``(seq, wall_time, kind, name, data)`` tuples; appends
    to a bounded deque are atomic under the GIL, so :meth:`note` takes
    no lock on the hot side.
    """

    def __init__(self):
        self._ring: collections.deque = collections.deque(maxlen=CAPACITY)
        self._seq = itertools.count(1)

    # -- recording -------------------------------------------------------------
    def note(self, kind: str, name: str, **data: Any) -> None:
        """Append one entry. The always-on call sites guard nothing."""
        self._ring.append(
            (next(self._seq), time.time(), kind, name, data or None)
        )

    def on_span(self, span) -> None:
        """Tracer sink: record each finished span's shape and timing."""
        self._ring.append(
            (next(self._seq), time.time(), "span", span.name,
             {"duration": span.duration, "attrs": dict(span.attrs)})
        )

    # -- introspection ---------------------------------------------------------
    def entries(self) -> list[dict]:
        out = []
        for seq, wall, kind, name, data in list(self._ring):
            entry = {"seq": seq, "wall_time": wall, "kind": kind,
                     "name": name}
            if data:
                entry["data"] = _json_safe(data)
            out.append(entry)
        return out

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    # -- dumping ---------------------------------------------------------------
    def dump(self, path, registry=None) -> int:
        """Write the ring as JSONL (oldest first), closing with a
        metrics snapshot when a registry is given (default: the global
        one). Returns the number of ring entries written."""
        if registry is None:
            from . import metrics as registry
        entries = self.entries()
        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")
            snap = {"kind": "metrics_snapshot", "wall_time": time.time(),
                    "metrics": _json_safe(registry.to_dict())}
            fh.write(json.dumps(snap) + "\n")
        return len(entries)


def install_flight_dump(path, recorder: "FlightRecorder | None" = None):
    """Arm crash/signal dumping of ``recorder`` (default: the global
    ring) to ``path``. Hooks ``SIGUSR1`` (main thread only, best
    effort) and chains ``sys.excepthook``; returns an ``uninstall()``
    that restores both."""
    if recorder is None:
        from . import flight as recorder

    def _dump(reason: str) -> None:
        try:
            recorder.note("flight", "dump", reason=reason)
            recorder.dump(path)
        except Exception:
            pass

    prev_hook = sys.excepthook

    def _excepthook(exc_type, exc, tb):
        recorder.note("crash", exc_type.__name__, message=str(exc))
        _dump("crash")
        prev_hook(exc_type, exc, tb)

    sys.excepthook = _excepthook

    prev_signal = None
    installed_signal = False
    if threading.current_thread() is threading.main_thread():
        try:
            prev_signal = signal.signal(
                signal.SIGUSR1, lambda signum, frame: _dump("signal")
            )
            installed_signal = True
        except (ValueError, OSError, AttributeError):
            pass

    def uninstall() -> None:
        if sys.excepthook is _excepthook:
            sys.excepthook = prev_hook
        if installed_signal:
            try:
                signal.signal(signal.SIGUSR1, prev_signal)
            except (ValueError, OSError):
                pass

    return uninstall


def maybe_install_from_env(recorder: "FlightRecorder | None" = None):
    """Arm dumping to ``$REPRO_FLIGHT`` when set; returns the
    ``uninstall`` or None."""
    path = os.environ.get("REPRO_FLIGHT", "")
    if not path:
        return None
    return install_flight_dump(path, recorder)
