"""Exporters: Chrome trace-event JSON and the Prometheus textfile.

The Chrome trace-event format (the ``chrome://tracing`` / Perfetto
"JSON Object Format") is the tracing interchange target: every finished
span becomes a complete (``"ph": "X"``) event, every span-attached
event an instant (``"ph": "i"``) event on the same thread track, plus
``"M"`` metadata events naming the process and threads. ``args`` carry
the span's attributes along with ``span_id``/``parent_id`` so the exact
tree (not just the per-thread nesting Perfetto infers from timestamps)
survives the round trip — ``p4all obs`` rebuilds it from there.

The validators are deliberately strict and dependency-free: the CI
``obs-smoke`` job and the test suite run emitted artifacts through them
so a malformed trace fails loudly here rather than silently rendering
an empty timeline in Perfetto.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Any

from .metrics import _NAME_RE, MetricsRegistry
from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_prometheus_text",
    "validate_prometheus_file",
]

_US = 1e6  # seconds → microseconds (trace-event timestamps are µs)


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of span attrs to JSON-serializable data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    return str(value)


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Render a tracer's spans as a Chrome trace-event JSON object."""
    pid = os.getpid()
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": "p4all"},
        }
    ]
    thread_names: dict[int, str] = {}
    for span in tracer.spans:
        thread_names.setdefault(span.thread_id, span.thread_name)
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(_json_safe(span.attrs))
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            }
        )
        for ev in span.events:
            events.append(
                {
                    "name": ev.name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": ev.ts * _US,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": {"span_id": span.span_id,
                             **_json_safe(ev.attrs)},
                }
            )
    for ev in tracer.orphan_events:
        events.append(
            {
                "name": ev.name,
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": ev.ts * _US,
                "pid": pid,
                "tid": 0,
                "args": _json_safe(ev.attrs),
            }
        )
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": name or f"thread-{tid}"},
            }
        )
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "wall_epoch": tracer.wall_epoch,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer), indent=1,
                               sort_keys=True))
    return path


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(registry.to_prometheus())
    return path


# ---------------------------------------------------------------------------
# Validation (CI smoke + tests).

_REQUIRED_BY_PHASE = {"X": ("dur",), "i": ("s",), "M": ()}


def validate_chrome_trace(obj: Any) -> int:
    """Check a Chrome trace-event JSON object; returns the event count.

    Raises :class:`ValueError` on the first malformation. Checks the
    object form (``traceEvents`` list), per-event required fields, phase
    kinds, non-negative microsecond timestamps/durations, and that
    ``args`` are JSON objects.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("trace must be an object with a 'traceEvents' list")
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}] missing {field!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"traceEvents[{i}] has a non-string name")
        ph = event["ph"]
        if ph not in _REQUIRED_BY_PHASE:
            raise ValueError(
                f"traceEvents[{i}] has unsupported phase {ph!r} "
                f"(expected one of {sorted(_REQUIRED_BY_PHASE)})"
            )
        for field in _REQUIRED_BY_PHASE[ph]:
            if field not in event:
                raise ValueError(
                    f"traceEvents[{i}] (ph={ph!r}) missing {field!r}"
                )
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or math.isnan(ts) or ts < 0:
            raise ValueError(f"traceEvents[{i}] has invalid ts {ts!r}")
        if ph == "X":
            dur = event["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has invalid dur {dur!r}")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"traceEvents[{i}] args must be an object")
    return len(events)


def validate_chrome_trace_file(path: str | Path) -> int:
    return validate_chrome_trace(json.loads(Path(path).read_text()))


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def validate_prometheus_text(text: str) -> int:
    """Check Prometheus text exposition format; returns the sample count.

    Enforces: well-formed ``# TYPE``/``# HELP`` lines, every sample
    preceded by a ``# TYPE`` for its family (``_bucket``/``_sum``/
    ``_count`` suffixes resolve to their histogram family), metric and
    label name syntax, float-parseable values, and histogram buckets
    carrying an ``le`` label.
    """
    declared: dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {lineno}: bad TYPE line {line!r}"
                    )
                declared[name] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = m.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and declared.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in declared:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        labels = m.group("labels")
        label_names = []
        if labels:
            body = labels[1:-1].strip()
            if body:
                for pair in _split_label_pairs(body, lineno):
                    if not _LABEL_PAIR_RE.match(pair):
                        raise ValueError(
                            f"line {lineno}: malformed label pair {pair!r}"
                        )
                    label_names.append(pair.split("=", 1)[0])
        if (declared[family] == "histogram" and name.endswith("_bucket")
                and "le" not in label_names):
            raise ValueError(
                f"line {lineno}: histogram bucket sample missing le label"
            )
        value = m.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value {value!r}"
                ) from None
        samples += 1
    return samples


def _split_label_pairs(body: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    pairs, depth_quote, start = [], False, 0
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and depth_quote:
            i += 2
            continue
        if ch == '"':
            depth_quote = not depth_quote
        elif ch == "," and not depth_quote:
            pairs.append(body[start:i].strip())
            start = i + 1
        i += 1
    if depth_quote:
        raise ValueError(f"line {lineno}: unterminated label value")
    tail = body[start:].strip()
    if tail:
        pairs.append(tail)
    return pairs


def validate_prometheus_file(path: str | Path) -> int:
    return validate_prometheus_text(Path(path).read_text())
