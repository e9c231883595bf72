"""Benchmark-side span recorder.

Spans are recorded from the benchmark's own files, around each call into
a layer's public function; nothing under ``src/`` is patched. A span is
``(name, layer, start, end, parent)``; a layer's *self time* is its
spans' durations minus the part their direct children cover, so the
per-layer self times plus the root span's self time (the *unattributed*
time) add up to the traced wall exactly.

Spans stay in memory and are exported once, as Chrome trace-event JSON
(open in Perfetto or ``chrome://tracing``), when the run ends.
"""

import time
from contextlib import contextmanager, nullcontext

__all__ = ["Recorder"]

_NULL = nullcontext()


class Recorder:
    """In-memory span recorder; while disabled ``span()`` costs one
    attribute check and records nothing."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        #: ``[name, layer, start, end, parent_index]`` per span
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, layer: str):
        if not self.enabled:
            return _NULL
        return self._span(name, layer)

    @contextmanager
    def _span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer (span durations minus direct children)."""
        child_cover = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: dict[str, float] = {}
        for (_name, layer, start, end, _parent), cover in zip(self.spans,
                                                              child_cover):
            out[layer] = out.get(layer, 0.0) + (end - start) - cover
        return out

    def chrome_events(self) -> list[dict]:
        """Complete (``ph: X``) events, microseconds from the first span."""
        if not self.spans:
            return []
        epoch = self.spans[0][2]
        return [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent,
                         "workload": self.workload},
            }
            for index, (name, layer, start, end, parent)
            in enumerate(self.spans)
        ]
