"""Traffic monitor: sliding-window hit rate and drift.

The monitor is the runtime's sensor. The packet loop reports each
processed window (``record``); the monitor keeps a bounded history of
per-window hit rates and a drift signal: the current window's hit rate
falling :data:`DROP_THRESHOLD` below the steady baseline. A drift
detection is what arms the reconfiguration planner when no explicit
target change is pending —
NetCache's "the hot set moved and the cache stopped following it".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

__all__ = ["WindowSample", "TrafficMonitor", "DROP_THRESHOLD",
           "BASELINE_WINDOWS", "HISTORY"]

#: Relative hit-rate drop below the baseline that means drift.
DROP_THRESHOLD = 0.25
#: Windows forming the steady baseline; as many windows after a start
#: or a swap never signal drift.
BASELINE_WINDOWS = 5
#: Windows of history kept.
HISTORY = 4096


@dataclass(frozen=True)
class WindowSample:
    """Aggregated statistics of one monitoring window."""

    index: int
    packets: int
    hits: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0


class TrafficMonitor:
    """Sliding-window statistics over the packet stream.

    :data:`BASELINE_WINDOWS` windows form the steady-state reference (the
    mean of the most recent full windows *before* the current one);
    drift is declared when the newest window's hit rate drops more than
    :data:`DROP_THRESHOLD` (relative) below that baseline. The first
    :data:`BASELINE_WINDOWS` windows after a start or a swap never
    signal drift — a cold cache always starts near 0% and must be
    allowed to fill.
    """

    def __init__(self):
        self.samples: deque[WindowSample] = deque(maxlen=HISTORY)
        self.windows_recorded = 0
        self._windows_since_reset = 0

    # -- recording -------------------------------------------------------------
    def record(self, hits: int, packets: int) -> WindowSample:
        sample = WindowSample(
            index=self.windows_recorded, packets=packets, hits=hits
        )
        self.samples.append(sample)
        self.windows_recorded += 1
        self._windows_since_reset += 1
        return sample

    def reset_baseline(self) -> None:
        """Restart warmup — called right after a hot swap so the
        rebuilding cache is not immediately re-flagged as drifting."""
        self._windows_since_reset = 0

    # -- signals ---------------------------------------------------------------
    @property
    def timeline(self) -> list[float]:
        """Per-window hit rates, oldest first (bounded by :data:`HISTORY`)."""
        return [s.hit_rate for s in self.samples]

    def current_rate(self) -> float:
        return self.samples[-1].hit_rate if self.samples else 0.0

    def _tail(self, count: int, skip: int = 0) -> list[WindowSample]:
        """The ``count`` newest samples before the ``skip`` newest, oldest
        first (``count`` 0: all of them). Reads only those: the drift
        check runs every window, and the history holds thousands."""
        newest = reversed(self.samples)
        return list(islice(newest, skip, skip + count if count else None)
                    )[::-1]

    def steady_rate(self, windows: int | None = None) -> float:
        """Mean hit rate over the last ``windows`` full windows
        (excluding none — this *includes* the newest)."""
        recent = self._tail(windows or BASELINE_WINDOWS)
        if not recent:
            return 0.0
        return sum(s.hit_rate for s in recent) / len(recent)

    def baseline_rate(self) -> float:
        """Steady reference: mean of the :data:`BASELINE_WINDOWS` windows
        preceding the current one."""
        prior = self._tail(BASELINE_WINDOWS, skip=1)
        if not prior:
            return 0.0
        return sum(s.hit_rate for s in prior) / len(prior)

    def drift_detected(self) -> bool:
        """True when the newest window sits :data:`DROP_THRESHOLD` below
        the baseline (and warmup has passed since the last reset/swap)."""
        if self._windows_since_reset <= BASELINE_WINDOWS:
            return False
        baseline = self.baseline_rate()
        if baseline <= 0.0:
            return False
        return self.current_rate() < baseline * (1.0 - DROP_THRESHOLD)
