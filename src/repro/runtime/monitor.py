"""Traffic monitor: sliding-window hit rate and drift.

The monitor is the runtime's sensor. The packet loop reports each
processed window (``record``); the monitor keeps a bounded history of
per-window hit rates and a drift signal: the current window's hit rate
falling a configured fraction below the steady baseline. A drift detection is what arms the
reconfiguration planner when no explicit target change is pending —
NetCache's "the hot set moved and the cache stopped following it".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["WindowSample", "TrafficMonitor"]


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

    ``baseline_windows`` windows form the steady-state reference (the
    mean of the most recent full windows *before* the current one);
    drift is declared when the newest window's hit rate drops more than
    ``drop_threshold`` (relative) below that baseline. The first
    ``warmup_windows`` windows never signal drift — a cold cache always
    starts near 0% and must be allowed to fill.
    """

    def __init__(
        self,
        baseline_windows: int = 5,
        drop_threshold: float = 0.2,
        warmup_windows: int = 4,
        history: int = 4096,
    ):
        if not 0.0 < drop_threshold < 1.0:
            raise ValueError("drop_threshold must be within (0, 1)")
        self.baseline_windows = baseline_windows
        self.drop_threshold = drop_threshold
        self.warmup_windows = warmup_windows
        self.samples: deque[WindowSample] = deque(maxlen=history)
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
        """Per-window hit rates, oldest first (bounded by ``history``)."""
        return [s.hit_rate for s in self.samples]

    def current_rate(self) -> float:
        return self.samples[-1].hit_rate if self.samples else 0.0

    def steady_rate(self, windows: int | None = None) -> float:
        """Mean hit rate over the last ``windows`` full windows
        (excluding none — this *includes* the newest)."""
        windows = windows or self.baseline_windows
        recent = list(self.samples)[-windows:]
        if not recent:
            return 0.0
        return sum(s.hit_rate for s in recent) / len(recent)

    def baseline_rate(self) -> float:
        """Steady reference: mean of the ``baseline_windows`` windows
        preceding the current one."""
        prior = list(self.samples)[:-1][-self.baseline_windows:]
        if not prior:
            return 0.0
        return sum(s.hit_rate for s in prior) / len(prior)

    def drift_detected(self) -> bool:
        """True when the newest window sits ``drop_threshold`` below the
        baseline (and warmup has passed since the last reset/swap)."""
        if self._windows_since_reset <= max(self.warmup_windows,
                                            self.baseline_windows):
            return False
        baseline = self.baseline_rate()
        if baseline <= 0.0:
            return False
        return self.current_rate() < baseline * (1.0 - self.drop_threshold)
