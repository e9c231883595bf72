"""Per-tenant SLO monitoring: EWMA + threshold rules over runtime signals.

The elastic control loop's whole promise is that tenants keep their
service level through resource cuts and migrations. This module watches
the signals that promise is made of — per-module hit rate, headroom
over the utility floor the ILP was told to respect, reconfiguration
latency — smooths each (rule, subject) series with an EWMA, and raises
a structured ``slo_violation`` exactly once per excursion (with a
matching ``slo_recovered`` when the series comes back).

Each transition is one event on the runtime's
:class:`~repro.runtime.telemetry.TelemetryBus`, whose ``emit`` carries
it on to the trace, the flight ring and the per-kind event counter; the
controllers, run reports and ``p4all obs`` all read that one event.
Violations also bump ``p4all_slo_violations_total{rule,subject}``, and
every sample sets the ``p4all_slo_ewma{rule,subject}`` gauge.

:class:`SloMonitor` is deliberately passive — controllers feed it via
:meth:`~SloMonitor.observe` from signals they already compute, so it
adds no measurement of its own to the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry

__all__ = ["SloRule", "SloMonitor", "DEFAULT_SLO_RULES"]


@dataclass(frozen=True)
class SloRule:
    """One threshold rule over an EWMA-smoothed series.

    ``direction="min"`` fires when the EWMA drops *below* ``threshold``
    (hit rate, headroom); ``"max"`` fires when it rises above
    (latency). ``warmup`` samples are consumed before the rule is ever
    evaluated — windowed hit rates are garbage until caches fill — and
    ``min_samples`` more must arrive before the first verdict.
    """

    name: str
    threshold: float
    direction: str = "min"      # "min" | "max"
    alpha: float = 0.4          # EWMA weight of the newest sample
    min_samples: int = 3
    warmup: int = 0

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError(f"SloRule direction must be min|max, "
                             f"got {self.direction!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"SloRule alpha must be in (0, 1], "
                             f"got {self.alpha}")

    def breached(self, ewma: float) -> bool:
        if self.direction == "min":
            return ewma < self.threshold
        return ewma > self.threshold


#: The rules the runtime and fleet controllers install.
DEFAULT_SLO_RULES = (
    # Per-tenant windowed hit rate: fire when the smoothed rate sinks
    # below 25%. Warm up past the cold-cache windows first.
    SloRule("hit_rate", threshold=0.25, direction="min",
            alpha=0.35, min_samples=3, warmup=5),
    # Weighted utility minus the tenant's declared floor: any negative
    # headroom means the ILP's floor promise is broken — one committed
    # layout is enough evidence, no smoothing.
    SloRule("utility_headroom", threshold=0.0, direction="min",
            alpha=1.0, min_samples=1),
    # Reconfiguration wall-clock: the control loop must stay responsive
    # to pressure.
    SloRule("reconfig_seconds", threshold=30.0, direction="max",
            alpha=0.5, min_samples=1),
)


@dataclass
class _Series:
    ewma: float = 0.0
    samples: int = 0
    violating: bool = False


class SloMonitor:
    """Tracks (rule, subject) series and raises structured violations."""

    def __init__(self, telemetry, rules=None,
                 registry: MetricsRegistry | None = None):
        if registry is None:
            from . import metrics as registry
        self.rules: dict[str, SloRule] = {
            r.name: r for r in (rules if rules is not None
                                else DEFAULT_SLO_RULES)
        }
        self.telemetry = telemetry
        self._series: dict[tuple[str, str], _Series] = {}
        self.violations: list[dict[str, Any]] = []
        self._ewma_gauge = registry.gauge(
            "p4all_slo_ewma",
            help="EWMA-smoothed SLO signal per rule and subject.",
            labels=("rule", "subject"),
        )
        self._violation_counter = registry.counter(
            "p4all_slo_violations_total",
            help="SLO violation transitions per rule and subject.",
            labels=("rule", "subject"),
        )

    # -- feeding ---------------------------------------------------------------
    def observe(self, rule_name: str, subject: str, value: float,
                packet_index: int | None = None) -> dict[str, Any] | None:
        """Feed one sample; returns the violation record when this
        sample tips the series over, else None."""
        rule = self.rules.get(rule_name)
        if rule is None:
            return None
        series = self._series.setdefault((rule_name, subject), _Series())
        series.samples += 1
        if series.samples == 1:
            series.ewma = float(value)
        else:
            series.ewma += rule.alpha * (float(value) - series.ewma)
        self._ewma_gauge.set(series.ewma, rule=rule_name, subject=subject)
        if series.samples < rule.warmup + rule.min_samples:
            return None
        breached = rule.breached(series.ewma)
        if breached and not series.violating:
            series.violating = True
            self._violation_counter.inc(rule=rule_name, subject=subject)
            record = self._emit("slo_violation", rule, subject, value,
                                series, packet_index)
            self.violations.append(record)
            return record
        if not breached and series.violating:
            series.violating = False
            self._emit("slo_recovered", rule, subject, value, series,
                       packet_index)
        return None

    def _emit(self, kind: str, rule: SloRule, subject: str, value: float,
              series: _Series, packet_index) -> dict[str, Any]:
        """Put one transition on the bus; returns its record."""
        record = {
            "rule": rule.name,
            "subject": subject,
            "value": float(value),
            "ewma": series.ewma,
            "threshold": rule.threshold,
            "direction": rule.direction,
        }
        self.telemetry.emit(kind, packet_index=packet_index, **record)
        return {**record, "packet_index": packet_index}

    # -- introspection ---------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Current EWMA/violating state of every tracked series."""
        return {
            f"{rule}:{subject}": {
                "ewma": s.ewma,
                "samples": s.samples,
                "violating": s.violating,
            }
            for (rule, subject), s in sorted(self._series.items())
        }

    def __len__(self) -> int:
        return len(self.violations)
