"""The single-switch elastic runtime: a one-switch fleet.

:class:`ElasticRuntime` is a :class:`~repro.fabric.FleetController` over
``FabricTopology.flat(1, target)`` that installs at construction. Its
switch is ``"s0"``; every trigger, the reconfiguration path, the window
loop and the telemetry are the fleet's (see :mod:`repro.fabric.
controller`):

* **target change** — the operator re-provisions the data plane;
  requested with :meth:`~ElasticRuntime.set_target` (a cut due now) or
  scheduled mid-run with :meth:`~ElasticRuntime.schedule_target_change`
  (``schedule_cut(at, "s0", target)``);
* **drift** — the switch's monitor sees the windowed hit rate fall below
  the steady baseline, and the switch replans for its current target.

:class:`RunReport` is the single-switch view of the fleet's
:class:`~repro.fabric.FleetReport` that ``p4all run`` prints.
"""

from __future__ import annotations

from ..apps.netcache import NETCACHE_UTILITY, netcache_linked
from ..core import CompileOptions
from ..fabric.controller import (
    FleetConfig,
    FleetController,
    FleetReport,
    ReconfigRecord,
)
from ..fabric.topology import FabricTopology
from ..pisa.resources import TargetSpec
from .planner import ReconfigPlanner
from .telemetry import TelemetryBus

__all__ = ["RuntimeConfig", "ReconfigRecord", "RunReport", "ElasticRuntime"]

#: The runtime's knobs are the fleet's.
RuntimeConfig = FleetConfig

#: The one switch of a runtime's fleet.
SWITCH = "s0"


class RunReport:
    """Read-only single-switch view of a :class:`FleetReport`."""

    def __init__(self, fleet: FleetReport | None = None):
        self.fleet = fleet if fleet is not None else FleetReport()

    @property
    def reconfigs(self) -> list[ReconfigRecord]:
        return [record for _switch, record in self.fleet.reconfigs]

    @property
    def packets(self) -> int:
        return self.fleet.packets

    @property
    def hits(self) -> int:
        return self.fleet.hits

    @property
    def hit_rate(self) -> float:
        return self.fleet.hit_rate

    @property
    def timeline(self) -> list[float]:
        """Per-window hit rate."""
        return self.fleet.timeline

    @property
    def final_symbols(self) -> dict[str, int]:
        return self.fleet.final_symbols.get(SWITCH, {})

    @property
    def slo_violations(self) -> list[dict]:
        return self.fleet.slo_violations

    @property
    def module_attribution(self) -> dict:
        """Per-module attribution of the last committed reconfiguration
        (empty for string-composed sources)."""
        committed = [r for r in self.reconfigs if r.committed]
        return committed[-1].module_attribution if committed else {}

    def steady_rate(self, windows: int = 5) -> float:
        return self.fleet.steady_rate(windows)

    def recovery_ratio(self, windows: int = 5) -> float:
        """Post-swap steady hit rate relative to the last committed
        reconfiguration's pre-swap baseline (1.0 = full recovery;
        >1.0 = better than before)."""
        committed = [r for r in self.reconfigs if r.committed]
        if not committed or committed[-1].baseline_rate <= 0.0:
            return 1.0
        return self.steady_rate(windows) / committed[-1].baseline_rate

    def format(self) -> str:
        lines = [
            f"processed {self.packets} packets, overall hit rate "
            f"{self.hit_rate:.3f}",
            f"final layout: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.final_symbols.items())),
        ]
        for r in self.reconfigs:
            outcome = "committed" if r.committed else f"ROLLED BACK ({r.error})"
            extra = ""
            if r.migration is not None:
                extra = (f", migrated {r.migration.kv_migrated}/"
                         f"{r.migration.kv_entries_old} cache entries "
                         f"(loss {r.migration.kv_loss_fraction:.2f})")
            lines.append(
                f"  reconfig @pkt {r.packet_index} [{r.cause}] via "
                f"{r.backend or 'none'}"
                f"{' (greedy fallback)' if r.fallback else ''} "
                f"in {r.seconds:.2f}s — {outcome}{extra}"
            )
        committed = [r for r in self.reconfigs if r.committed]
        if committed:
            lines.append(
                f"  pre-swap steady rate {committed[-1].baseline_rate:.3f}, "
                f"post-swap steady rate {self.steady_rate():.3f} "
                f"(recovery {self.recovery_ratio():.2f}x)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "timeline": self.timeline,
            "final_symbols": self.final_symbols,
            "recovery_ratio": self.recovery_ratio(),
            "module_attribution": self.module_attribution,
            "slo_violations": list(self.slo_violations),
            "reconfigs": [r.to_dict() for r in self.reconfigs],
        }


class ElasticRuntime(FleetController):
    """Live NetCache pipeline with online reconfiguration: one switch."""

    def __init__(
        self,
        target: TargetSpec,
        source=None,
        utility: str = NETCACHE_UTILITY,
        options: CompileOptions | None = None,
        config: FleetConfig | None = None,
        telemetry: TelemetryBus | None = None,
        planner: ReconfigPlanner | None = None,
    ):
        # The default source goes through the module linker so every
        # reconfig carries per-module resource attribution (routing
        # omitted: the runtime exercises the cache path); a plain
        # source string is still accepted.
        super().__init__(
            FabricTopology.flat(1, target),
            source=source or netcache_linked(utility=utility,
                                             with_routing=False),
            options=options,
            config=config or FleetConfig(window_packets=1000),
            telemetry=telemetry,
            planner=planner,
        )
        self.install_all()

    @property
    def app(self):
        """The serving app."""
        return self.topology.node(SWITCH).app

    @property
    def target(self) -> TargetSpec:
        return self.topology.node(SWITCH).target

    def set_target(self, target: TargetSpec) -> None:
        """Request re-provisioning; applied at the next window boundary."""
        self.schedule_cut(self.packets_processed, SWITCH, target)

    def schedule_target_change(self, at_packet: int,
                               target: TargetSpec) -> None:
        """Re-provision once ``at_packet`` packets have been processed
        (the eval/CLI mid-run memory-cut scenario)."""
        self.schedule_cut(at_packet, SWITCH, target)

    def run(self, stream, packets: int,
            report: RunReport | None = None) -> RunReport:
        """:meth:`FleetController.run`, viewed as one switch's report;
        passing an existing ``report`` continues it."""
        return RunReport(super().run(
            stream, packets, report.fleet if report is not None else None))
