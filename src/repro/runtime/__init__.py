"""Elastic runtime control plane: monitor → recompile → hot-swap.

The compiler makes P4All programs *elastic at compile time*; this
package makes the deployment elastic *at run time*. It watches a live
(simulated) pipeline under a churning workload, re-invokes the compiler
when conditions change — an operator re-provisioning the target, or the
hit rate drifting away from steady state — migrates register state onto
the new layout, validates, and hot-swaps. Structured telemetry covers
every decision.

Modules:

* :mod:`~repro.runtime.monitor` — sliding-window hit rate / drift
  signals;
* :mod:`~repro.runtime.planner` — recompilation with timeout retry,
  backoff, and greedy fallback (never leaves the pipeline unconfigured);
* :mod:`~repro.runtime.migrate` — structure-generic register snapshot,
  counter folding and heat-ranked re-admission;
* :mod:`~repro.runtime.telemetry` — structured JSON event bus;
* :mod:`~repro.runtime.controller` — :class:`ElasticRuntime`, the
  control loop over one switch: a :class:`~repro.fabric.FleetController`
  over a one-switch fabric, with :class:`RunReport` as its report view.
"""

from .controller import ElasticRuntime, ReconfigRecord, RunReport, RuntimeConfig
from .migrate import (
    MigrationReport,
    QuiesceError,
    RegisterSnapshot,
    RestoreReport,
    fold_counters,
    readmit_by_heat,
    restore_registers,
    snapshot_registers,
)
from .monitor import TrafficMonitor, WindowSample
from .planner import PlanError, PlanResult, ReconfigPlanner
from .telemetry import TelemetryBus, TelemetryEvent

__all__ = [
    "ElasticRuntime",
    "ReconfigRecord",
    "RunReport",
    "RuntimeConfig",
    "MigrationReport",
    "QuiesceError",
    "RegisterSnapshot",
    "RestoreReport",
    "fold_counters",
    "readmit_by_heat",
    "restore_registers",
    "snapshot_registers",
    "TrafficMonitor",
    "WindowSample",
    "PlanError",
    "PlanResult",
    "ReconfigPlanner",
    "TelemetryBus",
    "TelemetryEvent",
]
