"""Multi-switch fabric: topology, sharding, fleet control, migration.

One elastic P4All program, many PISA switches. The compiler stretches
the program to each switch's resources; this package stretches the
*deployment* across a fabric of them:

* :mod:`~repro.fabric.topology` — typed switch graph (leaf/spine and
  flat load-balancer generators), per-switch targets, routing;
* :mod:`~repro.fabric.shard` — consistent-hash flow sharding with
  virtual nodes, exact moved-fraction accounting;
* :mod:`~repro.fabric.controller` — :class:`FleetController`, the one
  control loop (the single-switch runtime is a one-switch fleet):
  installs per-switch layouts through one planner and compile cache,
  shards live traffic, reconfigures a switch on a resource cut or
  hit-rate drift, and rebalances hot spots;
* :mod:`~repro.fabric.migration` — live app migration between switches
  (drain → snapshot → copy → shift → verify, with rollback).

The fleet has one run path: every switch is served in the controller's
process, one after another, and fabric parallelism is *modeled* by
makespan accounting (``FleetReport.makespan_seconds``), never claimed
as wall clock.
"""

# ``repro.runtime`` re-exports ElasticRuntime, a one-switch fleet built
# on this package's controller: loading it first lets it finish loading
# that controller, whichever of the two packages is imported first.
from .. import runtime as _runtime  # noqa: F401
from .controller import (
    FleetConfig,
    FleetController,
    FleetReport,
    FleetWindow,
    SwitchStats,
)
from .migration import FabricMigrationReport, migrate_node
from .shard import RING_SPACE, HashRing, RebalancePlan, key_hash
from .topology import FabricTopology, Link, SwitchNode, TopologyError

__all__ = [
    "FleetConfig",
    "FleetController",
    "FleetReport",
    "FleetWindow",
    "SwitchStats",
    "FabricMigrationReport",
    "migrate_node",
    "HashRing",
    "RebalancePlan",
    "key_hash",
    "RING_SPACE",
    "FabricTopology",
    "Link",
    "SwitchNode",
    "TopologyError",
]
