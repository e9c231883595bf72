"""Multi-switch fabric: topology, sharding, fleet control, migration.

One elastic P4All program, many PISA switches. The compiler stretches
the program to each switch's resources; this package stretches the
*deployment* across a fabric of them:

* :mod:`~repro.fabric.topology` — typed switch graph (leaf/spine and
  flat load-balancer generators), per-switch targets, routing;
* :mod:`~repro.fabric.shard` — consistent-hash flow sharding with
  virtual nodes, exact moved-fraction accounting;
* :mod:`~repro.fabric.controller` — :class:`FleetController`: installs
  per-switch layouts through a shared compile cache, shards live
  traffic, recompiles switches concurrently on resource cuts, and
  rebalances hot spots;
* :mod:`~repro.fabric.migration` — live app migration between switches
  (drain → snapshot → copy → shift → verify, with rollback).

The fleet has one run path: every switch is served in the controller's
process, one after another, and fabric parallelism is *modeled* by
makespan accounting (``FleetReport.makespan_seconds``), never claimed
as wall clock.
"""

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
