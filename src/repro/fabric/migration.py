"""Live app migration between fabric switches.

Moves a running app's *state and shard* from one switch to another
without losing logical keys — the fabric analogue of p4containerflow's
node migration, but for elastic P4All state rather than NAT entries.
The protocol, driven by :func:`migrate_node`:

1. **drain** — the fleet controller stops routing new keys to ``src``
   (mid-stream, the run loop buffers the in-flight window's src-owned
   keys at the ingress; the buffered count is the migration's downtime
   in packets);
2. **snapshot + copy** — the app moves its own state:
   :meth:`NetCacheApp.migrate_to(dst, accumulate=True)
   <repro.apps.netcache.NetCacheApp.migrate_to>` snapshots ``src``'s
   sketch at a quiesce point and fold-restores it onto ``dst``
   *accumulating* onto its existing counts (``dst`` may already serve
   its own shard), then re-admits the cached entries hottest-first by
   the source sketch's heat estimate;
3. **shift routes** — the hash ring relabels every ``src`` point to
   ``dst``: exactly ``src``'s keys move, all to ``dst``, nobody else's
   placement changes;
4. **verify** — :meth:`~repro.apps.netcache.NetCacheApp.canary` on
   ``dst`` with the hottest migrated key must hit before the change
   commits. On any failure the ring and ``dst``'s state (registers and
   cached-key set, :meth:`~repro.apps.netcache.NetCacheApp.snapshot`)
   roll back to their pre-migration image and ``src`` keeps serving.

After commit ``src`` is marked ``drained`` (out of the ring, app still
installed); a ``standby`` destination is promoted to a serving role.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.errors import CompileError
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..runtime.migrate import MigrationReport

__all__ = ["FabricMigrationReport", "migrate_node"]


@dataclass(kw_only=True)
class FabricMigrationReport(MigrationReport):
    """One live migration: what moved, how long traffic paused."""

    src: str
    dst: str
    committed: bool = False
    packet_index: int = 0
    seconds: float = 0.0
    #: exact keyspace fraction handed over (src's arc share)
    moved_fraction: float = 0.0
    #: keys buffered while the shard was in flight (filled by the run
    #: loop when the migration fires mid-stream)
    downtime_packets: int = 0
    #: buffered keys replayed onto the destination after commit
    replayed_packets: int = 0
    canary_key: int | None = None
    error: str = ""

    def summary(self) -> str:
        outcome = ("committed" if self.committed
                   else f"ROLLED BACK ({self.error})")
        return (
            f"migration {self.src} → {self.dst} @pkt {self.packet_index}: "
            f"{outcome}, {self.kv_migrated}/{self.kv_entries_old} entries, "
            f"{self.moved_fraction:.3f} of keyspace, downtime "
            f"{self.downtime_packets} pkts in {self.seconds:.3f}s"
        )

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "committed": self.committed,
            "packet_index": self.packet_index,
            "seconds": self.seconds,
            "moved_fraction": self.moved_fraction,
            "downtime_packets": self.downtime_packets,
            "replayed_packets": self.replayed_packets,
            **super().to_dict(),
            "canary_key": self.canary_key,
            "error": self.error,
            "notes": list(self.notes),
        }


def _serving_role(topology) -> str:
    """Role a promoted standby takes: match the fabric's serving kind."""
    for node in topology.switches.values():
        if node.serving:
            return node.role
    return "switch"


def migrate_node(controller, src: str, dst: str,
                 cause: str = "migration",
                 downtime_packets: int = 0,
                 replay=None) -> FabricMigrationReport:
    """Run the drain → snapshot → copy → shift → verify protocol.

    ``controller`` is the owning :class:`~repro.fabric.controller.
    FleetController`; ``src`` must be on the ring, ``dst`` must have an
    app installed (serving peer or warm standby). ``downtime_packets``
    is the number of in-flight keys the run loop buffered for the drain
    (0 when called between windows); ``replay`` is the run loop's
    callback that drains that buffer — it runs after the commit/rollback
    decision but *before* the telemetry event, so the emitted
    ``replayed_packets`` reflects what actually replayed. Rollback
    restores the ring and ``dst``'s state, so a failed migration leaves
    the fabric exactly as it was.
    """
    topology = controller.topology
    src_node = topology.node(src)
    dst_node = topology.node(dst)
    report = FabricMigrationReport(
        src=src, dst=dst, packet_index=controller.packets_processed,
        downtime_packets=downtime_packets,
    )
    if src not in controller.ring:
        report.error = f"source {src!r} is not serving (not on the ring)"
        return _finish(controller, report, cause, replay)
    if src_node.app is None or dst_node.app is None:
        report.error = "both switches need an installed app"
        return _finish(controller, report, cause, replay)

    started = time.perf_counter()
    old_ring = controller.ring.copy()
    report.moved_fraction = old_ring.owner_shares().get(src, 0.0)
    with trace.span("fleet.migrate", src=src, dst=dst,
                    cause=cause) as span:
        # Pre-image of the destination, for rollback.
        dst_rollback = dst_node.app.snapshot()
        try:
            # copy: sketch accumulates onto dst's own counts; KV entries
            # re-admit hottest-first.
            mig = src_node.app.migrate_to(dst_node.app, accumulate=True)
            vars(report).update(vars(mig))      # the base class's fields

            # shift routes: relabel src's arcs to dst.
            controller.ring.reassign(src, dst)

            # verify: the hottest migrated key must hit on dst before
            # the handover commits.
            report.canary_key = src_node.app.hottest_shared_key(dst_node.app)
            if report.canary_key is not None:
                dst_node.app.canary(report.canary_key)
            elif report.kv_entries_old:
                raise CompileError(
                    f"canary failed: no migrated entry survived on {dst}")

            # commit: src drains, a standby dst is promoted to serving.
            src_node.role = "drained"
            if dst_node.role == "standby":
                dst_node.role = _serving_role(topology)
            report.committed = True
        except Exception as exc:
            controller.ring = old_ring
            dst_node.app.restore(dst_rollback)
            report.error = str(exc)
        report.seconds = time.perf_counter() - started
        span.set_attrs(committed=report.committed,
                       moved_fraction=report.moved_fraction,
                       kv_migrated=report.kv_migrated,
                       error=report.error)
    return _finish(controller, report, cause, replay)


def _finish(controller, report: FabricMigrationReport,
            cause: str, replay=None) -> FabricMigrationReport:
    if replay is not None:
        replay(report)
    outcome = "committed" if report.committed else "rolled-back"
    obs_metrics.counter(
        "p4all_fleet_migrations_total",
        help="Live app migrations with per-switch attribution.",
        labels=("src", "dst", "result"),
    ).inc(src=report.src, dst=report.dst, result=outcome)
    if report.committed:
        obs_metrics.histogram(
            "p4all_fabric_migration_downtime_packets",
            help="Packets buffered during live migrations.",
            buckets=(0, 10, 100, 1000, 10000),
        ).observe(report.downtime_packets)
    controller.telemetry.emit(
        "fabric_migration", cause=cause, **report.to_dict(),
    )
    return report
