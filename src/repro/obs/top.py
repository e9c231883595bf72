"""Live fleet dashboard: backs ``p4all top``.

:class:`TopDashboard` renders one frame of fleet / pipeline / tenant
state straight from the live :class:`~repro.obs.metrics.MetricsRegistry`
— no trace file, no scraping. Counters become rates by differencing
consecutive renders; gauges and SLO EWMAs are shown as-is. The CLI
driver (:func:`run_top`) embeds a fabric or elastic-runtime scenario
and repaints a frame at every monitoring window by subscribing to the
telemetry bus, so ``p4all top`` is a self-contained demo of the whole
observability plane: worker metrics merged cross-process, SLO
violations surfacing as they fire, and the flight recorder armed
underneath.

The dashboard reads only public registry state (metric ``to_dict``
snapshots), so it also works against a registry rebuilt from another
process's shipped deltas.
"""

from __future__ import annotations

import sys
import time

__all__ = ["TopDashboard", "run_top"]


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "█" * filled + "·" * (width - filled)


class TopDashboard:
    """Renders the registry as a framed multi-section terminal page.

    Stateful only for rate computation: each :meth:`render` snapshots
    every counter sample and differences against the previous frame's
    snapshot over the elapsed wall time.
    """

    def __init__(self, registry=None, width: int = 78):
        if registry is None:
            from . import metrics as registry  # the global registry
        self.registry = registry
        self.width = width
        self.frames = 0
        self._prev: dict[tuple[str, str], float] = {}
        self._prev_t: float | None = None

    # -- registry access ---------------------------------------------------------
    def _samples(self, name: str) -> dict[str, float]:
        """``label_key -> value`` for one metric (empty if unregistered).

        Label keys are the comma-joined label values, matching the
        metric's own ``to_dict`` encoding."""
        metric = self.registry.get(name)
        if metric is None:
            return {}
        values = metric.to_dict()["values"]
        if metric.kind == "histogram":
            return {k: float(v["count"]) for k, v in values.items()}
        return {k: float(v) for k, v in values.items()}

    def _hist_mean(self, name: str) -> float | None:
        metric = self.registry.get(name)
        if metric is None or metric.kind != "histogram":
            return None
        total_sum = 0.0
        total_count = 0
        for state in metric.to_dict()["values"].values():
            total_sum += state["sum"]
            total_count += state["count"]
        if not total_count:
            return None
        return total_sum / total_count

    def _rate(self, name: str, key: str, value: float,
              dt: float | None) -> str:
        prev = self._prev.get((name, key))
        if dt is None or prev is None or dt <= 0:
            return ""
        return f" ({(value - prev) / dt:,.0f}/s)"

    # -- sections ----------------------------------------------------------------
    def _rule(self, title: str) -> str:
        body = f"── {title} "
        return body + "─" * max(self.width - len(body), 0)

    def _fleet_lines(self, dt: float | None) -> list[str]:
        lines: list[str] = []
        per_switch = self._samples("p4all_fabric_packets_total")
        reconfigs = self._samples("p4all_reconfigs_total")
        migrations = self._samples("p4all_fleet_migrations_total")
        for switch in sorted(per_switch):
            pkts = per_switch[switch]
            # label order: (switch, cause, outcome)
            nrec = sum(v for k, v in reconfigs.items()
                       if k.split(",")[0] == switch)
            extra = f"  reconfigs {int(nrec)}" if nrec else ""
            lines.append(
                f"  {switch:<10} packets {_fmt_num(pkts):>10}"
                f"{self._rate('p4all_fabric_packets_total', switch, pkts, dt)}"
                f"{extra}"
            )
        hit = self._samples("p4all_window_hit_rate").get("")
        if hit is not None:
            lines.append(f"  window hit rate {hit:6.3f}  {_bar(hit)}")
        if migrations:
            parts = ", ".join(
                f"{k.replace(',', '→', 1).replace(',', ' ', 1)} ×{int(v)}"
                for k, v in sorted(migrations.items())
            )
            lines.append(f"  migrations {parts}")
        return lines

    def _pipeline_lines(self, dt: float | None) -> list[str]:
        lines: list[str] = []
        for engine, pkts in sorted(
                self._samples("p4all_packets_total").items()):
            lines.append(
                f"  engine {engine or '-':<9} packets {_fmt_num(pkts):>10}"
                f"{self._rate('p4all_packets_total', engine, pkts, dt)}"
            )
        workers = self._samples("p4all_worker_packets_total")
        if workers:
            parts = ", ".join(
                f"w{k.split(',')[0]}[{k.split(',')[1]}] {_fmt_num(v)}"
                for k, v in sorted(workers.items())
            )
            lines.append(f"  worker packets {parts}")
        batches = self._samples("p4all_shard_batches_total")
        if batches:
            total = sum(batches.values())
            lines.append(f"  shard batches {_fmt_num(total)}")
        return lines

    def _tenant_lines(self) -> list[str]:
        lines: list[str] = []
        ewma = self._samples("p4all_slo_ewma")
        violations = self._samples("p4all_slo_violations_total")
        # label order for both: (rule, subject)
        for key in sorted(ewma):
            rule, _, subject = key.partition(",")
            nviol = violations.get(key, 0)
            status = f"VIOLATIONS {int(nviol)}" if nviol else "ok"
            lines.append(
                f"  {subject:<12} {rule:<18} ewma {ewma[key]:10.4f}  {status}"
            )
        total = sum(violations.values())
        if total:
            lines.append(f"  slo violations total {int(total)}")
        return lines

    def _control_lines(self) -> list[str]:
        lines: list[str] = []
        # Every switch's swaps (the fleet section counts them per switch).
        rows = self._samples("p4all_reconfigs_total")
        if rows:
            parts = ", ".join(f"{k.replace(',', '/')} ×{int(v)}"
                              for k, v in sorted(rows.items()))
            lines.append(f"  reconfigs: {parts}")
        mean = self._hist_mean("p4all_reconfig_seconds")
        if mean is not None:
            lines.append(f"  mean reconfig {mean:.3f}s")
        kinds = self._samples("p4all_telemetry_events_total")
        if kinds:
            ranked = sorted(kinds.items(), key=lambda kv: -kv[1])[:6]
            parts = ", ".join(f"{k} ×{int(v)}" for k, v in ranked)
            lines.append(f"  events: {parts}")
        return lines

    # -- the frame ---------------------------------------------------------------
    def render(self) -> str:
        """One full frame; advances the rate baseline."""
        now = time.perf_counter()
        dt = (now - self._prev_t) if self._prev_t is not None else None
        self.frames += 1
        header = f"p4all top — frame {self.frames}"
        if dt is not None:
            header += f", +{dt:.2f}s"
        lines = [header]
        for title, body in (("fleet", self._fleet_lines(dt)),
                            ("pipeline", self._pipeline_lines(dt)),
                            ("tenants / SLO", self._tenant_lines()),
                            ("control plane", self._control_lines())):
            if body:
                lines.append(self._rule(title))
                lines.extend(body)
        if len(lines) == 1:
            lines.append("(no metrics yet)")

        # Advance the rate baseline: snapshot every counter sample.
        self._prev_t = now
        self._prev = {}
        for metric in self.registry.collect():
            if metric.kind != "counter":
                continue
            for key, value in metric.to_dict()["values"].items():
                self._prev[(metric.name, key)] = float(value)
        return "\n".join(lines)


# -- the `p4all top` scenario driver -----------------------------------------

def _clear_screen(out) -> None:
    out.write("\x1b[H\x1b[2J")


def run_top(mode: str = "fabric", packets: int = 8000, switches: int = 3,
            window: int = 1000, universe: int = 4000, alpha: float = 1.1,
            seed: int = 42, engine: str | None = None,
            cut: bool = True, clear: bool | None = None,
            out=None, target=None, options=None) -> int:
    """Drive an embedded scenario and repaint a dashboard frame at
    every monitoring window.

    ``mode`` picks the scenario: ``"fabric"`` shards NetCache over a
    flat fleet (with a mid-run memory cut on the first switch when
    ``cut``); ``"run"`` drives the single-switch elastic runtime under
    a churning Zipf stream. ``clear`` forces/suppresses the ANSI
    clear-screen between frames (default: only when ``out`` is a tty).
    """
    import dataclasses

    from ..pisa.resources import get_target
    from ..runtime import TelemetryBus

    out = out or sys.stdout
    use_ansi = out.isatty() if clear is None else clear
    target = target or get_target("tofino")
    telemetry = TelemetryBus()
    dash = TopDashboard()

    def repaint(event) -> None:
        if event.kind != "window":
            return
        frame = dash.render()
        if use_ansi:
            _clear_screen(out)
        out.write(frame + "\n")
        if not use_ansi:
            out.write("\n")
        out.flush()

    telemetry.subscribe(repaint)

    if mode == "fabric":
        from ..fabric import FabricTopology, FleetConfig, FleetController
        from ..workloads import ZipfGenerator

        fabric = FabricTopology.flat(switches, target)
        config = FleetConfig(window_packets=window, engine=engine)
        controller = FleetController(fabric, config=config,
                                     telemetry=telemetry, options=options)
        if cut:
            first = fabric.serving()[0]
            controller.schedule_cut(
                packets // 2, first,
                dataclasses.replace(
                    target,
                    memory_bits_per_stage=target.memory_bits_per_stage // 2,
                ),
            )
        stream = ZipfGenerator(universe, alpha=alpha, seed=seed)
        with controller:
            report = controller.run(stream, packets=packets)
        summary = (f"done: {report.packets} packets, "
                   f"hit rate {report.hit_rate:.3f}, "
                   f"{len(report.reconfigs)} reconfigs, "
                   f"{len(report.slo_violations)} SLO violations")
    elif mode == "run":
        from ..runtime import ElasticRuntime, RuntimeConfig
        from ..workloads.churn import ChurningZipf

        config = RuntimeConfig(window_packets=window, engine=engine)
        runtime = ElasticRuntime(target, config=config, telemetry=telemetry,
                                 options=options)
        if cut:
            runtime.schedule_target_change(
                packets // 2,
                dataclasses.replace(
                    target,
                    memory_bits_per_stage=target.memory_bits_per_stage // 2,
                ),
            )
        stream = ChurningZipf(universe, alpha=alpha, seed=seed)
        report = runtime.run(stream, packets=packets)
        summary = (f"done: {report.packets} packets, "
                   f"final hit rate "
                   f"{report.timeline[-1] if report.timeline else 0.0:.3f}, "
                   f"{len(report.reconfigs)} reconfigs, "
                   f"{len(report.slo_violations)} SLO violations")
    else:
        raise ValueError(f"unknown top mode {mode!r}")

    frame = dash.render()
    if use_ansi:
        _clear_screen(out)
    out.write(frame + "\n" + summary + "\n")
    out.flush()
    telemetry.close()
    return 0
