"""One snapshot, one view: backs ``p4all obs`` and ``p4all top``.

:func:`snapshot` turns observability artifacts into plain data — the
dict ``p4all obs --format json`` prints — and :func:`render` is the
only text view of it. Metrics enter by one road: Prometheus text,
whether read from a ``--metrics`` file or taken live from
``registry.to_prometheus()``. So ``p4all top``'s frames (:func:`live`)
and ``p4all obs --metrics`` print the same view of the same text; a
live frame only adds the packet counts' difference from the frame
before.

The trace view is an aggregate table per span name, instant events by
name with SLO violations called out, and the tree of the slowest root
span, rebuilt exactly from the ``span_id``/``parent_id`` the exporter
stashes in each event's ``args``. The flight view counts a recorder
dump's entries by kind and lists its last ones.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from .export import _SAMPLE_RE, _split_label_pairs
from .metrics import _escape, _format_value

__all__ = ["snapshot", "render", "live"]

#: Samples listed per metric family before the rest are elided.
_MAX_SAMPLES = 8


def snapshot(trace: dict | None = None, metrics: str | None = None,
             flight: str | None = None, *, depth: int = 6,
             top: int = 20) -> dict:
    """Plain-data view of a Chrome trace-event object, Prometheus text
    and flight-recorder JSONL text; each given artifact is one key.

    ``top`` caps the span and event tables, ``depth`` the span tree.
    """
    out: dict = {}
    if trace is not None:
        out["trace"] = _trace_data(trace, depth, top)
    if metrics is not None:
        out["metrics"] = {"families": _parse_prometheus(metrics)}
    if flight is not None:
        out["flight"] = _flight_data(flight)
    return out


def render(snap: dict, previous: dict | None = None) -> str:
    """The text view of a :func:`snapshot`. With ``previous``, the
    packet counts show their difference from that snapshot."""
    sections = []
    if "trace" in snap:
        sections.append(_trace_text(snap["trace"]))
    if "metrics" in snap:
        prev = (previous or {}).get("metrics")
        sections.append(_metrics_text(
            snap["metrics"]["families"],
            None if prev is None else _index(prev["families"])))
    if "flight" in snap:
        sections.append(_flight_text(snap["flight"]))
    return "\n\n".join(sections)


def live(registry):
    """``p4all top``'s front end: each ``next()`` is a numbered frame of
    ``registry``, rendered against the previous frame's snapshot."""
    previous = None
    for number in itertools.count(1):
        snap = snapshot(metrics=registry.to_prometheus())
        yield f"p4all top — frame {number}\n" + render(snap, previous)
        previous = snap


# -- trace ---------------------------------------------------------------------

def _fmt_ms(us: float) -> str:
    return f"{us / 1000.0:10.3f}ms"


def _trace_data(obj: dict, depth: int, top: int) -> dict:
    complete, instants = [], []
    for event in obj.get("traceEvents", ()):
        if event.get("ph") == "X":
            complete.append(event)
        elif event.get("ph") == "i":
            instants.append(event)

    durations: dict[str, list[float]] = {}
    for event in complete:
        durations.setdefault(event["name"], []).append(
            float(event.get("dur", 0)))
    ranked = sorted(durations.items(), key=lambda kv: -sum(kv[1]))
    events_by_name = Counter(event["name"] for event in instants)
    # One pass: the tree rows look their instant counts up by span id.
    events_per_span = Counter(event.get("args", {}).get("span_id")
                              for event in instants)
    return {
        "spans": len(complete),
        "events": len(instants),
        "span_names": len(durations),
        "aggregates": [
            {"name": name, "count": len(durs), "total_us": sum(durs),
             "mean_us": sum(durs) / len(durs), "max_us": max(durs)}
            for name, durs in ranked[:top]
        ],
        "top": top,
        "events_by_name": dict(events_by_name.most_common()),
        "slo_violations": [
            {k: v for k, v in event.get("args", {}).items()
             if k != "span_id"}
            for event in instants
            if event["name"] == "telemetry.slo_violation"
        ],
        "workers": sorted({
            event["args"]["worker"] for event in complete
            if event["name"].endswith("worker.batch")
            and "worker" in event.get("args", {})
        }, key=str),
        "tree": _slowest_tree(complete, events_per_span, depth),
    }


def _slowest_tree(complete: list[dict], events_per_span: Counter,
                  depth: int) -> list[dict]:
    """Pre-order rows (name, depth, duration, instant count) of the
    slowest root span's subtree, ``depth`` levels deep."""
    children: dict = {}
    ids = set()
    for event in complete:
        args = event.get("args", {})
        if args.get("span_id") is not None:
            ids.add(args["span_id"])
            children.setdefault(args.get("parent_id"), []).append(event)
    roots = [e for e in complete
             if e.get("args", {}).get("parent_id") not in ids]
    if not roots:
        return []
    rows: list[dict] = []

    def walk(event: dict, level: int) -> None:
        sid = event.get("args", {}).get("span_id")
        rows.append({"name": event["name"], "depth": level,
                     "dur_us": float(event.get("dur", 0)),
                     "events": events_per_span[sid] if sid is not None else 0})
        if level < depth and sid is not None:
            for kid in sorted(children.get(sid, ()), key=lambda e: e["ts"]):
                walk(kid, level + 1)

    walk(max(roots, key=lambda e: float(e.get("dur", 0))), 0)
    return rows


def _violation_lines(records: list[dict]) -> list[str]:
    return [f"SLO violations ({len(records)}):"] + [
        f"  {r.get('rule', '?')} on {r.get('subject', '?')}: value "
        f"{r.get('value', '?')} ewma {r.get('ewma', '?')} "
        f"vs threshold {r.get('threshold', '?')}" for r in records]


def _trace_text(data: dict) -> str:
    if not data["spans"]:
        return "trace contains no spans"
    top = data["top"]
    lines = [
        f"{data['spans']} spans, {data['events']} events, "
        f"{data['span_names']} distinct span names",
        "",
        f"{'span':<28} {'count':>6} {'total':>12} {'mean':>12} {'max':>12}",
    ]
    for row in data["aggregates"]:
        lines.append(
            f"{row['name']:<28} {row['count']:>6} "
            f"{_fmt_ms(row['total_us']):>12} "
            f"{_fmt_ms(row['mean_us']):>12} {_fmt_ms(row['max_us']):>12}"
        )
    if data["span_names"] > top:
        lines.append(f"... and {data['span_names'] - top} more span names")
    if data["events_by_name"]:
        lines += ["", "events by name:"]
        for name, count in list(data["events_by_name"].items())[:top]:
            lines.append(f"  {name:<40} {count:>6}")
    if data["slo_violations"]:
        lines += ["", *_violation_lines(data["slo_violations"])]
    if data["tree"]:
        root = data["tree"][0]
        lines += ["", f"slowest root span "
                      f"({_fmt_ms(root['dur_us']).strip()}):"]
        for row in data["tree"]:
            level = row["depth"]
            suffix = f"  [{row['events']} events]" if row["events"] else ""
            lines.append(
                f"{'  ' * level}{row['name']:<{max(30 - 2 * level, 8)}} "
                f"{_fmt_ms(row['dur_us'])}{suffix}"
            )
    return "\n".join(lines)


# -- metrics -------------------------------------------------------------------

def _unescape(value: str) -> str:
    return (value.replace(r"\\", "\0").replace(r"\"", '"')
            .replace(r"\n", "\n").replace("\0", "\\"))


def _parse_prometheus(text: str) -> dict:
    """``{family: {type, samples: [{name, labels, value}]}}`` in text
    order; ``_bucket``/``_sum``/``_count`` samples join their
    histogram's family."""
    families: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) == 4 and parts[1] == "TYPE":
                families[parts[2]] = {"type": parts[3], "samples": []}
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
                break
        labels = {}
        body = (match.group("labels") or "{}")[1:-1].strip()
        for pair in _split_label_pairs(body, lineno) if body else ():
            key, _, quoted = pair.partition("=")
            labels[key] = _unescape(quoted[1:-1])
        families.setdefault(family, {"type": "untyped", "samples": []})[
            "samples"].append({"name": name, "labels": labels,
                               "value": float(match.group("value"))})
    return families


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(labels.items()))


def _index(families: dict) -> dict:
    """Counter sample values by (sample name, labels)."""
    return {_key(s["name"], s["labels"]): s["value"]
            for fam in families.values() if fam["type"] == "counter"
            for s in fam["samples"]}


def _samples(families: dict, name: str) -> list[tuple[dict, float]]:
    """``(labels, value)`` of the samples called ``name`` — a family's
    own samples, or a histogram's ``_sum``/``_count`` — in text order,
    which the exporter sorts by label values."""
    family = families.get(name) or families.get(name.rsplit("_", 1)[0], {})
    return [(s["labels"], s["value"]) for s in family.get("samples", ())
            if s["name"] == name]


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "█" * filled + "·" * (width - filled)


def _fleet_lines(fams: dict, delta) -> list[str]:
    lines = []
    reconfigs = _samples(fams, "p4all_reconfigs_total")
    for labels, pkts in _samples(fams, "p4all_fabric_packets_total"):
        switch = labels["switch"]
        nrec = sum(v for lab, v in reconfigs if lab["switch"] == switch)
        lines.append(f"  {switch:<10} packets {_fmt_num(pkts):>10}"
                     f"{delta('p4all_fabric_packets_total', labels, pkts)}"
                     + (f"  reconfigs {int(nrec)}" if nrec else ""))
    for _, hit in _samples(fams, "p4all_window_hit_rate"):
        lines.append(f"  window hit rate {hit:6.3f}  {_bar(hit)}")
    migrations = _samples(fams, "p4all_fleet_migrations_total")
    if migrations:
        lines.append("  migrations " + ", ".join(
            f"{lab['src']}→{lab['dst']} {lab['result']} ×{int(v)}"
            for lab, v in migrations))
    return lines


def _pipeline_lines(fams: dict, delta) -> list[str]:
    lines = [f"  engine {labels['engine'] or '-':<9} packets "
             f"{_fmt_num(pkts):>10}"
             f"{delta('p4all_packets_total', labels, pkts)}"
             for labels, pkts in _samples(fams, "p4all_packets_total")]
    workers = _samples(fams, "p4all_worker_packets_total")
    if workers:
        lines.append("  worker packets " + ", ".join(
            f"w{lab['worker']}[{lab['shard_mode']}] {_fmt_num(v)}"
            for lab, v in workers))
    batches = _samples(fams, "p4all_shard_batches_total")
    if batches:
        lines.append(
            f"  shard batches {_fmt_num(sum(v for _, v in batches))}")
    return lines


def _tenant_lines(fams: dict) -> list[str]:
    violations = {(lab["rule"], lab["subject"]): v for lab, v in
                  _samples(fams, "p4all_slo_violations_total")}
    lines = []
    for lab, ewma in _samples(fams, "p4all_slo_ewma"):
        nviol = violations.get((lab["rule"], lab["subject"]), 0)
        status = f"VIOLATIONS {int(nviol)}" if nviol else "ok"
        lines.append(f"  {lab['subject']:<12} {lab['rule']:<18} "
                     f"ewma {ewma:10.4f}  {status}")
    total = sum(violations.values())
    if total:
        lines.append(f"  slo violations total {int(total)}")
    return lines


def _control_lines(fams: dict) -> list[str]:
    lines = []
    reconfigs = _samples(fams, "p4all_reconfigs_total")
    if reconfigs:
        lines.append("  reconfigs: " + ", ".join(
            f"{'/'.join(lab.values())} ×{int(v)}" for lab, v in reconfigs))
    count = sum(v for _, v in _samples(fams, "p4all_reconfig_seconds_count"))
    if count:
        total = sum(v for _, v in _samples(fams, "p4all_reconfig_seconds_sum"))
        lines.append(f"  mean reconfig {total / count:.3f}s")
    kinds = sorted(_samples(fams, "p4all_telemetry_events_total"),
                   key=lambda s: -s[1])[:6]
    if kinds:
        lines.append("  events: " + ", ".join(
            f"{lab['kind']} ×{int(v)}" for lab, v in kinds))
    return lines


def _sample_text(sample: dict) -> str:
    labels = ",".join(f'{k}="{_escape(v)}"'
                      for k, v in sample["labels"].items())
    return (f"{sample['name']}{{{labels}}}" if labels else sample["name"]) \
        + f" {_format_value(sample['value'])}"


def _metrics_text(fams: dict, prev: dict | None) -> str:
    if not fams:
        return "no metrics"

    def delta(name: str, labels: dict, value: float) -> str:
        if prev is None:
            return ""
        return f" (+{_fmt_num(value - prev.get(_key(name, labels), 0.0))})"

    lines: list[str] = []
    for title, body in (("fleet", _fleet_lines(fams, delta)),
                        ("pipeline", _pipeline_lines(fams, delta)),
                        ("tenants / SLO", _tenant_lines(fams)),
                        ("control plane", _control_lines(fams))):
        if body:
            lines += [f"── {title} ".ljust(78, "─"), *body]
    if lines:
        lines.append("")
    lines.append(f"{len(fams)} metric families")
    for name, fam in fams.items():
        samples = fam["samples"]
        lines.append(f"\n{name} ({fam['type']}, {len(samples)} samples)")
        lines += [f"  {_sample_text(s)}" for s in samples[:_MAX_SAMPLES]]
        if len(samples) > _MAX_SAMPLES:
            lines.append(f"  ... and {len(samples) - _MAX_SAMPLES} more")
    return "\n".join(lines)


# -- flight --------------------------------------------------------------------

def _flight_data(text: str) -> dict:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    # A dump closes with one metrics snapshot; the rest is the ring.
    closing = [r for r in records if r.get("kind") == "metrics_snapshot"]
    entries = [r for r in records if r.get("kind") != "metrics_snapshot"]
    return {
        "entries": len(entries),
        "by_kind": dict(Counter(e.get("kind", "?")
                                for e in entries).most_common()),
        "last": entries[-10:],
        "metrics_families": len(closing[-1].get("metrics", ())
                                if closing else ()),
        "slo_violations": [e for e in entries
                           if e.get("kind") == "telemetry"
                           and e.get("name") == "slo_violation"],
    }


def _flight_text(data: dict) -> str:
    if not data["entries"]:
        return "flight dump is empty"
    lines = [f"{data['entries']} flight entries, "
             f"{data['metrics_families']} metric families in the closing "
             f"snapshot",
             "entries by kind:"]
    for kind, count in data["by_kind"].items():
        lines.append(f"  {kind:<16} {count:>6}")
    if data["slo_violations"]:
        lines += _violation_lines(
            [entry.get("data", {}) for entry in data["slo_violations"]])
    lines.append("last entries:")
    for entry in data["last"]:
        detail = ""
        if entry.get("data"):
            pairs = ", ".join(f"{k}={v}" for k, v in
                              list(entry["data"].items())[:4])
            detail = f"  ({pairs})"
        lines.append(f"  #{entry.get('seq', '?')} {entry.get('kind', '?')}"
                     f"/{entry.get('name', '?')}{detail}")
    return "\n".join(lines)
