"""Exporters: JSON-lines traces, text span trees, metric tables.

Three consumers, three formats:

* **machines** — :func:`export_jsonl` writes one JSON object per span
  / metric / provenance record (``{"type": "span", ...}``), the
  interchange format ``tools/trace_report.py`` re-reads;
* **humans, structure** — :func:`format_span_tree` renders the call
  tree with total/self times, collapsing same-named siblings
  (``cost.total... ×104``) so optimiser inner loops stay readable;
* **humans, aggregate** — :func:`summary` /
  :func:`format_summary_table` roll spans up per name (calls, total,
  self, mean), and :func:`format_metrics_table` prints the registry.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..report.tables import format_table
from . import metrics as _metrics
from . import provenance as _provenance
from . import trace as _trace

__all__ = [
    "export_jsonl",
    "format_metrics_table",
    "format_span_tree",
    "format_summary_table",
    "read_jsonl",
    "span_to_dict",
    "summary",
]


def span_to_dict(sp: "_trace.Span") -> dict:
    """One span as a JSON-friendly dict (the JSONL line payload)."""
    return {
        "type": "span",
        "id": sp.span_id,
        "parent_id": sp.parent_id,
        "name": sp.name,
        "depth": sp.depth,
        "start": sp.start,
        "duration": sp.duration,
        "self": sp.self_time,
        "attrs": sp.attrs,
    }


def export_jsonl(path, tracer: "_trace.Tracer | None" = None,
                 registry: "_metrics.MetricsRegistry | None" = None,
                 ledger: "_provenance.ProvenanceLedger | None" = None) -> int:
    """Write spans, metrics, and provenance to a JSON-lines file.

    Each line is a JSON object tagged ``type`` (``span`` / ``metric``
    / ``provenance``); a metric line is one
    :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` entry plus its
    ``kind``. Defaults to the process-global stores; pass explicit
    objects to export a subset. Returns the line count.
    """
    tracer = tracer if tracer is not None else _trace.get_tracer()
    registry = registry if registry is not None else _metrics.get_registry()
    ledger = ledger if ledger is not None else _provenance.get_ledger()
    lines: list[str] = []
    for sp in tracer.spans:
        lines.append(json.dumps(span_to_dict(sp)))
    for section, entries in registry.to_dict().items():
        kind = _metrics.METRIC_KINDS[section]
        for entry in entries:
            lines.append(json.dumps({"type": "metric", "kind": kind, **entry}))
    for rec in ledger.records:
        lines.append(json.dumps(
            {"type": "provenance", "source": rec.source,
             "equation": rec.equation, "params": rec.params,
             "dataset": rec.dataset,
             "rows": None if rec.rows is None else list(rec.rows)}))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_jsonl(path) -> list[dict]:
    """Read a JSON-lines export back into a list of dicts."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _fmt_seconds(seconds: float) -> str:
    """Human time: seconds, milliseconds, or microseconds as fits."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _tree_lines(lines: list[str], siblings: list[dict],
                children_map: dict, depth: int) -> None:
    """Render one sibling group, collapsing repeats of the same name."""
    order: list[str] = []
    groups: dict[str, list[dict]] = {}
    for sp in siblings:
        if sp["name"] not in groups:
            order.append(sp["name"])
            groups[sp["name"]] = []
        groups[sp["name"]].append(sp)
    for name in order:
        members = groups[name]
        total = sum(s["duration"] for s in members)
        self_time = sum(s["self"] for s in members)
        label = f"{name} x{len(members)}" if len(members) > 1 else name
        pad = "  " * depth
        lines.append(f"{pad}{label:<{max(46 - len(pad), 1)}} "
                     f"total {_fmt_seconds(total):>9}  "
                     f"self {_fmt_seconds(self_time):>9}")
        children: list[dict] = []
        for member in members:
            children.extend(children_map.get(member["id"], []))
        children.sort(key=lambda s: s["start"])
        if children:
            _tree_lines(lines, children, children_map, depth + 1)


def format_span_tree(records: list[dict] | None = None) -> str:
    """Indented span tree with total/self times.

    Accepts span dicts (as produced by :func:`span_to_dict` or read
    back via :func:`read_jsonl`; non-span records are ignored) or, by
    default, the live global tracer. Same-named siblings collapse into
    one ``name xN`` line with summed times.
    """
    if records is None:
        records = [span_to_dict(sp) for sp in _trace.get_tracer().spans]
    spans = [r for r in records if r.get("type", "span") == "span"]
    if not spans:
        return "(no spans recorded)"
    ids = {s["id"] for s in spans}
    children_map: dict = {}
    roots = []
    for sp in spans:
        parent = sp["parent_id"]
        if parent is None or parent not in ids:
            roots.append(sp)
        else:
            children_map.setdefault(parent, []).append(sp)
    roots.sort(key=lambda s: s["start"])
    lines: list[str] = []
    _tree_lines(lines, roots, children_map, 0)
    return "\n".join(lines)


def summary(tracer: "_trace.Tracer | None" = None) -> list[dict]:
    """Per-name roll-up of the trace: calls, total, self, and mean time.

    Sorted by total time, descending — the profile view.
    """
    tracer = tracer if tracer is not None else _trace.get_tracer()
    agg: dict[str, dict] = {}
    for sp in tracer.spans:
        row = agg.get(sp.name)
        if row is None:
            row = agg[sp.name] = {"name": sp.name, "calls": 0,
                                  "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += sp.duration
        row["self_s"] += sp.self_time
    out = sorted(agg.values(), key=lambda r: r["total_s"], reverse=True)
    for row in out:
        row["mean_s"] = row["total_s"] / row["calls"]
    return out


def format_summary_table(tracer: "_trace.Tracer | None" = None) -> str:
    """The :func:`summary` roll-up as an aligned text table."""
    rows = summary(tracer)
    if not rows:
        return "(no spans recorded)"
    return format_table(
        ["span", "calls", "total_ms", "self_ms", "mean_ms"],
        [(r["name"], r["calls"], r["total_s"] * 1e3, r["self_s"] * 1e3,
          r["mean_s"] * 1e3) for r in rows],
        float_spec=".3f",
    )


def format_metrics_table(registry: "_metrics.MetricsRegistry | None" = None) -> str:
    """The metrics registry as aligned text tables.

    Counters and gauges render as the classic name/kind/value/count
    table; sketches follow in their own table with p50/p90/p99/max
    columns in the sketch's own unit (seconds for span durations).
    """
    registry = registry if registry is not None else _metrics.get_registry()
    rows = registry.rows()
    sketch_rows = registry.sketch_rows()
    if not rows and not sketch_rows:
        return "(no metrics recorded)"
    sections = []
    if rows:
        sections.append(format_table(
            ["metric", "kind", "value", "count"],
            [(name, kind, value, count) for name, kind, value, count in rows],
            float_spec=".6g",
        ))
    if sketch_rows:
        sections.append(format_table(
            ["sketch", "count", "p50", "p90", "p99", "max"], sketch_rows,
            float_spec=".6g",
        ))
    return "\n\n".join(sections)
