"""Rendering dumped registries as Markdown/HTML grid reports.

Consumes the JSON artifacts the metrics plane writes —
``repro.metrics.grid/v1`` grid dumps (:class:`GridTelemetry`) or bare
``repro.metrics/v1`` registry dumps — and renders the per-cell health
table plus a full metric inventory.  This is the backend of
``python -m repro.metrics report``.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro._markdown import md_table
from repro.errors import ConfigError
from repro.metrics.registry import FORMAT, Histogram, MetricsRegistry
from repro.metrics.telemetry import (
    GRID_FORMAT,
    _fmt_count,
    _fmt_ns,
)


@dataclass
class CellDump:
    """One grid cell as loaded from a dump."""

    trials: int
    accesses: int
    wall_s: float
    registry: MetricsRegistry


@dataclass
class GridDump:
    """A loaded metrics artifact, normalized to grid shape."""

    meta: Dict[str, Any] = field(default_factory=dict)
    cells: Dict[str, CellDump] = field(default_factory=dict)
    merged: MetricsRegistry = field(default_factory=MetricsRegistry)


def load_dump(path: str) -> GridDump:
    """Load a metrics JSON artifact (grid or single-registry format).

    A bare registry dump is wrapped as a single-cell grid (cell label
    from its meta, falling back to ``"all"``).
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: not a metrics dump")
    fmt = data.get("format")
    if fmt == GRID_FORMAT:
        dump = GridDump(meta=dict(data.get("meta", {})))
        for label, cell in data.get("cells", {}).items():
            dump.cells[label] = CellDump(
                trials=int(cell.get("trials", 0)),
                accesses=int(cell.get("accesses", 0)),
                wall_s=float(cell.get("wall_s", 0.0)),
                registry=MetricsRegistry.from_dict(cell["registry"]),
            )
        dump.merged = MetricsRegistry.from_dict(data["merged"])
        return dump
    if fmt == FORMAT:
        registry = MetricsRegistry.from_dict(data)
        meta = registry.meta
        label = "all"
        if "policy" in meta and "swap" in meta:
            ratio = meta.get("capacity_ratio")
            pct = f"@{int(float(ratio) * 100)}%" if ratio is not None else ""
            label = f"{meta['policy']}/{meta['swap']}{pct}"
        trials_fam = registry.get("repro_trials_total")
        trials = int(trials_fam.aggregate().value) if trials_fam else 1
        cell = CellDump(
            trials=trials, accesses=0, wall_s=0.0, registry=registry
        )
        return GridDump(meta=dict(meta), cells={label: cell}, merged=registry)
    raise ConfigError(
        f"{path}: unknown metrics format {fmt!r} "
        f"(expected {GRID_FORMAT!r} or {FORMAT!r})"
    )


# ----------------------------------------------------------------------
# Row extraction (shared by Markdown and HTML)
# ----------------------------------------------------------------------

def _fault_tail(registry: MetricsRegistry) -> tuple:
    family = registry.get("repro_fault_service_ns")
    if family is None or not family.children:
        return (0.0, 0.0)
    hist = family.aggregate()
    return (hist.percentile(50), hist.percentile(99))


def cell_summary_rows(dump: GridDump) -> List[List[str]]:
    """Per-cell rows: cell, trials, accesses, acc/s, fault p50/p99."""
    rows = []
    for label in sorted(dump.cells):
        cell = dump.cells[label]
        p50, p99 = _fault_tail(cell.registry)
        acc_s = cell.accesses / cell.wall_s if cell.wall_s > 0 else 0.0
        rows.append(
            [
                label,
                str(cell.trials),
                _fmt_count(cell.accesses) if cell.accesses else "-",
                _fmt_count(acc_s) if acc_s else "-",
                _fmt_ns(p50),
                _fmt_ns(p99),
            ]
        )
    return rows


CELL_HEADERS = ["cell", "trials", "accesses", "acc/s", "fault p50", "fault p99"]
INVENTORY_HEADERS = ["metric", "kind", "unit", "series", "count", "value"]
CACHE_HEADERS = ["layer", "hits", "misses", "hit rate", "stores", "errors"]


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    family = registry.get(name)
    if family is None or not family.children:
        return 0
    return int(family.aggregate().value)


def cache_behavior_rows(registry: MetricsRegistry) -> List[List[str]]:
    """Dataset-cache rows (process memo + disk trace cache), or ``[]``
    when the dump predates the cache counters."""
    rows = []
    for layer, prefix, extras in (
        ("dataset memo", "repro_cache_dataset_memo", False),
        ("trace cache", "repro_cache_tracecache", True),
    ):
        hits = _counter_total(registry, f"{prefix}_hits_total")
        misses = _counter_total(registry, f"{prefix}_misses_total")
        if hits == 0 and misses == 0:
            continue
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        stores = (
            str(_counter_total(registry, f"{prefix}_stores_total"))
            if extras
            else "-"
        )
        errors = (
            str(_counter_total(registry, f"{prefix}_errors_total"))
            if extras
            else "-"
        )
        rows.append([layer, str(hits), str(misses), rate, stores, errors])
    return rows


def inventory_rows(registry: MetricsRegistry) -> List[List[str]]:
    """One row per metric family in the merged registry."""
    rows = []
    for family in registry.families():
        agg = family.aggregate()
        if isinstance(agg, Histogram):
            count = str(agg.count)
            value = (
                f"p50 {_fmt_ns(agg.percentile(50))} / "
                f"p99 {_fmt_ns(agg.percentile(99))}"
                if family.unit == "nanoseconds"
                else f"p50 {agg.percentile(50):.0f} / "
                f"p99 {agg.percentile(99):.0f}"
            )
        else:
            count = "-"
            v = agg.value
            value = str(int(v)) if float(v).is_integer() else f"{v:.4g}"
        rows.append(
            [
                family.name,
                family.kind,
                family.unit or "-",
                str(len(family.children)),
                count,
                value,
            ]
        )
    return rows


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------

def render_markdown(dump: GridDump, title: str = "Metrics report") -> str:
    """Render a dump as a Markdown grid report."""
    parts = [f"# {title}", ""]
    if dump.meta:
        parts.append(
            "_"
            + ", ".join(f"{k}={v}" for k, v in sorted(dump.meta.items()))
            + "_"
        )
        parts.append("")
    parts.append("## Cells")
    parts.append("")
    parts.append(md_table(CELL_HEADERS, cell_summary_rows(dump)))
    parts.append("")
    cache_rows = cache_behavior_rows(dump.merged)
    if cache_rows:
        parts.append("## Dataset cache behavior")
        parts.append("")
        parts.append(md_table(CACHE_HEADERS, cache_rows))
        parts.append("")
    parts.append("## Metric inventory (merged)")
    parts.append("")
    parts.append(md_table(INVENTORY_HEADERS, inventory_rows(dump.merged)))
    parts.append("")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------

def _html_table(headers: List[str], rows: List[List[str]]) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def render_html(dump: GridDump, title: str = "Metrics report") -> str:
    """Render a dump as a standalone HTML grid report."""
    meta = (
        "<p><em>"
        + html.escape(
            ", ".join(f"{k}={v}" for k, v in sorted(dump.meta.items()))
        )
        + "</em></p>"
        if dump.meta
        else ""
    )
    return (
        "<!DOCTYPE html>\n"
        "<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "th,td{border:1px solid #999;padding:0.3em 0.7em;"
        "text-align:left}</style>"
        "</head><body>"
        f"<h1>{html.escape(title)}</h1>{meta}"
        "<h2>Cells</h2>"
        + _html_table(CELL_HEADERS, cell_summary_rows(dump))
        + (
            "<h2>Dataset cache behavior</h2>"
            + _html_table(CACHE_HEADERS, cache_behavior_rows(dump.merged))
            if cache_behavior_rows(dump.merged)
            else ""
        )
        + "<h2>Metric inventory (merged)</h2>"
        + _html_table(INVENTORY_HEADERS, inventory_rows(dump.merged))
        + "</body></html>\n"
    )
