"""Critical-path reports over span tables.

The report layer renders what the recorder guarantees: per-fault
segment decompositions that sum to the measured end-to-end latency
*exactly*.  The aggregate share table is therefore not a sampled
estimate — each segment's share is its exclusive nanoseconds over the
total fault nanoseconds, across every fault of the trial — and the
exemplar decompositions show individual retained spans whose segment
rows sum to the span total to the nanosecond.

``compare_markdown`` renders the per-segment diff between two tables
(two policies on the same cell is the canonical pairing: it answers
"where did the p99 go" — e.g. MG-LRU trading rmap-walk service time
for device queueing against clock on the paper's 50% SSD cell).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro._markdown import md_table
from repro.spans.recorder import SEGMENT_KINDS, SpanTable


def _fmt_ns(ns: float) -> str:
    """Engineering-format a nanosecond quantity."""
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{int(ns)}ns"


def _sorted_segments(seg_ns: Dict[str, int]) -> List[str]:
    """Segment kinds by descending time (name-tiebreak, deterministic)."""
    return sorted(seg_ns, key=lambda k: (-seg_ns[k], k))


def segment_share_rows(table: SpanTable) -> List[List[str]]:
    """Markdown cells for the aggregate critical-path share table.

    One row per segment kind: total exclusive time, share of all fault
    time (shares sum to 100% — the per-fault sums are exact, so the
    aggregate is too), the number of faults the segment appeared in,
    and the mean time per appearance.
    """
    total = table.total_ns
    rows = []
    for kind in _sorted_segments(table.seg_ns):
        ns = table.seg_ns[kind]
        count = table.seg_counts.get(kind, 0)
        rows.append(
            [
                kind,
                _fmt_ns(ns),
                f"{ns / total:.1%}" if total else "-",
                str(count),
                _fmt_ns(ns / count) if count else "-",
            ]
        )
    return rows


def _exemplars(table: SpanTable) -> List[Any]:
    """Deterministic (label, record) exemplars: p50 and p99 from the
    retained records (by rank over their exact totals), max from the
    top-K table (which covers *all* faults)."""
    out = []
    records = sorted(
        table.records, key=lambda r: (r["total_ns"], r["t0"], r["vpn"])
    )
    n = len(records)
    if n:
        out.append(("p50", records[n // 2 if n > 1 else 0]))
        out.append(("p99", records[min(n - 1, int(0.99 * (n - 1)))]))
    top = table.top_spans()
    if top:
        out.append(("max", top[0]))
    return out


def _decomposition_rows(record: Dict[str, Any]) -> List[List[str]]:
    """One exemplar fault's segment rows; they sum to its total exactly."""
    segs = record["segs"]
    inst = record.get("inst", {})
    total = record["total_ns"]
    rows = []
    for kind in _sorted_segments(segs):
        ns = segs[kind]
        rows.append(
            [
                kind,
                f"{ns}",
                f"{ns / total:.1%}" if total else "-",
                inst.get(kind, "-"),
            ]
        )
    return rows


def top_span_rows(table: SpanTable) -> List[List[str]]:
    """Markdown cells for the top-K slowest-spans table."""
    rows = []
    for record in table.top_spans():
        segs = record["segs"]
        inst = record.get("inst", {})
        dominant = _sorted_segments(segs)[0] if segs else "-"
        # The instigator of the dominant segment if it has one, else
        # the instigator of the slowest instigated segment.
        who = inst.get(dominant)
        if who is None and inst:
            who = inst[
                max(inst, key=lambda k: (segs.get(k, 0), k))
            ]
        rows.append(
            [
                record.get("trial", "") or f"@{record['t0']}",
                record["thread"],
                record["group"],
                str(record["vpn"]),
                "major" if record["major"] else "minor",
                _fmt_ns(record["total_ns"]),
                dominant,
                who if who is not None else "-",
            ]
        )
    return rows


def render_markdown(
    table: SpanTable, title: str = "Critical-path report"
) -> str:
    """The full spans report for one table (trial or merged trials)."""
    parts = [f"# {title}", ""]
    n = table.n_faults
    parts.append(
        f"_{n} faults ({table.n_major} major), total fault time "
        f"{_fmt_ns(table.total_ns)}, p50 ~{_fmt_ns(table.percentile(50))}, "
        f"p99 ~{_fmt_ns(table.percentile(99))}, "
        f"max {_fmt_ns(table.max_ns)} (exact); {table.n_retained} full "
        f"records retained (1-in-{table.sample_every} head sampling)_"
    )
    parts.append("")
    parts.append("## Critical-path segment shares (all faults, exact)")
    parts.append("")
    parts.append(
        md_table(
            ["segment", "time", "share", "faults", "mean/fault"],
            segment_share_rows(table),
        )
    )
    parts.append("")
    exemplars = _exemplars(table)
    if exemplars:
        parts.append("## Exemplar decompositions")
        parts.append("")
        parts.append(
            "_Each exemplar's segment nanoseconds sum to its total "
            "exactly._"
        )
        parts.append("")
        for label, record in exemplars:
            parts.append(
                f"### {label}: {record['total_ns']}ns "
                f"({'major' if record['major'] else 'minor'}, "
                f"{record['thread']}, vpn {record['vpn']})"
            )
            parts.append("")
            parts.append(
                md_table(
                    ["segment", "ns", "share", "instigator"],
                    _decomposition_rows(record),
                )
            )
            parts.append("")
    if table.top_records:
        parts.append(f"## Top {len(table.top_records)} slowest spans")
        parts.append("")
        parts.append(
            md_table(
                [
                    "trial",
                    "thread",
                    "group",
                    "vpn",
                    "kind",
                    "total",
                    "dominant segment",
                    "instigator",
                ],
                top_span_rows(table),
            )
        )
        parts.append("")
    if len(table.group_total_ns) > 1:
        parts.append("## Per-group critical path")
        parts.append("")
        group_rows = []
        for group in sorted(table.group_total_ns):
            gsegs = table.group_ns.get(group, {})
            gtotal = table.group_total_ns[group]
            dominant = _sorted_segments(gsegs)[0] if gsegs else "-"
            group_rows.append(
                [
                    group,
                    str(table.group_faults.get(group, 0)),
                    _fmt_ns(gtotal),
                    dominant,
                    f"{gsegs.get(dominant, 0) / gtotal:.1%}"
                    if gtotal
                    else "-",
                ]
            )
        parts.append(
            md_table(
                ["group", "faults", "fault time", "dominant", "share"],
                group_rows,
            )
        )
        parts.append("")
    if table.inst_ns:
        parts.append("## Instigators (cross-thread wait attribution)")
        parts.append("")
        inst_rows = []
        for kind in sorted(table.inst_ns):
            by_name = table.inst_ns[kind]
            for name in sorted(by_name, key=lambda n: (-by_name[n], n)):
                inst_rows.append([kind, name, _fmt_ns(by_name[name])])
        parts.append(
            md_table(["wait segment", "instigator", "time"], inst_rows)
        )
        parts.append("")
    if table.daemon_ns:
        parts.append("## Daemon time (no fault root)")
        parts.append("")
        daemon_rows = []
        for thread in sorted(table.daemon_ns):
            by_kind = table.daemon_ns[thread]
            for kind in _sorted_segments(by_kind):
                daemon_rows.append(
                    [thread, kind, _fmt_ns(by_kind[kind])]
                )
        parts.append(md_table(["thread", "segment", "time"], daemon_rows))
        parts.append("")
    parts.append("## Segment key")
    parts.append("")
    for kind in sorted(SEGMENT_KINDS):
        parts.append(f"- `{kind}`: {SEGMENT_KINDS[kind]}")
    parts.append("")
    return "\n".join(parts)


def compare_markdown(
    table_a: SpanTable,
    table_b: SpanTable,
    label_a: str,
    label_b: str,
    title: Optional[str] = None,
) -> str:
    """Per-segment critical-path diff between two tables.

    Normalizes each side to mean nanoseconds *per fault* (the two
    policies fault different amounts — that is usually the headline —
    so both the per-fault shape change and the raw fault-count change
    are shown).
    """
    if title is None:
        title = f"Critical-path diff: {label_a} vs {label_b}"
    parts = [f"# {title}", ""]
    fa = table_a.n_faults or 1
    fb = table_b.n_faults or 1
    parts.append(
        md_table(
            ["", label_a, label_b],
            [
                [
                    "faults (major)",
                    f"{table_a.n_faults} ({table_a.n_major})",
                    f"{table_b.n_faults} ({table_b.n_major})",
                ],
                [
                    "total fault time",
                    _fmt_ns(table_a.total_ns),
                    _fmt_ns(table_b.total_ns),
                ],
                [
                    "mean fault",
                    _fmt_ns(table_a.total_ns / fa),
                    _fmt_ns(table_b.total_ns / fb),
                ],
                [
                    "p99 (~)",
                    _fmt_ns(table_a.percentile(99)),
                    _fmt_ns(table_b.percentile(99)),
                ],
                [
                    "max (exact)",
                    _fmt_ns(table_a.max_ns),
                    _fmt_ns(table_b.max_ns),
                ],
            ],
        )
    )
    parts.append("")
    parts.append("## Per-segment mean ns/fault")
    parts.append("")
    kinds = sorted(
        set(table_a.seg_ns) | set(table_b.seg_ns),
        key=lambda k: -(
            table_a.seg_ns.get(k, 0) / fa + table_b.seg_ns.get(k, 0) / fb
        ),
    )
    rows = []
    for kind in kinds:
        per_a = table_a.seg_ns.get(kind, 0) / fa
        per_b = table_b.seg_ns.get(kind, 0) / fb
        delta = per_b - per_a
        if per_a > 0:
            rel = f"{delta / per_a:+.0%}"
        else:
            rel = "new" if per_b else "-"
        rows.append(
            [
                kind,
                _fmt_ns(per_a),
                _fmt_ns(per_b),
                ("+" if delta >= 0 else "-") + _fmt_ns(abs(delta)),
                rel,
            ]
        )
    parts.append(
        md_table(
            [
                "segment",
                f"{label_a} ns/fault",
                f"{label_b} ns/fault",
                "delta",
                "rel",
            ],
            rows,
        )
    )
    parts.append("")
    return "\n".join(parts)
