"""Fleet report: per-tenant SLO tables from sink rows.

Aggregation is order-independent — rows are grouped by policy and
merged per tenant with exact integer histogram-bucket addition — so a
serial sweep, a ``REPRO_JOBS`` sweep, and an interrupted-then-resumed
sweep of the same grid render byte-identical reports.

:func:`build_registry` additionally surfaces the merged per-tenant
distributions through :mod:`repro.metrics` with a ``tenant`` label, so
fleet results ride the same exposition formats (dict dump, Prometheus
text) as single-process metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro._markdown import md_table
from repro.histogram import Histogram
from repro.metrics.registry import MetricsRegistry


class TenantAgg:
    """One tenant's results merged across the seeds of one policy."""

    __slots__ = (
        "tenant",
        "requests",
        "fault_hist",
        "request_hist",
        "slo_violations",
        "major_faults",
        "stolen_from",
        "stolen_by",
        "limit_breaches",
        "usage_pages",
        "footprint_pages",
        "psi_stall_ns",
        "psi_viol_ns",
        "psi_viol_stall_ns",
        "ws_refault",
        "ws_activate",
        "ws_restore",
        "has_psi",
    )

    def __init__(self, tenant: int) -> None:
        self.tenant = tenant
        self.requests = 0
        self.fault_hist = Histogram()
        self.request_hist = Histogram()
        self.slo_violations = 0
        self.major_faults = 0
        self.stolen_from = 0
        self.stolen_by = 0
        self.limit_breaches = 0
        self.usage_pages = 0
        self.footprint_pages = 0
        self.psi_stall_ns = 0
        self.psi_viol_ns = 0
        self.psi_viol_stall_ns = 0
        self.ws_refault = 0
        self.ws_activate = 0
        self.ws_restore = 0
        self.has_psi = False

    def add(self, entry: Dict[str, Any]) -> None:
        self.requests += int(entry["requests"])
        other = Histogram()
        other._from_obj(entry["fault_hist"])
        self.fault_hist._merge(other)
        other = Histogram()
        other._from_obj(entry["request_hist"])
        self.request_hist._merge(other)
        self.slo_violations += int(entry["slo_violations"])
        self.major_faults += int(entry["major_faults"])
        memcg = entry.get("memcg", {})
        self.stolen_from += int(memcg.get("stolen_from", 0))
        self.stolen_by += int(memcg.get("stolen_by", 0))
        self.limit_breaches += int(memcg.get("limit_breaches", 0))
        self.usage_pages = max(self.usage_pages, int(entry["usage_pages"]))
        self.footprint_pages = int(entry["footprint_pages"])
        psi = entry.get("psi")
        if psi is not None:
            self.has_psi = True
            self.psi_stall_ns += int(psi["stall_ns"])
            self.psi_viol_ns += int(psi["viol_ns"])
            self.psi_viol_stall_ns += int(psi["viol_stall_ns"])
            pressure = psi.get("pressure", {})
            self.ws_refault += int(pressure.get("workingset_refault", 0))
            self.ws_activate += int(pressure.get("workingset_activate", 0))
            self.ws_restore += int(pressure.get("workingset_restore", 0))

    @property
    def slo_rate(self) -> float:
        return self.slo_violations / self.requests if self.requests else 0.0

    @property
    def viol_stall_share(self) -> float:
        """Fraction of SLO-violation time the tenant spent memstalled
        (its own full-stall pressure, since single-task groups have
        ``full == some``)."""
        if self.psi_viol_ns <= 0:
            return 0.0
        return self.psi_viol_stall_ns / self.psi_viol_ns


def aggregate(
    rows: List[Dict[str, Any]]
) -> Dict[str, Dict[int, TenantAgg]]:
    """policy -> tenant id -> merged aggregate (deterministic order)."""
    out: Dict[str, Dict[int, TenantAgg]] = {}
    for row in sorted(rows, key=lambda r: (str(r["policy"]), int(r["seed"]))):
        per_tenant = out.setdefault(str(row["policy"]), {})
        for entry in row["tenants"]:
            tid = int(entry["tenant"])
            agg = per_tenant.get(tid)
            if agg is None:
                agg = per_tenant[tid] = TenantAgg(tid)
            agg.add(entry)
    return out


def fleet_summary(per_tenant: Dict[int, TenantAgg]) -> Dict[str, float]:
    """Fleet-wide numbers for one policy (exact histogram merge)."""
    requests = Histogram()
    faults = Histogram()
    n_requests = 0
    n_viol = 0
    worst_p99 = 0.0
    for agg in per_tenant.values():
        requests._merge(agg.request_hist)
        faults._merge(agg.fault_hist)
        n_requests += agg.requests
        n_viol += agg.slo_violations
        worst_p99 = max(worst_p99, agg.request_hist.percentile(99))
    return {
        "requests": float(n_requests),
        "request_p50_ns": requests.percentile(50),
        "request_p99_ns": requests.percentile(99),
        "request_p999_ns": requests.percentile(99.9),
        "fault_p99_ns": faults.percentile(99),
        "worst_tenant_p99_ns": worst_p99,
        "slo_rate": n_viol / n_requests if n_requests else 0.0,
    }


def aggregate_spans(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """policy -> merged :class:`~repro.spans.SpanTable` from row dumps.

    Rows carry a full ``spans`` table (``repro.spans/v1``) only when
    the sweep ran with ``spans=``/``--spans``.  Merging in sorted
    (policy, seed) order makes the result independent of append order,
    so serial / ``REPRO_JOBS`` / resumed sweeps aggregate identically.
    """
    from repro.spans.recorder import SpanTable

    out: Dict[str, Any] = {}
    for row in sorted(rows, key=lambda r: (str(r["policy"]), int(r["seed"]))):
        obj = row.get("spans")
        if obj is None:
            continue
        table = SpanTable.from_obj(obj)
        table.tag(f"seed{int(row['seed'])}")
        policy = str(row["policy"])
        if policy in out:
            out[policy].merge(table)
        else:
            out[policy] = table
    return out


def _spans_section(
    span_tables: Dict[str, Any], top: int
) -> List[str]:
    """``## Critical path (spans)`` markdown lines: per-policy exact
    segment decomposition of all fault time, plus the slowest spans
    with their dominant segment and instigator."""
    from repro.spans.report import segment_share_rows, top_span_rows

    parts: List[str] = []
    for policy in sorted(span_tables):
        table = span_tables[policy]
        parts.append(
            f"### {policy}: {table.n_faults} faults "
            f"({table.n_major} major), "
            f"total fault time {table.total_ns / 1e6:.3f}ms"
        )
        parts.append("")
        parts.append(
            md_table(
                ["segment", "time", "share", "faults", "mean/fault"],
                segment_share_rows(table),
            )
        )
        parts.append("")
        span_rows = top_span_rows(table)[:top]
        if span_rows:
            parts.append(f"#### slowest {len(span_rows)} spans")
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
                    span_rows,
                )
            )
            parts.append("")
    return parts


def aggregate_steals(
    rows: List[Dict[str, Any]]
) -> Dict[str, Dict[Tuple[int, int], int]]:
    """policy -> (requester, victim) -> pages, summed across seeds.

    Rows carry the steal matrix only when PSI was on; summing the
    sorted triples is order-independent, so serial / ``REPRO_JOBS`` /
    resumed sweeps aggregate identically.
    """
    out: Dict[str, Dict[Tuple[int, int], int]] = {}
    for row in rows:
        psi = row.get("psi")
        if psi is None:
            continue
        matrix = out.setdefault(str(row["policy"]), {})
        for requester, victim, pages in psi.get("steals", []):
            key = (int(requester), int(victim))
            matrix[key] = matrix.get(key, 0) + int(pages)
    return out


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------

def _fmt_us(ns: float) -> str:
    return f"{ns / 1000.0:.1f}us"


def _attribution_section(
    groups: Dict[str, Dict[int, TenantAgg]],
    steals: Dict[str, Dict[Tuple[int, int], int]],
    top: int,
) -> List[str]:
    """``## SLO-violation attribution (PSI)`` markdown lines.

    For each policy's worst violators (by total violation time): how
    much of the violation window the tenant itself was memstalled
    (full == some for single-task groups), how many of its pages global
    reclaim stole, and which tenant's direct reclaim stole the most —
    the "tenant 17's breach was under full stall while tenant 3's burst
    stole its pages" readout.
    """
    parts: List[str] = []
    for policy in sorted(groups):
        per_tenant = groups[policy]
        violators = sorted(
            (a for a in per_tenant.values() if a.psi_viol_ns > 0),
            key=lambda a: (-a.psi_viol_ns, a.tenant),
        )[:top]
        parts.append(
            f"### {policy}: top {len(violators)} violators by violation time"
        )
        parts.append("")
        if not violators:
            parts.append("_no SLO-violation windows recorded_")
            parts.append("")
            continue
        matrix = steals.get(policy, {})
        table_rows = []
        for a in violators:
            instigators = sorted(
                (
                    (pages, requester)
                    for (requester, victim), pages in matrix.items()
                    if victim == a.tenant and requester != a.tenant
                ),
                key=lambda pv: (-pv[0], pv[1]),
            )
            if instigators:
                pages, requester = instigators[0]
                instigator = f"t{requester} ({pages} pg)"
            else:
                instigator = "-"
            table_rows.append(
                [
                    f"t{a.tenant}",
                    f"{a.psi_viol_ns / 1e6:.3f}ms",
                    f"{a.viol_stall_share:.0%}",
                    f"{a.psi_stall_ns / 1e6:.3f}ms",
                    str(a.stolen_from),
                    instigator,
                ]
            )
        parts.append(
            md_table(
                [
                    "tenant",
                    "viol time",
                    "under full stall",
                    "stall total",
                    "stolen from (pg)",
                    "top instigator",
                ],
                table_rows,
            )
        )
        parts.append("")
    return parts


def render_markdown(
    header: Dict[str, Any],
    rows: List[Dict[str, Any]],
    top: int = 10,
    title: str = "Fleet report",
    lane_stats: Optional[Dict[str, int]] = None,
) -> str:
    """The full fleet report: policy comparison + worst tenants.

    When any row carries a ``psi`` section (the sweep ran with
    ``psi=``/``--psi``) an *SLO-violation attribution* section is
    appended; PSI-off sinks render byte-identically to pre-PSI reports.
    Likewise a ``spans`` section (``spans=``/``--spans``) opts
    into a *Critical path* section built from the merged span tables.
    ``lane_stats`` (the accumulator :func:`repro.fleet.runner.run_sweep`
    fills) opts into a *Serving lanes* section — opt-in because its
    trial counts legitimately differ between sweeps with the batch
    shortcut on (fast) and off (scalar) while reports of the same sink
    must not.
    """
    groups = aggregate(rows)
    config = header.get("config", {})
    parts = [f"# {title}", ""]
    parts.append(
        "_"
        + ", ".join(
            f"{k}={config[k]}"
            for k in (
                "n_tenants",
                "capacity_ratio",
                "limit_ratio",
                "arrival_rate_rps",
                "slo_ns",
            )
            if k in config
        )
        + f", trials={len(rows)}_"
    )
    parts.append("")
    parts.append("## Policy comparison")
    parts.append("")
    comp_rows = []
    for policy in sorted(groups):
        s = fleet_summary(groups[policy])
        comp_rows.append(
            [
                policy,
                f"{int(s['requests'])}",
                _fmt_us(s["request_p50_ns"]),
                _fmt_us(s["request_p99_ns"]),
                _fmt_us(s["request_p999_ns"]),
                _fmt_us(s["worst_tenant_p99_ns"]),
                f"{s['slo_rate']:.2%}",
            ]
        )
    parts.append(
        md_table(
            [
                "policy",
                "requests",
                "req p50",
                "req p99",
                "req p999",
                "worst-tenant p99",
                "SLO viol",
            ],
            comp_rows,
        )
    )
    parts.append("")
    for policy in sorted(groups):
        per_tenant = groups[policy]
        worst = sorted(
            per_tenant.values(),
            key=lambda a: (-a.request_hist.percentile(99), a.tenant),
        )[:top]
        parts.append(f"## {policy}: top {len(worst)} tenants by p99")
        parts.append("")
        tenant_rows = [
            [
                f"t{a.tenant}",
                str(a.requests),
                _fmt_us(a.fault_hist.percentile(99)),
                _fmt_us(a.request_hist.percentile(99)),
                _fmt_us(a.request_hist.percentile(99.9)),
                f"{a.slo_rate:.2%}",
                str(a.stolen_from),
                str(a.stolen_by),
            ]
            for a in worst
        ]
        parts.append(
            md_table(
                [
                    "tenant",
                    "requests",
                    "fault p99",
                    "req p99",
                    "req p999",
                    "SLO viol",
                    "stolen from",
                    "stolen by",
                ],
                tenant_rows,
            )
        )
        parts.append("")
    if any(row.get("psi") is not None for row in rows):
        parts.append("## SLO-violation attribution (PSI)")
        parts.append("")
        parts.extend(
            _attribution_section(groups, aggregate_steals(rows), top)
        )
    if any(row.get("spans") is not None for row in rows):
        parts.append("## Critical path (spans)")
        parts.append("")
        parts.extend(_spans_section(aggregate_spans(rows), top))
    if lane_stats is not None:
        parts.append("## Serving lanes")
        parts.append("")
        requests = int(lane_stats.get("requests", 0))
        residue = int(lane_stats.get("residue_requests", 0))
        share = residue / requests if requests else 0.0
        parts.append(
            md_table(
                [
                    "requests",
                    "residue (faulting)",
                    "residue share",
                    "batches",
                    "fast-lane trials",
                    "scalar trials",
                ],
                [
                    [
                        str(requests),
                        str(residue),
                        f"{share:.2%}",
                        str(int(lane_stats.get("batches", 0))),
                        str(int(lane_stats.get("fast_trials", 0))),
                        str(int(lane_stats.get("scalar_trials", 0))),
                    ]
                ],
            )
        )
        parts.append("")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Metrics-plane export (tenant label)
# ----------------------------------------------------------------------

def build_registry(rows: List[Dict[str, Any]]) -> MetricsRegistry:
    """Merged fleet results as a :class:`MetricsRegistry`.

    Every per-tenant series carries ``policy`` and ``tenant`` labels, so
    fleet runs surface through the exact machinery (dict dumps,
    Prometheus text, exact merge) the single-process metrics plane uses.
    """
    reg = MetricsRegistry()
    fault = reg.histogram(
        "repro_fleet_fault_ns",
        help="Per-tenant fault service latency across the fleet.",
        unit="nanoseconds",
        labelnames=("policy", "tenant"),
    )
    request = reg.histogram(
        "repro_fleet_request_ns",
        help="Per-tenant end-to-end request latency (arrival to "
        "completion, queueing included).",
        unit="nanoseconds",
        labelnames=("policy", "tenant"),
    )
    requests_total = reg.counter(
        "repro_fleet_requests_total",
        help="Requests served per tenant.",
        unit="requests",
        labelnames=("policy", "tenant"),
    )
    viol_total = reg.counter(
        "repro_fleet_slo_violations_total",
        help="Requests exceeding the SLO latency target, per tenant.",
        unit="requests",
        labelnames=("policy", "tenant"),
    )
    stolen = reg.counter(
        "repro_fleet_reclaim_stolen_pages_total",
        help="Pages reclaimed from each tenant by global pressure, by "
        "direction (from=victim, by=instigator).",
        unit="pages",
        labelnames=("policy", "tenant", "direction"),
    )
    groups = aggregate(rows)
    has_psi = any(
        agg.has_psi
        for per_tenant in groups.values()
        for agg in per_tenant.values()
    )
    if has_psi:
        psi_stall = reg.counter(
            "repro_psi_memory_stall_us_total",
            help="Per-tenant memory pressure stall time (PSI); kind="
            "some|full|viol|viol_full (viol_full = stall overlapping "
            "the tenant's SLO-violation windows).",
            unit="microseconds",
            labelnames=("policy", "tenant", "kind"),
        )
        ws = reg.counter(
            "repro_workingset_total",
            help="Per-tenant workingset refault/activate/restore "
            "counters from shadow-entry refault distances.",
            unit="pages",
            labelnames=("policy", "tenant", "event"),
        )
    for policy, per_tenant in groups.items():
        for tid in sorted(per_tenant):
            agg = per_tenant[tid]
            label = {"policy": policy, "tenant": str(tid)}
            fault.labels(**label)._merge(agg.fault_hist)
            request.labels(**label)._merge(agg.request_hist)
            requests_total.labels(**label).inc(agg.requests)
            viol_total.labels(**label).inc(agg.slo_violations)
            stolen.labels(direction="from", **label).inc(agg.stolen_from)
            stolen.labels(direction="by", **label).inc(agg.stolen_by)
            if has_psi and agg.has_psi:
                # Tenant groups track one thread: full == some, so one
                # series covers both; viol/viol_full carry the
                # attribution overlap.
                stall_us = agg.psi_stall_ns // 1000
                psi_stall.labels(kind="some", **label).inc(stall_us)
                psi_stall.labels(kind="full", **label).inc(stall_us)
                psi_stall.labels(kind="viol", **label).inc(
                    agg.psi_viol_ns // 1000
                )
                psi_stall.labels(kind="viol_full", **label).inc(
                    agg.psi_viol_stall_ns // 1000
                )
                ws.labels(event="refault", **label).inc(agg.ws_refault)
                ws.labels(event="activate", **label).inc(agg.ws_activate)
                ws.labels(event="restore", **label).inc(agg.ws_restore)
    return reg


def summary_by_policy(
    rows: List[Dict[str, Any]]
) -> List[Tuple[str, Dict[str, float]]]:
    """(policy, fleet summary) pairs, sorted by policy name."""
    groups = aggregate(rows)
    return [(p, fleet_summary(groups[p])) for p in sorted(groups)]
