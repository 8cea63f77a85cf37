"""CLI: ``python -m repro.fleet {run,report}``.

``run`` executes a (policy × seed) fleet sweep into a resumable JSONL
sink; rerunning the same command continues where an interrupted sweep
stopped.  ``report`` renders the sink as a Markdown SLO report and can
also export the merged per-tenant distributions as a
``repro.metrics/v1`` registry dump (``--metrics-out``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._units import MS, US
from repro.errors import ReproError
from repro.fleet.config import FleetConfig, TenantShape
from repro.fleet.report import build_registry, render_markdown
from repro.fleet.runner import run_sweep
from repro.fleet.sink import JsonlSink, load_rows
from repro.policies import POLICY_FACTORIES
from repro.spans import SpansConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Multi-tenant memcg fleet simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fleet sweep into a JSONL sink")
    run.add_argument("--tenants", type=int, default=8)
    run.add_argument(
        "--policies",
        default="clock,mglru",
        help="comma-separated policy names (default: clock,mglru)",
    )
    run.add_argument("--seeds", type=int, default=3)
    run.add_argument("--base-seed", type=int, default=10_000)
    run.add_argument("--out", required=True, help="JSONL sink path")
    run.add_argument("--capacity-ratio", type=float, default=0.5)
    run.add_argument(
        "--limit-ratio",
        type=float,
        default=None,
        help="per-tenant hard limit as a fraction of tenant footprint "
        "(default: unlimited)",
    )
    run.add_argument("--soft-limit-ratio", type=float, default=None)
    run.add_argument("--low-ratio", type=float, default=0.0)
    run.add_argument("--min-ratio", type=float, default=0.0)
    run.add_argument(
        "--slo-us",
        type=float,
        default=2 * MS / US,
        help="SLO latency target in microseconds (default: 2000)",
    )
    run.add_argument(
        "--arrival-rate",
        type=float,
        default=150_000.0,
        help="aggregate open-loop arrival rate, requests/second",
    )
    run.add_argument("--requests", type=int, default=40_000)
    run.add_argument("--tenant-theta", type=float, default=0.8)
    run.add_argument("--items", type=int, default=2_000)
    run.add_argument("--swap", choices=("zram", "ssd"), default="zram")
    run.add_argument("--cpus", type=int, default=8)
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS, else serial)",
    )
    run.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="stop after N trials this invocation (resume later)",
    )
    run.add_argument(
        "--psi",
        action="store_true",
        help="enable PSI pressure accounting (adds a 'psi' section to "
        "rows; default: off)",
    )
    run.add_argument(
        "--spans",
        action="store_true",
        help="enable causal fault-span recording (adds a 'spans' "
        "section to rows; default: off)",
    )
    run.add_argument(
        "--spans-sample",
        type=int,
        default=None,
        metavar="N",
        help="with --spans: retain the full record of every Nth fault, "
        "N >= 1 (aggregates always cover all faults; default: 1)",
    )
    run.add_argument(
        "--lane-stats-out",
        default=None,
        help="write this invocation's serving-lane counters as JSON "
        "(feed to 'report --lane-stats')",
    )

    report = sub.add_parser("report", help="render a sink as Markdown")
    report.add_argument("--in", dest="input", required=True)
    report.add_argument(
        "--out", default=None, help="write Markdown here (default: stdout)"
    )
    report.add_argument("--top", type=int, default=10)
    report.add_argument(
        "--metrics-out",
        default=None,
        help="also dump the merged registry (repro.metrics/v1 JSON)",
    )
    report.add_argument(
        "--lane-stats",
        default=None,
        help="lane-counters JSON from 'run --lane-stats-out'; adds a "
        "'Serving lanes' section to the report",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for policy in policies:
        if policy not in POLICY_FACTORIES:
            known = ", ".join(sorted(POLICY_FACTORIES))
            print(
                f"unknown policy {policy!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
    config = FleetConfig(
        n_tenants=args.tenants,
        shapes=(TenantShape(n_items=args.items),),
        swap=args.swap,
        capacity_ratio=args.capacity_ratio,
        limit_ratio=args.limit_ratio,
        soft_limit_ratio=args.soft_limit_ratio,
        low_ratio=args.low_ratio,
        min_ratio=args.min_ratio,
        n_requests_total=args.requests,
        arrival_rate_rps=args.arrival_rate,
        tenant_zipf_theta=args.tenant_theta,
        slo_ns=max(1, int(args.slo_us * US)),
        n_cpus=args.cpus,
    )
    seeds = [args.base_seed + i for i in range(args.seeds)]
    spans = args.spans
    if args.spans_sample is not None:  # main() checked it comes with --spans
        spans = SpansConfig(sample_every=args.spans_sample)
    lane_stats: dict = {}
    with JsonlSink(args.out, config.to_dict()) as sink:
        already = len(sink.completed)
        if already:
            print(f"resuming: {already} trial(s) already in {args.out}")
        ran = run_sweep(
            config,
            policies,
            seeds,
            sink,
            jobs=args.jobs,
            max_trials=args.max_trials,
            progress=print,
            psi=args.psi,
            spans=spans,
            lane_stats=lane_stats,
        )
        total = len(policies) * len(seeds)
        done = len(sink.completed)
        print(f"ran {ran} trial(s); sink has {done}/{total}")
    if args.lane_stats_out:
        with open(args.lane_stats_out, "w") as fh:
            json.dump(lane_stats, fh, sort_keys=True)
        print(f"wrote {args.lane_stats_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    header, rows = load_rows(args.input)
    if not rows:
        print(f"{args.input}: no completed trials yet", file=sys.stderr)
        return 1
    lane_stats = None
    if args.lane_stats:
        with open(args.lane_stats) as fh:
            lane_stats = json.load(fh)
    text = render_markdown(header, rows, top=args.top, lane_stats=lane_stats)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.metrics_out:
        registry = build_registry(rows)
        registry.meta["source"] = "repro.fleet"
        with open(args.metrics_out, "w") as fh:
            json.dump(registry.to_dict(), fh)
        print(f"wrote {args.metrics_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.spans_sample is not None:
        if not args.spans:
            parser.error("--spans-sample needs --spans")
        if args.spans_sample < 1:
            parser.error("--spans-sample must be at least 1")
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
