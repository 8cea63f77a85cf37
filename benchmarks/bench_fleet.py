"""Fleet-scale benchmark: 200 tenants under global memory pressure.

Three acceptance properties of the multi-tenant memcg fleet, measured
end to end:

1. **Bounded RSS** — a 200-tenant fleet trial (streaming per-tenant
   histograms, JSONL sink, shared per-shape datasets) stays under a
   peak-RSS budget.  Per-tenant state is O(1) in request count, so the
   footprint is dominated by the simulator itself, not the fleet size.
2. **Execution-mode identity** — a seeded sweep produces identical
   per-tenant p99 and SLO numbers run serially, with ``--jobs 2``, and
   across an interrupt (``max_trials``) followed by a resume of the
   same sink file.
3. **Throughput** — simulated requests per wall-clock second, for
   tracking the fleet path's mechanical cost over time.  The serving
   loop is timed in both modes on every cell — "fast" with its batch
   shortcut on, "scalar" with it off (``run_fleet_trial(fast_fleet=
   False)``: every request served one at a time) — and both modes must
   return byte-identical rows.
4. **Lane speedup** — on a serving-bound cell (read-only, zero
   per-request compute, near-full capacity) the fast mode must beat
   the scalar mode by ``--min-speedup`` (default 5x).

Writes ``benchmarks/output/BENCH_fleet.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--tenants N]
        [--requests N] [--fastlane-requests N] [--min-speedup X]
        [--repeats N] [--rss-budget-mb MB] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

from repro.fleet.config import FleetConfig, TenantShape
from repro.fleet.report import render_markdown, summary_by_policy
from repro.fleet.runner import run_sweep
from repro.fleet.sink import JsonlSink, load_rows
from repro.fleet.trial import run_fleet_trial


#: Interleaved off/on pairs the observer gates time per (cell, lane), at
#: least (``--repeats`` raises it).
OBSERVER_PAIRS = 5


def peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def big_fleet_config(n_tenants: int, n_requests: int) -> FleetConfig:
    """Global pressure, two tenant shapes, no hard limits — the
    proportional global reclaimer does all the work.  Capacity is 25%
    of the aggregate footprint: Zipf-split requests only touch part of
    each tenant's keyspace, so a looser ratio leaves residency below
    the waterline and exercises no reclaim at all."""
    return FleetConfig(
        n_tenants=n_tenants,
        shapes=(
            TenantShape(n_items=300),
            TenantShape(n_items=600, read_fraction=0.5),
        ),
        capacity_ratio=0.25,
        n_requests_total=n_requests,
        arrival_rate_rps=400_000.0,
        slo_ns=2_000_000,
        n_cpus=8,
    )


def fastlane_config(n_tenants: int, n_requests: int) -> FleetConfig:
    """Serving-bound cell for the lane-speedup gate: read-only
    traffic, zero per-request compute, near-full capacity so resident
    hits dominate.  This isolates the request-serving inner loop — the
    thing the batch shortcut vectorizes — from fault and reclaim
    work, which both modes share."""
    return FleetConfig(
        n_tenants=n_tenants,
        shapes=(
            TenantShape(
                n_items=80,
                zipf_theta=0.99,
                read_fraction=1.0,
                request_compute_ns=0,
            ),
        ),
        swap="zram",
        capacity_ratio=0.98,
        n_requests_total=n_requests,
        arrival_rate_rps=1e11,
        n_cpus=8,
    )


def _timed_trial(config, policy, seed, fast):
    t0 = time.perf_counter()
    row = run_fleet_trial(config, policy, seed, fast_fleet=fast)
    wall_s = time.perf_counter() - t0
    served = sum(t["requests"] for t in row["tenants"])
    return row, wall_s, served


def bench_scale(args) -> dict:
    """Property 1 + 3: the 200-tenant trial, RSS and throughput.

    Times both serving lanes on the pressure cell; the reported
    ``requests_per_s`` stays the fast (default) lane for continuity
    with prior baselines."""
    config = big_fleet_config(args.tenants, args.requests)
    rss_before = peak_rss_mb()
    row, wall_s, served = _timed_trial(config, "mglru", 4242, True)
    row_scalar, wall_scalar, _ = _timed_trial(config, "mglru", 4242, False)
    rss_after = peak_rss_mb()
    identical = json.dumps(row, sort_keys=True) == json.dumps(
        row_scalar, sort_keys=True
    )
    return {
        "tenants": args.tenants,
        "requests": served,
        "wall_s": round(wall_s, 3),
        "requests_per_s": round(served / wall_s, 1),
        "scalar_wall_s": round(wall_scalar, 3),
        "scalar_requests_per_s": round(served / wall_scalar, 1),
        "rows_identical": identical,
        "sim_runtime_ns": row["runtime_ns"],
        "peak_rss_mb": round(rss_after, 1),
        "rss_growth_mb": round(rss_after - rss_before, 1),
        "rss_budget_mb": args.rss_budget_mb,
        "rss_ok": rss_after <= args.rss_budget_mb,
        "evictions": row["totals"]["evictions"],
        "major_faults": row["totals"]["major_faults"],
    }


def bench_fast_lane(args) -> dict:
    """Property 4: fast-lane speedup on the serving-bound cell.

    Lanes are timed interleaved (scalar, fast, scalar, fast, ...) and
    scored best-of-``--repeats`` per lane, which suppresses host
    timing noise far better than a single back-to-back pair."""
    config = fastlane_config(args.tenants, args.fastlane_requests)
    # Warm the shared dataset/trace caches so neither lane pays the
    # one-time working-set build.
    run_fleet_trial(
        fastlane_config(args.tenants, 1_000), "mglru", 4242, fast_fleet=True
    )
    walls = {"scalar": [], "fast": []}
    rows = {}
    served = 0
    for _ in range(max(1, args.repeats)):
        for lane, fast in (("scalar", False), ("fast", True)):
            row, wall_s, served = _timed_trial(config, "mglru", 4242, fast)
            walls[lane].append(wall_s)
            rows[lane] = row
    identical = json.dumps(rows["scalar"], sort_keys=True) == json.dumps(
        rows["fast"], sort_keys=True
    )
    best = {lane: min(times) for lane, times in walls.items()}
    speedup = best["scalar"] / best["fast"]
    return {
        "tenants": args.tenants,
        "requests": served,
        "repeats": max(1, args.repeats),
        "scalar_wall_s": round(best["scalar"], 3),
        "fast_wall_s": round(best["fast"], 3),
        "scalar_requests_per_s": round(served / best["scalar"], 1),
        "fast_requests_per_s": round(served / best["fast"], 1),
        "speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "speedup_ok": speedup >= args.min_speedup,
        "rows_identical": identical,
        "evictions": rows["fast"]["totals"]["evictions"],
    }


def _strip_psi(row: dict) -> dict:
    """A PSI-on row with every ``psi`` section removed — must equal
    the PSI-off row byte-for-byte (PSI is a pure observer)."""
    out = {k: v for k, v in row.items() if k != "psi"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "psi"} for t in row["tenants"]
    ]
    return out


def _observer_pairs(config, fast: bool, pairs: int, plane: str):
    """Time *pairs* interleaved trials with the observer *plane* (the
    ``run_fleet_trial`` argument ``psi`` or ``spans``) off and on, by
    process CPU.

    The trials run in this process, so ``time.process_time()`` charges
    each one its own CPU and not the host's other load.  Which side
    runs first alternates from pair to pair, and the overhead is the
    median of the per-pair on/off ratios less one, so one slow phase of
    the host moves one ratio, not the score.  Returns the timings with
    the overhead, and the last row of each side.
    """
    cpu = {"off": [], "on": []}
    rows = {}
    for i in range(pairs):
        order = (("off", False), ("on", True))
        for side, on in order if i % 2 == 0 else order[::-1]:
            t0 = time.process_time()
            rows[side] = run_fleet_trial(
                config, "mglru", 4242, fast_fleet=fast, **{plane: on}
            )
            cpu[side].append(time.process_time() - t0)
    ratios = [on / off for off, on in zip(cpu["off"], cpu["on"])]
    return {
        "pairs": pairs,
        "off_cpu_s": round(statistics.median(cpu["off"]), 3),
        "on_cpu_s": round(statistics.median(cpu["on"]), 3),
        "pair_ratios": [round(r, 4) for r in ratios],
        "overhead": round(statistics.median(ratios) - 1.0, 4),
    }, rows


def bench_psi_overhead(args) -> dict:
    """PSI-on CPU-time overhead gate, both cells x both lanes.

    Per (cell, lane), the median per-pair PSI-on/PSI-off CPU ratio over
    at least ``OBSERVER_PAIRS`` interleaved pairs
    (:func:`_observer_pairs`) must stay within ``--max-psi-overhead``
    (default 5%), and the PSI-on row minus its ``psi`` sections must
    equal the PSI-off row exactly.
    """
    cells = {
        "pressure": big_fleet_config(args.tenants, args.requests),
        "serving": fastlane_config(
            args.tenants, max(1_000, args.fastlane_requests // 4)
        ),
    }
    pairs = max(OBSERVER_PAIRS, args.repeats)
    out = {"max_overhead": args.max_psi_overhead, "cells": {}}
    for cell_name, config in cells.items():
        cell_out = {}
        for lane_name, fast in (("fast", True), ("scalar", False)):
            timed, rows = _observer_pairs(config, fast, pairs, "psi")
            identical = json.dumps(
                _strip_psi(rows["on"]), sort_keys=True
            ) == json.dumps(rows["off"], sort_keys=True)
            cell_out[lane_name] = {
                **timed,
                "overhead_ok": timed["overhead"] <= args.max_psi_overhead,
                "rows_identical": identical,
            }
        out["cells"][cell_name] = cell_out
    return out


def _strip_spans(row: dict) -> dict:
    """A spans-on row with every ``spans`` section removed — must equal
    the spans-off row byte-for-byte (the recorder is a pure observer)."""
    out = {k: v for k, v in row.items() if k != "spans"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "spans"} for t in row["tenants"]
    ]
    return out


def bench_spans_overhead(args) -> dict:
    """Spans-on CPU-time overhead gate, both cells x both lanes.

    Same shape as :func:`bench_psi_overhead`: the median per-pair CPU
    ratio over interleaved pairs per (cell, lane), purity (the spans-on row
    minus its ``spans`` sections must equal the spans-off row exactly)
    and the exactness contract (each tenant's span-table fault time
    equals its fault histogram's exact sum, to the nanosecond) on
    every row.

    The overhead budget differs per cell because span cost is
    per *fault*, not per request.  The serving cell runs at the full
    ``--fastlane-requests`` size (unlike PSI's shrunk copy) so its
    fixed fault population is amortized over real serving work, and
    both its lanes are gated at ``--max-spans-overhead`` (default
    25%; with the batch shortcut off it lands within about 10%, with
    it on requests are served so fast that the same per-fault work is
    a larger fraction of a much smaller wall).  The pressure cell thrashes by
    construction — nearly every event is in the fault path the
    recorder brackets — so it is gated only by a fixed 100% canary
    ceiling that catches per-fault-cost regressions.
    """
    pressure_ceiling = 1.0
    cells = {
        "pressure": big_fleet_config(args.tenants, args.requests),
        "serving": fastlane_config(args.tenants, args.fastlane_requests),
    }
    pairs = max(OBSERVER_PAIRS, args.repeats)
    out = {
        "max_overhead": args.max_spans_overhead,
        "pressure_ceiling": pressure_ceiling,
        "cells": {},
    }
    for cell_name, config in cells.items():
        ceiling = (
            pressure_ceiling
            if cell_name == "pressure"
            else args.max_spans_overhead
        )
        cell_out = {}
        for lane_name, fast in (("fast", True), ("scalar", False)):
            timed, rows = _observer_pairs(config, fast, pairs, "spans")
            identical = json.dumps(
                _strip_spans(rows["on"]), sort_keys=True
            ) == json.dumps(rows["off"], sort_keys=True)
            exact = all(
                t["spans"]["total_ns"] == t["fault_hist"]["sum"]
                and t["spans"]["faults"] == t["fault_hist"]["count"]
                for t in rows["on"]["tenants"]
            )
            cell_out[lane_name] = {
                **timed,
                "ceiling": ceiling,
                "overhead_ok": timed["overhead"] <= ceiling,
                "rows_identical": identical,
                "tenant_spans_exact": exact,
            }
        out["cells"][cell_name] = cell_out
    return out


def _tenant_p99_slo(rows) -> list:
    """Sorted, comparable (policy, seed, tenant, p99 bucket sig, slo)."""
    from repro.metrics.registry import Histogram

    out = []
    for row in sorted(rows, key=lambda r: (r["policy"], r["seed"])):
        for t in row["tenants"]:
            hist = Histogram()
            hist._from_obj(t["request_hist"])
            out.append(
                (
                    row["policy"],
                    row["seed"],
                    t["tenant"],
                    round(hist.percentile(99), 3),
                    t["slo_violations"],
                )
            )
    return out


def bench_identity(args, tmp_dir: pathlib.Path) -> dict:
    """Property 2: serial == jobs == interrupt+resume, per tenant."""
    config = FleetConfig(
        n_tenants=8,
        shapes=(TenantShape(n_items=250),),
        capacity_ratio=0.5,
        n_requests_total=3_000,
        arrival_rate_rps=120_000.0,
        n_cpus=4,
    )
    policies = ["clock", "mglru"]
    seeds = [100, 101]

    serial = tmp_dir / "serial.jsonl"
    with JsonlSink(str(serial), config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1)
    parallel = tmp_dir / "parallel.jsonl"
    with JsonlSink(str(parallel), config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=2)
    resumed = tmp_dir / "resumed.jsonl"
    with JsonlSink(str(resumed), config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, max_trials=2)
    with JsonlSink(str(resumed), config.to_dict()) as sink:  # reopen
        run_sweep(config, policies, seeds, sink, jobs=1)

    sh, srows = load_rows(str(serial))
    ph, prows = load_rows(str(parallel))
    rh, rrows = load_rows(str(resumed))
    s_sig = _tenant_p99_slo(srows)
    identical = s_sig == _tenant_p99_slo(prows) == _tenant_p99_slo(rrows)
    reports_identical = (
        render_markdown(sh, srows)
        == render_markdown(ph, prows)
        == render_markdown(rh, rrows)
    )
    return {
        "trials": len(srows),
        "tenant_series_compared": len(s_sig),
        "serial_eq_jobs_eq_resume": identical,
        "reports_identical": reports_identical,
        "policy_summaries": {
            policy: {k: round(v, 2) for k, v in summary.items()}
            for policy, summary in summary_by_policy(srows)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=200)
    parser.add_argument("--requests", type=int, default=30_000)
    parser.add_argument(
        "--fastlane-requests",
        type=int,
        default=6_000_000,
        help="requests on the serving-bound speedup cell; the lane's "
        "fixed costs need a few million requests to amortize",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fast-vs-scalar speedup gate on the serving-bound cell",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="interleaved timing rounds per lane for the lane gate "
        "(best-of scoring); the observer gates time at least "
        f"{OBSERVER_PAIRS} off/on pairs",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=1536.0,
        help="peak-RSS gate for the scale trial (default 1.5 GiB)",
    )
    parser.add_argument(
        "--max-psi-overhead",
        type=float,
        default=0.05,
        help="PSI-on vs PSI-off CPU-time overhead gate per "
        "(cell, lane) (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--max-spans-overhead",
        type=float,
        default=0.25,
        help="spans-on vs spans-off CPU-time overhead gate on the "
        "serving cell's lanes (default 0.25 = 25%%); the thrash-by-"
        "construction pressure cell uses a fixed 100%% canary ceiling",
    )
    parser.add_argument(
        "--output",
        default=str(
            pathlib.Path(__file__).parent / "output" / "BENCH_fleet.json"
        ),
    )
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        identity = bench_identity(args, pathlib.Path(tmp))
    scale = bench_scale(args)
    fast_lane = bench_fast_lane(args)
    psi = bench_psi_overhead(args)
    spans = bench_spans_overhead(args)

    result = {
        "benchmark": "fleet",
        "scale": scale,
        "fast_lane": fast_lane,
        "identity": identity,
        "psi": psi,
        "spans": spans,
    }
    out_path = pathlib.Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    failures = []
    if not scale["rss_ok"]:
        failures.append(
            f"peak RSS {scale['peak_rss_mb']}MB exceeds budget "
            f"{scale['rss_budget_mb']}MB"
        )
    if scale["evictions"] == 0:
        failures.append(
            "scale trial produced zero evictions — no memory pressure"
        )
    if not scale["rows_identical"]:
        failures.append("scale cell: fast and scalar lane rows differ")
    if not fast_lane["rows_identical"]:
        failures.append("fastlane cell: fast and scalar lane rows differ")
    if not fast_lane["speedup_ok"]:
        failures.append(
            f"fast-lane speedup {fast_lane['speedup']}x below gate "
            f"{fast_lane['min_speedup']}x"
        )
    if not identity["serial_eq_jobs_eq_resume"]:
        failures.append("per-tenant p99/SLO differ across execution modes")
    if not identity["reports_identical"]:
        failures.append("rendered reports differ across execution modes")
    for cell_name, lanes in psi["cells"].items():
        for lane_name, cell in lanes.items():
            if not cell["rows_identical"]:
                failures.append(
                    f"psi {cell_name}/{lane_name}: PSI-on row (minus psi "
                    "sections) differs from PSI-off row"
                )
            if not cell["overhead_ok"]:
                failures.append(
                    f"psi {cell_name}/{lane_name}: overhead "
                    f"{cell['overhead']:.1%} exceeds gate "
                    f"{psi['max_overhead']:.0%}"
                )
    for cell_name, lanes in spans["cells"].items():
        for lane_name, cell in lanes.items():
            if not cell["rows_identical"]:
                failures.append(
                    f"spans {cell_name}/{lane_name}: spans-on row (minus "
                    "spans sections) differs from spans-off row"
                )
            if not cell["tenant_spans_exact"]:
                failures.append(
                    f"spans {cell_name}/{lane_name}: tenant span totals "
                    "do not equal fault-histogram sums exactly"
                )
            if not cell["overhead_ok"]:
                failures.append(
                    f"spans {cell_name}/{lane_name}: overhead "
                    f"{cell['overhead']:.1%} exceeds gate "
                    f"{cell['ceiling']:.0%}"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
