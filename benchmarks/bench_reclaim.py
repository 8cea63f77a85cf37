"""Reclaim fast-lane benchmark: end-to-end throughput under eviction.

Runs the reclaim-dominated cells of the paper grid — PageRank at 50%
capacity over both devices and both headline policies — and reports
simulated accesses, faults and evictions per wall-clock second in the
production configuration (``fast_on``) and with the scalar access loop
on the heap-only engine (``fast_off``: ``REPRO_FAST_ACCESS=0`` and
``REPRO_FAST_ENGINE=0``).  Reclaim itself (triage-block eviction,
pooled swap writes) has one kernel, which both configurations run.
Both simulate bit-identical trials (pinned by
``tests/core/test_reclaim_equivalence.py``), so the ratio between them
is pure mechanical speedup.

Each cell also carries the pre-fast-lane revision's recorded numbers
(:data:`PRE_PR_BASELINE`, measured on the same reference box) so the
JSON reports the cumulative end-to-end speedup of the reclaim rework.

Each cell is also measured with the metrics registry attached
(``metrics_on``) and with the span recorder attached (``spans_on``).
``metrics_overhead_x`` is gated at the run tolerance (metering is
amortized, so 5% holds even here); ``spans_overhead_x`` is gated at
``--max-spans-x`` (default 2.5x) instead — these cells thrash by
construction, so nearly every access pays the per-fault bracket cost
the recorder exists to measure, and the ceiling is a per-fault-cost
regression canary rather than an overhead budget.

Regression gate: the committed ``BENCH_reclaim.json`` is the baseline.

- ``--check-mode absolute`` (default) compares each cell's ``fast_on``
  accesses/second against the baseline's; a drop beyond ``--tolerance``
  (default 5%) fails the run.  Use on hardware comparable to the
  baseline's.
- ``--check-mode ratio`` compares each cell's fast-vs-scalar *speedup
  ratio* instead.  Wall-clock noise and machine speed cancel out of the
  ratio, so this is the gate CI runs on shared hardware.

Pass ``--no-check`` to skip the gate entirely.

Writes ``benchmarks/output/BENCH_reclaim.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_reclaim.py [--rounds N]
        [--no-check] [--check-mode {absolute,ratio}] [--tolerance F]
        [--output PATH] [--baseline PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.metrics import MetricsConfig
from repro.spans import SpansConfig

#: The reclaim-heavy cells: PageRank's working set at 50% capacity keeps
#: kswapd and direct reclaim continuously busy on every one of these.
CELLS = [
    dict(policy="clock", swap="ssd"),
    dict(policy="clock", swap="zram"),
    dict(policy="mglru", swap="ssd"),
    dict(policy="mglru", swap="zram"),
]
WORKLOAD = "pagerank"
RATIO = 0.5
SEED = 10_000

#: Recorded throughput of the revision just before the reclaim fast
#: lane (batched triage, pooled swap I/O, engine fast path), measured
#: on the reference box with the then-current fast path on.  The JSON's
#: ``speedup_vs_pre_pr`` is each cell's fast_on throughput over this —
#: re-measure both sides on your own hardware for an exact comparison.
PRE_PR_BASELINE = {
    "clock/ssd": {"wall_seconds": 1.7114, "acc_per_sec": 1_669_876},
    "clock/zram": {"wall_seconds": 1.6201, "acc_per_sec": 1_764_081},
    "mglru/ssd": {"wall_seconds": 1.2737, "acc_per_sec": 2_244_481},
    "mglru/zram": {"wall_seconds": 1.4386, "acc_per_sec": 1_987_156},
}

#: The lane toggles ``fast_off`` switches; all-on is the production path.
FAST_TOGGLES = ("REPRO_FAST_ACCESS", "REPRO_FAST_ENGINE")


def _cell_key(cell: dict) -> str:
    return f"{cell['policy']}/{cell['swap']}"


def _one_trial(
    cell: dict, fast: bool, metrics: bool = False, spans: bool = False
) -> tuple[float, dict]:
    """(wall seconds, raw counters) for one trial of *cell*."""
    config = SystemConfig(
        policy=cell["policy"], swap=cell["swap"], capacity_ratio=RATIO
    )
    previous = {name: os.environ.get(name) for name in FAST_TOGGLES}
    for name in FAST_TOGGLES:
        os.environ[name] = "1" if fast else "0"
    t0 = time.perf_counter()
    try:
        trial = run_trial(
            WORKLOAD,
            config,
            SEED,
            metrics=MetricsConfig() if metrics else None,
            spans=SpansConfig() if spans else None,
        )
    finally:
        for name, value in previous.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    wall = time.perf_counter() - t0
    counters = {
        "accesses": (
            trial.counters["hits"] + trial.major_faults + trial.minor_faults
        ),
        "faults": trial.major_faults + trial.minor_faults,
        "evictions": trial.counters["evictions"],
    }
    return wall, counters


#: Configuration key → (fast, metrics, spans) flags for :func:`_one_trial`.
_CONFIGS = {
    "fast_on": (True, False, False),
    "fast_off": (False, False, False),
    "metrics_on": (True, True, False),
    "spans_on": (True, False, True),
}


def _measure_cell(cell: dict, rounds: int) -> dict:
    """Best-of-*rounds* wall time for every configuration of *cell*.

    The configurations are interleaved within each round (fast, scalar,
    metered, spanned back to back) so slow drift of the host — thermal
    throttle, noisy neighbours — lands on all of them roughly equally
    and cancels out of the ratios, instead of charging whichever
    configuration happened to run last.
    """
    walls: dict = {key: [] for key in _CONFIGS}
    counters: dict = {}
    for _ in range(rounds):
        for key, (fast, metrics, spans) in _CONFIGS.items():
            wall, counters[key] = _one_trial(
                cell, fast, metrics=metrics, spans=spans
            )
            walls[key].append(wall)
    out = {}
    for key in _CONFIGS:
        best = min(walls[key])
        c = counters[key]
        out[key] = {
            "rounds": rounds,
            "wall_seconds": walls[key],
            "best_wall_seconds": best,
            **c,
            "acc_per_sec": c["accesses"] / best,
            "faults_per_sec": c["faults"] / best,
            "evictions_per_sec": c["evictions"] / best,
        }
    return out


def _check_baseline(
    report: dict, baseline_path: pathlib.Path, tolerance: float, mode: str
) -> int:
    """Gate this run against the committed baseline JSON.

    Returns a process exit code: 0 when every cell is within tolerance
    (or no baseline exists yet), 1 on any regression beyond it.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    try:
        baseline = json.loads(baseline_path.read_text())
        base_cells = baseline["cells"]
    except (ValueError, KeyError, TypeError) as exc:
        print(f"baseline {baseline_path} unreadable ({exc}); skipping check")
        return 0
    floor = 1.0 - tolerance
    failures = 0
    for key, cell in report["cells"].items():
        base = base_cells.get(key)
        if base is None:
            print(f"{key}: not in baseline; skipping")
            continue
        try:
            if mode == "ratio":
                measured = cell["speedup_vs_fast_off"]
                reference = float(base["speedup_vs_fast_off"])
                label = "fast/scalar speedup"
            else:
                measured = cell["fast_on"]["acc_per_sec"]
                reference = float(base["fast_on"]["acc_per_sec"])
                label = "acc/s"
        except (KeyError, TypeError) as exc:
            print(f"{key}: baseline missing field ({exc}); skipping")
            continue
        ratio = measured / reference
        verdict = "OK" if ratio >= floor else "REGRESSION"
        print(
            f"{key}: {measured:,.2f} vs baseline {reference:,.2f} {label} "
            f"({ratio:.3f}x, floor {floor:.2f}x) ... {verdict}"
        )
        if ratio < floor:
            failures += 1
    if failures:
        print(
            f"FAIL: {failures} cell(s) regressed more than {tolerance:.0%} "
            f"vs {baseline_path} in {mode} mode.  If the drop is expected "
            "and understood, regenerate the baseline; otherwise fix the "
            "reclaim path.  (--no-check skips this gate.)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="trials per cell per configuration; best wall time wins "
        "(default 3)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the regression check against the committed baseline",
    )
    parser.add_argument(
        "--check-mode", choices=("absolute", "ratio"), default="absolute",
        help="gate on absolute acc/s (default) or on the fast/scalar "
        "speedup ratio (hardware-independent; use in CI)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed fractional drop vs the baseline (default 0.05)",
    )
    parser.add_argument(
        "--max-spans-x", type=float, default=2.5,
        help="spans-on wall-clock ceiling as a multiple of fast_on "
        "(default 2.5).  These cells thrash by construction — nearly "
        "every access funnels into the fault path the recorder "
        "brackets — so this is a per-fault-cost regression canary, "
        "not the fleet bench's serving-lane overhead gate",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "output" / "BENCH_reclaim.json",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="baseline JSON for the regression check (default: --output)",
    )
    args = parser.parse_args(argv)
    rounds = max(1, args.rounds)
    baseline_path = args.baseline if args.baseline is not None else args.output

    # Warm-up trial: populates the module-level dataset caches so the
    # first measured round is not charged graph construction.
    print(
        f"workload {WORKLOAD}@{RATIO:.0%}, seed {SEED}; warming up...",
        flush=True,
    )
    _one_trial(CELLS[0], fast=True)

    cells: dict = {}
    metrics_failures = 0
    for cell in CELLS:
        key = _cell_key(cell)
        measured = _measure_cell(cell, rounds)
        fast = measured["fast_on"]
        slow = measured["fast_off"]
        metered = measured["metrics_on"]
        spanned = measured["spans_on"]
        speedup = fast["acc_per_sec"] / slow["acc_per_sec"]
        # Pair each round's metered wall with the fast wall measured
        # seconds earlier in the same round and take the cleanest round:
        # host noise within a round is far smaller than across rounds,
        # so this bounds the metering overhead much more tightly than
        # the ratio of the two (possibly distant) best-of walls.
        overhead = min(
            m / f
            for f, m in zip(
                fast["wall_seconds"], metered["wall_seconds"]
            )
        )
        spans_overhead = min(
            s / f
            for f, s in zip(
                fast["wall_seconds"], spanned["wall_seconds"]
            )
        )
        entry = {
            "fast_on": fast,
            "fast_off": slow,
            "metrics_on": metered,
            "spans_on": spanned,
            "speedup_vs_fast_off": speedup,
            "metrics_overhead_x": overhead,
            "spans_overhead_x": spans_overhead,
        }
        pre = PRE_PR_BASELINE.get(key)
        if pre is not None:
            entry["pre_pr"] = pre
            entry["speedup_vs_pre_pr"] = (
                fast["acc_per_sec"] / pre["acc_per_sec"]
            )
        cells[key] = entry
        line = (
            f"{key:<11}: fast {fast['best_wall_seconds']:.3f}s "
            f"({fast['acc_per_sec']:,.0f} acc/s, "
            f"{fast['evictions_per_sec']:,.0f} evict/s), "
            f"scalar {slow['best_wall_seconds']:.3f}s, "
            f"{speedup:.2f}x, metrics {overhead:.3f}x, "
            f"spans {spans_overhead:.3f}x"
        )
        if pre is not None:
            line += f", {entry['speedup_vs_pre_pr']:.2f}x vs pre-PR"
        print(line, flush=True)
        # Within-run overhead gate: a metered trial must stay inside the
        # same tolerance the baseline gate uses (default 5%).  Both runs
        # happen back to back on this box, so no baseline is involved.
        if not args.no_check and overhead > 1.0 + args.tolerance:
            print(
                f"{key}: metrics-on overhead {overhead:.3f}x exceeds "
                f"{1.0 + args.tolerance:.2f}x ... REGRESSION",
                file=sys.stderr,
            )
            metrics_failures += 1
        if not args.no_check and spans_overhead > args.max_spans_x:
            print(
                f"{key}: spans-on wall {spans_overhead:.3f}x exceeds "
                f"ceiling {args.max_spans_x:.2f}x ... REGRESSION",
                file=sys.stderr,
            )
            metrics_failures += 1

    report = {
        "workload": WORKLOAD,
        "capacity_ratio": RATIO,
        "seed": SEED,
        "cells": cells,
    }

    # The regression gate compares against the *committed* baseline, so
    # it must run before the report overwrites that file.
    check_rc = 0
    if not args.no_check:
        check_rc = _check_baseline(
            report, baseline_path, args.tolerance, args.check_mode
        )
        if metrics_failures:
            print(
                f"FAIL: observer overhead beyond {args.tolerance:.0%} in "
                f"{metrics_failures} check(s).",
                file=sys.stderr,
            )
            check_rc = check_rc or 1

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return check_rc


if __name__ == "__main__":
    sys.exit(main())
