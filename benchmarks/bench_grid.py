"""Grid dataset-cache benchmark: multi-seed multi-worker wall clock.

Runs a reference grid — a dataset-heavy PageRank under both headline
policies at a memory-sufficient ratio, six seeds, two workers — end to
end through ``ExperimentRunner.run_many`` in three fresh subprocesses.
Every mode runs the same seed-chunk pool tasks, and in every mode each
pool worker gets the datasets its trials use; the modes differ only in
the on-disk trace cache the workers see:

- ``baseline``: ``REPRO_TRACE_CACHE=off``, so each worker builds the
  datasets it needs.
- ``cold``: an empty trace cache — the workers miss, build and store.
- ``warm``: the same command against the now-populated cache — the
  steady state of iterating on a grid.

All three modes must simulate *bit-identical* results: the parent
hashes every trial of every cell and fails on any digest mismatch.  It
also asserts the trace cache actually worked, from the counters each
pool worker reports: the cold run must record misses and stores, the
warm run hits and zero misses, and no run an I/O error.

Regression gate: the committed ``BENCH_grid.json`` is the baseline.

- ``--check-mode absolute`` (default) compares the warm run's wall time
  against the baseline's; a slowdown beyond ``--tolerance`` (default
  5%) fails the run.  Use on hardware comparable to the baseline's.
- ``--check-mode ratio`` compares the warm-vs-baseline *speedup ratio*
  instead.  Machine speed cancels out of the ratio, so this is the gate
  CI runs on shared hardware.
- ``--min-speedup X`` additionally requires the warm speedup to reach
  ``X`` regardless of the baseline file.

Pass ``--no-check`` to skip the perf gates (the bit-identity and
cache-behaviour assertions always run).

The default grid runs ``pagerank-grid``, a bench-local PageRank
parameterization (larger graph, fewer iterations) whose dataset-to-
simulation cost ratio matches the paper's full-scale 12-16 GB grids
rather than the repo's scaled-down default, which spends almost all its
wall time iterating over a small graph.  Pass ``--workloads`` with
registered workload names to benchmark the stock grid instead.

Writes ``benchmarks/output/BENCH_grid.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_grid.py [--rounds N]
        [--jobs N] [--trials N] [--ratio F] [--no-check]
        [--check-mode {absolute,ratio}] [--tolerance F]
        [--min-speedup X] [--output PATH] [--baseline PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

#: Directory each pool worker writes its trace-cache counters to, and
#: the ``run_cell_trials`` it wraps; ``_child`` sets both before the pool
#: forks, so the workers inherit them.
_SPOOL: pathlib.Path | None = None
_RUN_CELL_TRIALS = None


def _grid_args(args: argparse.Namespace) -> list[str]:
    return [
        "--workloads", args.workloads,
        "--policies", args.policies,
        "--swap", args.swap,
        "--ratio", str(args.ratio),
        "--trials", str(args.trials),
        "--base-seed", str(args.base_seed),
        "--vertices", str(args.vertices),
        "--degree", str(args.degree),
        "--iterations", str(args.iterations),
    ]


# ---------------------------------------------------------------------------
# Child: run the grid in *this* process and print a JSON summary.
# ---------------------------------------------------------------------------

def _reporting_cell_trials(*args, **kwargs):
    """``run_cell_trials`` that then writes this process's trace-cache
    counters to the spool.  The pool workers, not the process running
    the grid, load and store the datasets, so their counters are the
    ones the cache assertions read."""
    from repro.core import tracecache

    trials = _RUN_CELL_TRIALS(*args, **kwargs)
    (_SPOOL / f"{os.getpid()}.json").write_text(
        json.dumps(tracecache.STATS.snapshot())
    )
    return trials


def _child(args: argparse.Namespace) -> int:
    global _RUN_CELL_TRIALS, _SPOOL
    import repro.core.experiment as experiment
    from repro.core import tracecache
    from repro.core.config import ExperimentConfig, SystemConfig
    from repro.core.experiment import ExperimentRunner
    from repro.workloads import WORKLOAD_FACTORIES
    from repro.workloads.pagerank import PageRankParams, PageRankWorkload

    # The bench workload must be registered before the runner forks its
    # pool so the workers inherit it.
    params = PageRankParams(
        n_vertices=args.vertices,
        avg_degree=args.degree,
        n_iterations=args.iterations,
    )
    WORKLOAD_FACTORIES["pagerank-grid"] = lambda: PageRankWorkload(params)

    configs = [
        ExperimentConfig(
            workload=workload,
            system=SystemConfig(
                policy=policy, swap=args.swap, capacity_ratio=args.ratio
            ),
            n_trials=args.trials,
            base_seed=args.base_seed,
        )
        for workload in args.workloads.split(",")
        for policy in args.policies.split(",")
    ]
    _RUN_CELL_TRIALS = experiment.run_cell_trials
    experiment.run_cell_trials = _reporting_cell_trials
    with tempfile.TemporaryDirectory(prefix="bench-grid-spool-") as spool:
        _SPOOL = pathlib.Path(spool)
        t0 = time.perf_counter()
        with ExperimentRunner() as runner:  # jobs from REPRO_JOBS
            results = runner.run_many(configs)
        wall = time.perf_counter() - t0
        cache = tracecache.CacheStats().snapshot()
        for path in _SPOOL.glob("*.json"):
            for name, value in json.loads(path.read_text()).items():
                cache[name] += value

    digest = hashlib.sha256()
    major = minor = trials = 0
    for result in results:
        for trial in result.trials:
            digest.update(
                json.dumps(trial.to_dict(), sort_keys=True).encode()
            )
            major += trial.major_faults
            minor += trial.minor_faults
            trials += 1
    print(json.dumps({
        "wall_seconds": wall,
        "digest": digest.hexdigest(),
        "trials": trials,
        "major_faults": major,
        "minor_faults": minor,
        "cache": cache,
        "jobs": runner.jobs,
    }))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn one fresh subprocess per (round, mode).
# ---------------------------------------------------------------------------

def _run_mode(
    mode: str, cache_dir: str, args: argparse.Namespace
) -> dict:
    """One fresh-process grid run; returns the child's JSON summary."""
    env = dict(os.environ)
    env["REPRO_JOBS"] = str(args.jobs)
    env["REPRO_TRACE_CACHE"] = "off" if mode == "baseline" else cache_dir
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *_grid_args(args)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        raise RuntimeError(f"{mode} child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _verify_round(summaries: dict) -> list[str]:
    """Bit-identity and cache-behaviour assertions for one round."""
    problems = []
    digests = {m: s["digest"] for m, s in summaries.items()}
    if len(set(digests.values())) != 1:
        problems.append(f"result digests differ across modes: {digests}")
    cold, warm = summaries["cold"]["cache"], summaries["warm"]["cache"]
    if not (cold["misses"] > 0 and cold["stores"] > 0):
        problems.append(f"cold run never used the trace cache: {cold}")
    if not (warm["hits"] > 0 and warm["misses"] == 0):
        problems.append(f"warm run was not fully cached: {warm}")
    if any(s["cache"]["errors"] for s in summaries.values()):
        problems.append("trace cache recorded I/O errors")
    return problems


def _check_baseline(
    report: dict, baseline_path: pathlib.Path, tolerance: float, mode: str
) -> int:
    """Gate this run against the committed baseline JSON.

    Returns 0 when within tolerance (or no baseline exists), 1 on a
    regression beyond it.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    try:
        baseline = json.loads(baseline_path.read_text())
        if mode == "ratio":
            measured = report["speedup_warm"]
            reference = float(baseline["speedup_warm"])
            ratio = measured / reference
            label = "warm/baseline speedup"
        else:
            measured = report["modes"]["warm"]["best_wall_seconds"]
            reference = float(
                baseline["modes"]["warm"]["best_wall_seconds"]
            )
            ratio = reference / measured  # lower wall is better
            label = "warm wall seconds"
    except (ValueError, KeyError, TypeError) as exc:
        print(f"baseline {baseline_path} unreadable ({exc}); skipping check")
        return 0
    floor = 1.0 - tolerance
    verdict = "OK" if ratio >= floor else "REGRESSION"
    print(
        f"{label}: {measured:,.3f} vs baseline {reference:,.3f} "
        f"({ratio:.3f}x, floor {floor:.2f}x) ... {verdict}"
    )
    if ratio < floor:
        print(
            f"FAIL: grid {label} regressed more than {tolerance:.0%} vs "
            f"{baseline_path} in {mode} mode.  If the drop is expected and "
            "understood, regenerate the baseline; otherwise fix the "
            "dataset cache path.  (--no-check skips this gate.)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="grid runs per mode; best wall time wins (default 2)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="REPRO_JOBS for every mode (default 2)",
    )
    parser.add_argument("--workloads", default="pagerank-grid")
    parser.add_argument("--policies", default="clock,mglru")
    parser.add_argument("--swap", default="zram")
    parser.add_argument(
        "--vertices", type=int, default=196_608,
        help="pagerank-grid graph size (default 196608)",
    )
    parser.add_argument(
        "--degree", type=int, default=32,
        help="pagerank-grid average degree (default 32)",
    )
    parser.add_argument(
        "--iterations", type=int, default=1,
        help="pagerank-grid iterations; few iterations over a large "
        "graph keeps the dataset-to-simulation cost ratio at full-grid "
        "scale (default 1)",
    )
    parser.add_argument(
        "--ratio", type=float, default=1.1,
        help="capacity ratio; the default 1.1 keeps the grid above the "
        "reclaim watermarks so wall time is pure setup + access cost",
    )
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--base-seed", type=int, default=7_000)
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the perf gates (identity/cache assertions still run)",
    )
    parser.add_argument(
        "--check-mode", choices=("absolute", "ratio"), default="absolute",
        help="gate on warm wall seconds (default) or on the "
        "warm-vs-baseline speedup ratio (hardware-independent; use in CI)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed fractional drop vs the baseline (default 0.05)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail if the warm speedup is below this (0 = disabled)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "output" / "BENCH_grid.json",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="baseline JSON for the regression check (default: --output)",
    )
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    rounds = max(1, args.rounds)
    baseline_path = args.baseline if args.baseline is not None else args.output

    grid = (
        f"{args.workloads} x ({args.policies}) x {args.swap}"
        f"@{args.ratio:.0%}, {args.trials} seeds, {args.jobs} jobs"
    )
    print(f"grid {grid}; {rounds} round(s) x 3 fresh-process modes...",
          flush=True)

    walls: dict = {mode: [] for mode in ("baseline", "cold", "warm")}
    summaries: dict = {}
    problems: list[str] = []
    for rnd in range(rounds):
        with tempfile.TemporaryDirectory(prefix="bench-grid-cache-") as tmp:
            for mode in ("baseline", "cold", "warm"):
                summary = _run_mode(mode, tmp, args)
                walls[mode].append(summary["wall_seconds"])
                summaries[mode] = summary
                print(
                    f"  round {rnd + 1} {mode:<8}: "
                    f"{summary['wall_seconds']:.3f}s, "
                    f"{summary['trials']} trials, cache {summary['cache']}",
                    flush=True,
                )
        problems.extend(_verify_round(summaries))

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    modes = {}
    for mode, summary in summaries.items():
        modes[mode] = {
            "rounds": rounds,
            "wall_seconds": walls[mode],
            "best_wall_seconds": min(walls[mode]),
            "trials": summary["trials"],
            "major_faults": summary["major_faults"],
            "minor_faults": summary["minor_faults"],
            "cache": summary["cache"],
        }
    base, cold, warm = (
        modes[m]["best_wall_seconds"] for m in ("baseline", "cold", "warm")
    )
    report = {
        "grid": {
            "workloads": args.workloads,
            "policies": args.policies,
            "swap": args.swap,
            "capacity_ratio": args.ratio,
            "trials": args.trials,
            "base_seed": args.base_seed,
            "jobs": args.jobs,
        },
        "digest": summaries["warm"]["digest"],
        "modes": modes,
        "speedup_cold": base / cold,
        "speedup_warm": base / warm,
    }
    print(
        f"baseline {base:.3f}s, cold {cold:.3f}s "
        f"({report['speedup_cold']:.2f}x), warm {warm:.3f}s "
        f"({report['speedup_warm']:.2f}x)",
        flush=True,
    )

    check_rc = 1 if problems else 0
    if not args.no_check:
        if args.min_speedup and report["speedup_warm"] < args.min_speedup:
            print(
                f"FAIL: warm speedup {report['speedup_warm']:.2f}x is below "
                f"the required {args.min_speedup:.2f}x.",
                file=sys.stderr,
            )
            check_rc = 1
        # The gate compares against the *committed* baseline, so it must
        # run before the report overwrites that file.
        check_rc = check_rc or _check_baseline(
            report, baseline_path, args.tolerance, args.check_mode
        )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return check_rc


if __name__ == "__main__":
    sys.exit(main())
