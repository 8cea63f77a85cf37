#!/usr/bin/env python3
"""The simulator's benchmark: the paper-figure cells and two fleet cells,
timed end to end and per layer.

Usage (from the repository root; the script finds ``src/`` itself)::

    python3 benchmarks/suite/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/suite/run.py [--workloads a,b] [--repeats R] [--seconds S]
    python3 benchmarks/suite/run.py compare PARENT.json CHANGE.json
    python3 benchmarks/suite/run.py figures [--bless]
    python3 benchmarks/suite/run.py --smoke

With ``--workload`` it makes one run: it times the set-up (imports plus
a cold build of every dataset, in fresh processes), then runs the
workload's rounds in a fresh process for ``--seconds``, checks the
simulated output, prints every metric with its unit and, last, one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the metrics are the per-layer ones and the run also
writes ``out/<workload>/layers.folded``.

Without ``--workload`` it makes that run ``--repeats`` times per
workload plus one traced run, and writes the record
``out/records/<rev>.json``.  ``compare`` judges two records.
``figures`` regenerates all twelve paper figures at the quick-pass
trial count, prints each one's wall time and diffs them against
``golden/``; ``--bless`` rewrites ``golden/`` and ``digests.json``.
``--smoke`` runs two tiny workloads through the whole pipeline and
validates the record.

Exit codes: 0 all checks passed, 1 a check or run failed, 2 the
environment or the command line is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

#: The ``REPRO_*`` knobs this harness sets for every simulator process;
#: any other one in the environment would silently change what is timed
#: (``REPRO_FAST_ACCESS=0`` would time the scalar lane), so it refuses.
OWNED_ENV = ("REPRO_JOBS", "REPRO_TRACE_CACHE")
#: Pool workers: the benchmark host's two cores.
JOBS = 2
#: Base seed of the committed digests (the figure benchmarks' default).
DEFAULT_SEED = 10_000
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child that exceeds these is stopped and counted as failed.
SETUP_TIMEOUT_S = 60
WORK_TIMEOUT_EXTRA_S = 140
#: Printed by the multiprocessing resource tracker when it is asked to
#: forget a shared-memory segment it never saw (a known teardown race
#: in the simulator's dataset sharing); counted, not treated as failure.
SHM_TEARDOWN_ERROR = "KeyError: '/psm_"
#: Exit code of a child that rejected its command line.
USAGE = 2
#: Host-speed sampling.  On a shared host, neighbours slow every
#: workload by 1.3-2x for seconds to minutes at a time, in CPU time as
#: well as wall time.  While a run times anything, one sampler per CPU,
#: pinned to it, runs a small interpreter-bound kernel every
#: ``SPEED_PERIOD_S`` and records the kernel's CPU time.  Each timed
#: phase (one set-up, one round) is scaled by ``SPEED_NOMINAL_MS`` over
#: the trimmed mean of the samples taken during it.
SPEED_PERIOD_S = 0.05
SPEED_KERNEL_STEPS = 2000
#: Share of samples dropped at each end before averaging, and the
#: fewest samples averaged.
SPEED_TRIM = 0.1
SPEED_MIN_SAMPLES = 10
#: The kernel's CPU time on the development VM (two vCPUs of an Intel
#: Xeon) in a quiet phase.  Scaled times read as seconds on a host
#: that fast.
SPEED_NOMINAL_MS = 0.32


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return USAGE
    foreign = sorted(k for k in os.environ if k.startswith("REPRO_") and k not in OWNED_ENV)
    if foreign:
        print(f"error: refusing to run with {', '.join(foreign)} set; unset "
              f"{'it' if len(foreign) == 1 else 'them'} first", file=sys.stderr)
        return USAGE
    # SIGTERM unwinds like an exception, so pools shut down, shared
    # memory is unlinked and child process groups are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path[:0] = [str(SRC), str(HERE)]
    mode = argv[0] if argv and not argv[0].startswith("-") else "run"
    if mode == "_setup":
        return _setup_child()
    if mode == "_work":
        return _work_child(argv[1:])
    if mode == "_speed":
        return _speed_child(int(argv[1]))
    if mode == "compare":
        return compare_mode(argv[1:])
    if mode == "figures":
        return figures_mode(argv[1:])
    if mode != "run":
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return USAGE
    return run_mode(argv)


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def child_env(cache: pathlib.Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_TRACE_CACHE"] = str(cache)
    env["REPRO_JOBS"] = str(JOBS)
    return env


def run_self(args: List[str], env: Dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    """Run this script in a fresh interpreter and process group.

    The whole group (the child, its pool workers, the resource tracker)
    is stopped on a timeout, on any exception here, and after the child
    exits, so nothing outlives the call.  A timeout reads as exit -9.
    """
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), *args]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        out, err = proc.communicate()
        code = -9
    except BaseException:
        _stop_group(proc)
        raise
    _stop_group(proc)
    return subprocess.CompletedProcess(cmd, code, out, err)


class Speedometer:
    """One host-speed sampler (``run.py _speed CPU``) per CPU this process
    may run on, sampling from construction until ``stop``."""

    def __init__(self) -> None:
        script = str(pathlib.Path(__file__).resolve())
        self.procs: List[subprocess.Popen] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(subprocess.Popen(
                    [sys.executable, script, "_speed", str(cpu)], cwd=ROOT,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> List[Tuple[float, float]]:
        """Stop every sampler (a closed stdin tells it to) and wait for it;
        return all ``(time.monotonic(), kernel ms)`` samples."""
        samples: List[Tuple[float, float]] = []
        try:
            for proc in self.procs:
                out, _err = proc.communicate(timeout=30)
                samples += [(t, ms) for t, ms in json.loads(out)]
        finally:
            for proc in self.procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return samples


def kernel_ms(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Trimmed mean kernel time of the samples taken in ``[start, end]``,
    or of the ``SPEED_MIN_SAMPLES`` taken nearest to it when it holds
    fewer (a phase shorter than a few sampling periods)."""
    window = sorted(ms for t, ms in samples if start <= t <= end)
    if len(window) < SPEED_MIN_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:SPEED_MIN_SAMPLES]
        window = sorted(ms for _t, ms in nearest)
    if not window:
        raise RuntimeError("the host-speed samplers took no samples")
    cut = int(len(window) * SPEED_TRIM)
    return statistics.fmean(window[cut:len(window) - cut])


def _stop_group(proc: subprocess.Popen) -> None:
    """SIGTERM what is still running in the child's process group, then
    SIGKILL it, waiting for each to end."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not _group_running(proc.pid):
            break
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and _group_running(proc.pid):
            proc.poll()
            time.sleep(0.05)
    proc.wait()


def _group_running(pgid: int) -> bool:
    """Whether any process of group *pgid* has not yet exited (zombies
    have exited; only their parent's wait is missing)."""
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            return True
    return False


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def _setup_child() -> int:
    import suite_work

    suite_work.build_datasets()
    return 0


def _work_child(argv: List[str]) -> int:
    import suite_work

    parser = argparse.ArgumentParser(prog="run.py _work")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--folded", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    workload = suite_work.lookup(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return USAGE
    result = suite_work.run_work(
        workload, args.seed, args.seconds, bool(args.trace), JOBS, args.scratch, args.folded
    )
    args.result.write_text(json.dumps(result))
    return 0


def _speed_child(cpu: int) -> int:
    """Sample the speed of *cpu* until stdin closes, then print the
    samples as JSON.  The kernel's CPU time, not its wall time, is
    recorded, so time spent waiting for the CPU does not count; what
    counts is how fast the CPU runs interpreter code while it has it."""
    os.sched_setaffinity(0, {cpu})
    table = list(range(4096))
    samples = []
    while not select.select([sys.stdin], [], [], SPEED_PERIOD_S)[0]:
        at = time.monotonic()
        t0 = time.thread_time_ns()
        total = 0
        for i in range(SPEED_KERNEL_STEPS):
            total += table[(i * 2654435761) & 4095]
        samples.append((at, (time.thread_time_ns() - t0) / 1e6))
    json.dump(samples, sys.stdout)
    return 0


# ----------------------------------------------------------------------
# One run (the command in BENCHMARK.json)
# ----------------------------------------------------------------------


def run_mode(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="make one run of this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=pathlib.Path, help="also write the run's full detail here")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    parser.add_argument("--workloads", help="suite: comma-separated subset (default: all)")
    parser.add_argument("--repeats", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads through the whole suite; validates the record")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        detail = run_one(spec, args.workload, args.seed, seconds, bool(args.trace),
                         args.setup_repeats)
        if detail is None:
            return USAGE
        if args.detail:
            args.detail.parent.mkdir(parents=True, exist_ok=True)
            args.detail.write_text(json.dumps(detail, indent=1))
        for name, value in detail["metrics"].items():
            print(f"{args.workload} {name} = {value['value']:.6g} {value['unit']}")
        for check in detail["checks"]:
            if not check["ok"]:
                print(f"FAILED check: {check['name']}", file=sys.stderr)
        print(json.dumps({k: detail[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if detail["correct"] else 1
    if args.smoke:
        return smoke_mode(spec)
    names = [w["name"] for w in spec["workloads"]]
    selected = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    record = suite(spec, selected, args.repeats, seconds, args.seed, args.setup_repeats)
    path = OUT / "records" / f"{record['rev']}{'-dirty' if record['dirty'] else ''}.json"
    write_record(record, path)
    return 0 if all(wl["failed"] == 0 for wl in record["workloads"].values()) else 1


def run_one(spec: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int) -> Optional[Dict[str, Any]]:
    """One run: set-up in fresh processes, then the work in another.
    ``None`` when the work process rejected its command line."""
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    checks: List[Dict[str, Any]] = []
    speedometer = Speedometer()
    try:
        setup_spans = []
        for k in range(max(1, setup_repeats)):
            cache = tmp / f"cache-{k}"
            started = time.monotonic()
            proc = run_self(["_setup"], child_env(cache), SETUP_TIMEOUT_S)
            setup_spans.append((started, time.monotonic()))
            checks.append({"name": f"set-up {k} exits 0", "ok": proc.returncode == 0})
            _relay_failure(proc)
        result_path = tmp / "work.json"
        proc = run_self(
            ["_work", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--scratch", str(tmp), "--result", str(result_path),
             "--folded", str(OUT / workload / "layers.folded")],
            child_env(cache), seconds + WORK_TIMEOUT_EXTRA_S,
        )
        _relay_failure(proc)
        if proc.returncode == USAGE:
            return None
        checks.append({"name": "work process exits 0", "ok": proc.returncode == 0})
        work = json.loads(result_path.read_text()) if proc.returncode == 0 else None
        shm_errors = proc.stderr.count(SHM_TEARDOWN_ERROR)
    finally:
        samples = speedometer.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    detail: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s": [end - start for start, end in setup_spans],
        "kernel_ms": {"setup": [kernel_ms(samples, *span) for span in setup_spans], "rounds": []},
        "shm_teardown_errors": shm_errors, "rounds": [], "digest": None, "per_layer": {},
    }
    trials = 0
    if work is not None:
        checks += work["checks"]
        rounds = work["rounds"]
        detail.update(rounds=rounds, digest=rounds[0]["digest"], per_layer=work.get("per_layer", {}))
        detail["kernel_ms"]["rounds"] = [kernel_ms(samples, r["started"], r["ended"]) for r in rounds]
        if trace:
            detail["per_layer"]["bench.trace_overhead"] = trace_overhead(detail)
        trials = sum(int(r["counts"]["core.trials"]) for r in rounds)
        committed = json.loads(DIGESTS.read_text())["rounds"] if DIGESTS.exists() else {}
        if seed == committed.get("seed") and workload in committed.get("workloads", {}):
            checks.append({"name": "digest equals the committed one",
                           "ok": rounds[0]["digest"] == committed["workloads"][workload]})
    detail["checks"] = checks
    failed = sum(1 for c in checks if not c["ok"])
    detail.update(attempted=trials + len(checks), failed=failed, correct=failed == 0)
    detail["metrics"] = reported_metrics(spec, detail, work) if work is not None else {}
    return detail


def _relay_failure(proc: subprocess.CompletedProcess) -> None:
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)


def reported_metrics(spec: Dict[str, Any], detail: Dict[str, Any],
                     work: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics (untraced run) or the per-layer ones
    (traced run), each ``{"value", "unit"}``."""
    if detail["trace"]:
        layer = detail["per_layer"]
        return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    values = end_to_end_values(detail, work)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def end_to_end_values(detail: Dict[str, Any], work: Dict[str, Any]) -> Dict[str, float]:
    """Medians over the run's untraced rounds, the set-up median, and peak
    RSS as the work process's peak plus ``jobs`` times its largest
    worker's.

    Each round's and each set-up's times are scaled to the nominal host
    speed, by ``SPEED_NOMINAL_MS`` over the kernel time sampled during
    it; a throughput is divided by that factor.  The detail keeps the
    measured times."""
    rounds = [(r, f) for r, f in _round_factors(detail) if not r["traced"]]
    rss = work["maxrss_kb"]
    return {
        "wall_s": statistics.median(r["wall_s"] * f for r, f in rounds),
        "cpu_s": statistics.median((r["parent_cpu_s"] + r["child_cpu_s"]) * f for r, f in rounds),
        "peak_rss_mb": (rss["self"] + JOBS * rss["children"]) / 1024.0,
        "setup_s": statistics.median(
            s * SPEED_NOMINAL_MS / ms
            for s, ms in zip(detail["setup_s"], detail["kernel_ms"]["setup"])
        ),
        "sim_ops_per_s": statistics.median(r["sim_ops"] / (r["wall_s"] * f) for r, f in rounds),
    }


def trace_overhead(detail: Dict[str, Any]) -> float:
    """``bench.trace_overhead``: the traced rounds' median scaled wall
    over the untraced rounds' median, minus one."""
    walls: Dict[bool, List[float]] = {True: [], False: []}
    for r, f in _round_factors(detail):
        walls[r["traced"]].append(r["wall_s"] * f)
    return statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0


def _round_factors(detail: Dict[str, Any]) -> List[Tuple[Dict[str, Any], float]]:
    """Each round with its host-speed factor."""
    return [(r, SPEED_NOMINAL_MS / ms)
            for r, ms in zip(detail["rounds"], detail["kernel_ms"]["rounds"])]


# ----------------------------------------------------------------------
# Suite: repeated runs into one record
# ----------------------------------------------------------------------


def suite(spec: Dict[str, Any], workloads: List[str], repeats: int, seconds: float, seed: int,
          setup_repeats: int) -> Dict[str, Any]:
    """``repeats`` untraced runs and one traced run per workload, each in
    a fresh process exactly as the BENCHMARK.json command runs them.

    Runs go round-robin over the workloads, so a stretch of host
    contention lands on one repeat of several workloads rather than on
    every repeat of one.
    """
    from suite_compare import SCHEMA, summarize

    import numpy

    units = {m["name"]: m for m in spec["end_to_end"]}
    record: Dict[str, Any] = {
        "schema": SCHEMA, **git_rev(), "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "env": {k: "<set per run>" if k == "REPRO_TRACE_CACHE" else v
                for k, v in child_env(pathlib.Path(".")).items() if k.startswith("REPRO_")},
        "repeats": repeats, "seconds": seconds, "seed": seed,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "workloads": {},
    }
    all_runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    for i in range(repeats + 1):
        trace = i == repeats
        for name in workloads:
            detail_path = OUT / "runs" / f"{name}-{i}.json"
            detail_path.unlink(missing_ok=True)
            args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(int(trace)), "--setup-repeats", str(setup_repeats),
                    "--detail", str(detail_path)]
            proc = run_self(args, dict(os.environ), 900)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            all_runs[name].append(
                json.loads(detail_path.read_text()) if detail_path.exists() else
                {"failed": 1, "attempted": 1, "metrics": {}, "digest": None,
                 "shm_teardown_errors": 0, "per_layer": {}, "trace": trace})
    for name, runs in all_runs.items():
        plain = [r for r in runs if not r["trace"]]
        end_to_end = {}
        for metric, m in units.items():
            samples = [r["metrics"][metric]["value"] for r in plain if metric in r["metrics"]]
            if samples:
                end_to_end[metric] = {"samples": samples, **summarize(samples),
                                      "unit": m["unit"], "better": m["better"]}
        record["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": runs[-1]["per_layer"],
            "digests": [r["digest"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)
            + (len({r["digest"] for r in runs}) != 1),
            "shm_teardown_errors": sum(r["shm_teardown_errors"] for r in runs),
        }
    return record


def git_rev() -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "--short=12", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": rev or "unknown", "dirty": bool(status) if status is not None else True}


def write_record(record: Dict[str, Any], path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\n{'workload':<18} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12}  n")
    for name, wl in record["workloads"].items():
        for metric, s in wl["end_to_end"].items():
            print(f"{name:<18} {metric:<15} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g}  {s['n']} {s['unit']}")
        print(f"{name:<18} attempted {wl['attempted']} failed {wl['failed']} "
              f"shm teardown errors {wl['shm_teardown_errors']}")
    print(f"record: {path}")


def smoke_mode(spec: Dict[str, Any]) -> int:
    """Both tiny workloads through the whole suite pipeline (one untraced
    and one traced run each), then a schema check of the record."""
    import suite_work
    from suite_compare import validate_record

    record = suite(spec, list(suite_work.SMOKE_WORKLOADS), repeats=1, seconds=1,
                   seed=DEFAULT_SEED, setup_repeats=1)
    write_record(record, OUT / "smoke-record.json")
    problems = validate_record(record, spec)
    problems += [f"{name}: {wl['failed']} failed ops"
                 for name, wl in record["workloads"].items() if wl["failed"]]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


# ----------------------------------------------------------------------
# compare / figures
# ----------------------------------------------------------------------


def compare_mode(argv: List[str]) -> int:
    from suite_compare import compare

    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.parent.read_text()), json.loads(args.change.read_text()))
    print(f"{'workload':<18} {'metric':<15} {'parent':>12} {'change':>12} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<15} {row['parent']:>12.5g} "
              f"{row['change']:>12.5g} {row['bound']:>6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def figures_mode(argv: List[str]) -> int:
    """Regenerate all twelve figures with one shared runner (as the figure
    benchmarks do), time each, and diff against ``golden/``."""
    parser = argparse.ArgumentParser(prog="run.py figures")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite golden/ and digests.json instead of checking them")
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="figures-", dir=OUT))
    os.environ.update(child_env(tmp / "cache"))
    try:
        import suite_work
        from repro.core.experiment import ExperimentRunner
        from repro.core.figures import FIGURES

        mismatched = []
        total = 0.0
        with ExperimentRunner(jobs=JOBS) as runner:
            for fig_id, fn in FIGURES.items():
                t0 = time.perf_counter()
                result = fn(runner, n_trials=suite_work.FIGURE_TRIALS, base_seed=DEFAULT_SEED)
                wall = time.perf_counter() - t0
                total += wall
                text = (f"{result.figure_id}: {result.description}\n"
                        f"paper claim: {result.paper_claim}\n\n{result.text}\n")
                golden = GOLDEN / f"{fig_id}.txt"
                if args.bless:
                    GOLDEN.mkdir(exist_ok=True)
                    golden.write_text(text)
                elif not golden.exists() or golden.read_text() != text:
                    mismatched.append(fig_id)
                print(f"{fig_id:<6} wall_s = {wall:.3f} s")
        print(f"total  wall_s = {total:.3f} s (12 figures, n_trials={suite_work.FIGURE_TRIALS}, "
              f"jobs={JOBS})")
        if args.bless:
            digests = {}
            for name, wl in suite_work.WORKLOADS.items():
                digests[name] = suite_work.run_round(wl, DEFAULT_SEED, tmp, JOBS).digest
                print(f"{name:<18} digest {digests[name]}")
            DIGESTS.write_text(json.dumps(
                {"rounds": {"seed": DEFAULT_SEED, "workloads": digests}}, indent=1
            ) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for fig_id in mismatched:
        print(f"MISMATCH: {fig_id} differs from golden/{fig_id}.txt", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
