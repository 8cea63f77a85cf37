"""The benchmark's workloads: what one round runs, what it counted, and
the per-layer numbers a traced run derives from it.

A *round* is a fixed unit of simulator work: the same cells (or fleet
trials) in the same order every time, so every round of one seed must
produce the same digest.  A run repeats rounds for its time budget and
reports medians over them.

The figure workloads run their cells through ``ExperimentRunner.run``
one cell at a time, as the figure functions in :mod:`repro.core.figures`
do, with the ROADMAP's quick-pass trial count (``REPRO_TRIALS=3``; YCSB
cells run two).  The fleet workloads run a ``run_sweep`` into a fresh
JSONL sink.  Both fleet configs are defined here, not imported, so
edits to the older fleet bench script cannot move this benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import DATASET_SEED, ExperimentRunner, run_trial
from repro.core.figures import YCSB_WORKLOADS
from repro.fleet.config import FleetConfig, TenantShape
from repro.fleet.runner import run_sweep
from repro.fleet.sink import JsonlSink, load_rows
from repro.fleet.trial import run_fleet_trial
from repro.metrics.config import MetricsConfig
from repro.sim.rng import RngTree
from repro.spans.config import SpansConfig
from repro.spans.profiler import write_folded
from repro.trace.config import TraceConfig
from repro.workloads import PAPER_WORKLOADS, datasets, make_workload

import suite_trace

#: Trials per figure cell: the ROADMAP's quick pass (``REPRO_TRIALS=3``).
FIGURE_TRIALS = 3
#: Rounds a run makes even when they overrun its time budget.  A traced
#: run alternates untraced and traced rounds and makes at least two of
#: each, for the overhead ratio.
MIN_ROUNDS = 2
MIN_TRACED_RUN_ROUNDS = 4
#: The policies every fleet round sweeps.
FLEET_POLICIES = ("clock", "mglru")

#: MM counters summed over a figure round (``TrialResult.counters``).
MM_COUNTERS = (
    "hits", "major_faults", "minor_faults", "evictions", "dirty_evictions",
    "direct_reclaims", "rmap_walks", "refaults", "ptes_scanned",
    "ptes_scanned_nearby", "aging_walks", "promotions", "swap_reads", "swap_writes",
)


@dataclass(frozen=True)
class FigureWorkload:
    """Paper-figure cells ``(workload, policy, swap, capacity_ratio)``.

    ``probe`` is the cell a traced run times with each observability
    plane on and off (default: the Fig 12 cell).
    """

    name: str
    cells: Tuple[Tuple[str, str, str, float], ...]
    n_trials: int = FIGURE_TRIALS
    probe: Tuple[str, str, str, float] = ("ycsb-a", "clock", "zram", 0.5)

    def configs(self, seed: int) -> List[ExperimentConfig]:
        return [
            ExperimentConfig(
                workload=workload,
                system=SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio),
                n_trials=cell_trials(workload, self.n_trials),
                base_seed=seed,
            )
            for workload, policy, swap, ratio in self.cells
        ]


@dataclass(frozen=True)
class FleetWorkload:
    """One fleet config swept over ``FLEET_POLICIES`` and ``n_seeds``
    consecutive seeds, from the run's seed, per round.

    ``probe_requests`` sizes the single trial a traced run times on each
    serving lane and with each observability plane: as long as the
    scalar lane allows in a few seconds, so the ratios rise above timer
    noise.
    """

    name: str
    config: FleetConfig
    probe_requests: int
    n_seeds: int = 1


def cell_trials(workload: str, n_trials: int) -> int:
    """Trials the figure functions run for a cell: YCSB pools request
    latencies across trials and runs ``max(2, n // 2)``."""
    return max(2, n_trials // 2) if workload in YCSB_WORKLOADS else n_trials


# The pressure sample covers every paper workload family on both swap
# devices (SSD queueing, ZRAM compression) with three policies, one of
# them a scan variant; ycsb-a/clock/zram is the Fig 12 cell.  The
# relaxed sample is the *same* (workload, policy) pairs on SSD at 75%
# and 90%: identical access streams with 2-7x fewer major faults, so a
# reclaim-path change should move the first and barely the second.
_PAIRS = (("tpch", "mglru-scan-all"), ("pagerank", "mglru"), ("ycsb-a", "clock"))

FIGURES_PRESSURE = FigureWorkload(
    "figures_pressure",
    tuple((w, p, swap, 0.5) for w, p in _PAIRS for swap in ("ssd", "zram")),
)
FIGURES_RELAXED = FigureWorkload(
    "figures_relaxed",
    tuple((w, p, "ssd", ratio) for w, p in _PAIRS for ratio in (0.75, 0.9)),
)
#: Global memcg reclaim: 200 tenants in two shapes at 25% capacity, no
#: hard limits, so the proportional global reclaimer does all the work.
#: Its fault count, and so its host time, varies about 5% from seed to
#: seed, so a round sweeps two seeds.
FLEET_PRESSURE = FleetWorkload(
    "fleet_pressure",
    FleetConfig(
        n_tenants=200,
        shapes=(TenantShape(n_items=300), TenantShape(n_items=600, read_fraction=0.5)),
        capacity_ratio=0.25,
        n_requests_total=120_000,
        arrival_rate_rps=400_000.0,
        slo_ns=2_000_000,
        n_cpus=8,
    ),
    probe_requests=30_000,
    n_seeds=2,
)
#: Serving-bound: read-only, zero per-request compute, 98% capacity, so
#: resident hits dominate and the vectorized serving lane does the work.
FLEET_SERVING = FleetWorkload(
    "fleet_serving",
    FleetConfig(
        n_tenants=200,
        shapes=(TenantShape(n_items=80, read_fraction=1.0, request_compute_ns=0),),
        swap="zram",
        capacity_ratio=0.98,
        n_requests_total=16_000_000,
        arrival_rate_rps=1e11,
        n_cpus=8,
    ),
    probe_requests=1_600_000,
)

WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (FIGURES_PRESSURE, FIGURES_RELAXED, FLEET_PRESSURE, FLEET_SERVING)
}
#: Tiny stand-ins for ``--smoke`` and the harness tests (no committed digest).
SMOKE_WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        FigureWorkload(
            "smoke_figure", (("tpch", "clock", "ssd", 0.5),), n_trials=2,
            probe=("tpch", "clock", "ssd", 0.5),
        ),
        FleetWorkload(
            "smoke_fleet", replace(FLEET_PRESSURE.config, n_tenants=8, n_requests_total=4_000),
            probe_requests=1_000,
        ),
    )
}


def lookup(name: str) -> Any:
    """The workload called *name*, or ``None``."""
    return WORKLOADS.get(name) or SMOKE_WORKLOADS.get(name)


def build_datasets() -> None:
    """Build (or load from the trace cache) every dataset the workloads
    use: the five paper workloads and both fleet configs' tenant shapes."""
    for name in PAPER_WORKLOADS:
        make_workload(name).prepare(RngTree(DATASET_SEED).subtree("dataset", name))
    for wl in (FLEET_PRESSURE, FLEET_SERVING):
        n_shapes = len(wl.config.shapes)
        run_fleet_trial(
            replace(wl.config, n_tenants=n_shapes, n_requests_total=n_shapes), "clock", 0
        )


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


@dataclass
class Round:
    """One round's host cost, output digest and simulator counters."""

    jobs: int
    #: ``time.monotonic()`` at the round's start and end; ``wall_s`` is
    #: their difference.  The harness matches host-speed samples to them.
    started: float
    ended: float
    wall_s: float
    parent_cpu_s: float
    child_cpu_s: float
    #: Simulated operations: page accesses (hits + faults) for figure
    #: workloads, requests for fleet workloads.
    sim_ops: int
    digest: str
    traced: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return self.parent_cpu_s + self.child_cpu_s


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_round(workload: Any, seed: int, scratch: pathlib.Path, jobs: int) -> Round:
    """Run one round and measure it.

    Every round starts as a user's fresh figure or sweep run does: an
    empty process dataset memo over a warm disk cache, then its own
    pool (a new ``ExperimentRunner`` or ``run_sweep`` call), which it
    joins before returning, so the children's rusage delta covers
    exactly this round's workers.  Figure workers then receive datasets
    over shared memory, not through the fork.
    """
    datasets.clear_process_state()
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    if isinstance(workload, FigureWorkload):
        with ExperimentRunner(jobs=jobs) as runner:
            results = [runner.run(config) for config in workload.configs(seed)]
        ended = time.monotonic()
        trials = [t for cell in results for t in cell.trials]
        digest, counts = trials_digest(trials), figure_counts(trials)
        sim_ops = int(counts["mm.accesses"])
    else:
        sink_path = scratch / f"sink-{os.getpid()}-{time.monotonic_ns()}.jsonl"
        lane: Dict[str, int] = {}
        sink = JsonlSink(str(sink_path), workload.config.to_dict()).open()
        try:
            run_sweep(workload.config, FLEET_POLICIES, list(range(seed, seed + workload.n_seeds)),
                      sink, jobs=jobs, lane_stats=lane)
        finally:
            sink.close()
        ended = time.monotonic()
        _header, rows = load_rows(str(sink_path))
        sink_path.unlink()
        digest, counts = rows_digest(rows), fleet_counts(rows, lane)
        sim_ops = int(counts["fleet.requests"])
    return Round(
        jobs=jobs,
        started=started,
        ended=ended,
        wall_s=ended - started,
        parent_cpu_s=_cpu(resource.RUSAGE_SELF) - self0,
        child_cpu_s=_cpu(resource.RUSAGE_CHILDREN) - kids0,
        sim_ops=sim_ops,
        digest=digest,
        counts=counts,
    )


def trials_digest(trials: Iterable[Any]) -> str:
    """SHA-256 over each trial's simulated output, in order: runtime,
    fault counts, counters, workload metrics and raw latency arrays."""
    h = hashlib.sha256()
    for t in trials:
        head = {
            "cell": [t.workload, t.policy, t.swap, t.capacity_ratio, t.seed],
            "runtime_ns": int(t.runtime_ns),
            "faults": [int(t.major_faults), int(t.minor_faults)],
            "counters": t.counters,
            "metrics": t.metrics,
            "pages": [int(t.footprint_pages), int(t.capacity_frames)],
        }
        h.update(json.dumps(head, sort_keys=True).encode())
        for op in sorted(t.latencies_ns):
            arr = np.ascontiguousarray(t.latencies_ns[op])
            h.update(f"{op}:{arr.dtype.str}:{arr.size}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def rows_digest(rows: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over fleet sink rows sorted by (policy, seed)."""
    h = hashlib.sha256()
    for row in sorted(rows, key=lambda r: (r["policy"], r["seed"])):
        h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def figure_counts(trials: List[Any]) -> Dict[str, float]:
    total = {name: sum(float(t.counters.get(name, 0)) for t in trials) for name in MM_COUNTERS}
    accesses = total["hits"] + total["major_faults"] + total["minor_faults"]
    counts = {
        "core.trials": len(trials),
        "sim.simulated_s": sum(t.runtime_ns for t in trials) / 1e9,
        "mm.accesses": accesses,
        "mm.hit_ratio": total["hits"] / accesses if accesses else 0.0,
        "swapdev.reads": total["swap_reads"],
        "swapdev.writes": total["swap_writes"],
        "workloads.requests": sum(float(t.metrics.get("requests", 0)) for t in trials),
    }
    for name in ("major_faults", "minor_faults", "evictions", "dirty_evictions",
                 "direct_reclaims", "rmap_walks", "refaults"):
        counts[f"mm.{name}"] = total[name]
    for name in ("ptes_scanned", "ptes_scanned_nearby", "aging_walks", "promotions"):
        counts[f"policies.{name}"] = total[name]
    return counts


def fleet_counts(rows: List[Dict[str, Any]], lane: Dict[str, int]) -> Dict[str, float]:
    def total(name: str) -> float:
        return float(sum(r["totals"][name] for r in rows))

    requests = float(sum(t["requests"] for r in rows for t in r["tenants"]))
    return {
        "core.trials": len(rows),
        "sim.simulated_s": sum(r["runtime_ns"] for r in rows) / 1e9,
        "mm.major_faults": total("major_faults"),
        "mm.minor_faults": total("minor_faults"),
        "mm.evictions": total("evictions"),
        "swapdev.reads": total("swap_reads"),
        "swapdev.writes": total("swap_writes"),
        "workloads.requests": requests,
        "memcg.steal_pages": float(
            sum(t["memcg"]["stolen_from"] for r in rows for t in r["tenants"])
        ),
        "fleet.requests": requests,
        "fleet.batches": float(lane.get("batches", 0)),
        "fleet.residue_frac": lane.get("residue_requests", 0) / max(1, lane.get("requests", 0)),
    }


# ----------------------------------------------------------------------
# Probes: observability-plane cost and serving-lane speedup
# ----------------------------------------------------------------------


#: Interleaved repetitions of each probe configuration; ratios are of
#: median walls.
PROBE_REPEATS = 3


def _median_walls(variants: Dict[str, Callable[[], Any]]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Run every variant ``PROBE_REPEATS`` times, interleaved; return
    each one's median wall and its last output."""
    walls: Dict[str, List[float]] = {name: [] for name in variants}
    outputs: Dict[str, Any] = {}
    for _ in range(PROBE_REPEATS):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            outputs[name] = fn()
            walls[name].append(time.perf_counter() - t0)
    return {name: statistics.median(w) for name, w in walls.items()}, outputs


def _strip(row: Dict[str, Any], key: str) -> str:
    """A fleet row without an observer's section, as canonical JSON."""
    out = {k: v for k, v in row.items() if k != key}
    out["tenants"] = [{k: v for k, v in t.items() if k != key} for t in row["tenants"]]
    return json.dumps(out, sort_keys=True)


def run_probe(workload: Any, seed: int) -> Tuple[Dict[str, float], List[Tuple[str, bool]]]:
    """Time one unit of the workload with each applicable observer plane
    on versus off (``observe.<plane>_x``; 0 where the entry point has no
    such plane) and, for fleets, the scalar versus vectorized serving
    lane on ``probe_requests`` requests.  Observers and lanes must leave the
    simulated output unchanged; those comparisons are returned as checks."""
    ratios = {f"observe.{p}_x": 0.0 for p in ("trace", "metrics", "spans", "psi")}
    ratios["fleet.lane_speedup"] = 0.0
    if isinstance(workload, FigureWorkload):
        name, policy, swap, ratio = workload.probe
        system = SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio)
        planes = {"trace": {"trace": TraceConfig()}, "metrics": {"metrics": MetricsConfig()},
                  "spans": {"spans": SpansConfig()}}
        walls, trials = _median_walls({
            plane: (lambda kw=kw: run_trial(name, system, seed, **kw))
            for plane, kw in {"off": {}, **planes}.items()
        })
        off = trials_digest([trials["off"]])
        ratios.update({f"observe.{plane}_x": walls[plane] / walls["off"] for plane in planes})
        checks = [(f"{plane} plane leaves the probe trial unchanged",
                   trials_digest([trials[plane]]) == off) for plane in planes]
        return ratios, checks
    config = replace(workload.config, n_requests_total=workload.probe_requests)
    walls, rows = _median_walls({
        variant: (lambda kw=kw: run_fleet_trial(config, "mglru", seed, **kw))
        for variant, kw in {
            "fast": {"fast_fleet": True, "psi": False, "spans": False},
            "scalar": {"fast_fleet": False, "psi": False, "spans": False},
            "psi": {"fast_fleet": True, "psi": True, "spans": False},
            "spans": {"fast_fleet": True, "psi": False, "spans": True},
        }.items()
    })
    canonical = json.dumps(rows["fast"], sort_keys=True)
    ratios["fleet.lane_speedup"] = walls["scalar"] / walls["fast"]
    ratios["observe.psi_x"] = walls["psi"] / walls["fast"]
    ratios["observe.spans_x"] = walls["spans"] / walls["fast"]
    checks = [
        ("scalar and vectorized lanes give identical rows",
         json.dumps(rows["scalar"], sort_keys=True) == canonical),
        ("psi plane leaves the probe row unchanged", _strip(rows["psi"], "psi") == canonical),
        ("spans plane leaves the probe row unchanged", _strip(rows["spans"], "spans") == canonical),
    ]
    return ratios, checks


# ----------------------------------------------------------------------
# One run: rounds for the time budget, then (traced) the layer numbers
# ----------------------------------------------------------------------


def run_work(
    workload: Any, seed: int, seconds: float, trace: bool, jobs: int,
    scratch: pathlib.Path, folded: pathlib.Path,
) -> Dict[str, Any]:
    """Rounds until the time budget is nearest to spent (at least
    ``MIN_ROUNDS``, or ``MIN_TRACED_RUN_ROUNDS`` alternating untraced
    and traced), then, when traced, the probes and the per-layer
    reduction."""
    tracer = suite_trace.Tracer(scratch / "spool") if trace else None
    stacks: Counter = Counter()
    spans: List[Dict[str, Any]] = []
    rounds: List[Round] = []
    min_rounds = MIN_TRACED_RUN_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            r = run_round(workload, seed, scratch, jobs)
        finally:
            if traced:
                tracer.remove()
        if traced:
            more_stacks, more_spans = tracer.collect()
            stacks.update(more_stacks)
            spans.extend(more_spans)
        r.traced = traced
        rounds.append(r)
        typical = statistics.median(x.wall_s for x in rounds)
        if time.perf_counter() - start + typical / 2 >= seconds and len(rounds) >= min_rounds:
            break
    checks = [("every round gives the same digest", len({r.digest for r in rounds}) == 1)]
    out: Dict[str, Any] = {
        "rounds": [asdict(r) for r in rounds],
        "maxrss_kb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        },
    }
    if tracer is not None:
        probe, probe_checks = run_probe(workload, seed)
        checks += probe_checks
        out["per_layer"] = layer_metrics(rounds, stacks, spans, probe)
        write_folded(_Folded(stacks), folded)
    out["checks"] = [{"name": name, "ok": ok} for name, ok in checks]
    return out


class _Folded:
    """The one attribute ``repro.spans.profiler.write_folded`` reads."""

    def __init__(self, stacks: Counter) -> None:
        self.folded = dict(stacks)


def layer_metrics(
    rounds: List[Round], stacks: Counter, spans: List[Dict[str, Any]], probe: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced run, all but ``bench.trace_overhead``,
    which needs the host-speed samples the harness takes outside this
    process.

    Counts are one round's (every round of a seed repeats them).  Host
    self time is the traced rounds' mean CPU split by sampled self-layer
    shares; span sums are per traced round.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    counts = rounds[0].counts
    samples = suite_trace.self_samples(stacks)
    n_samples = max(1, sum(samples.values()))
    cpu_per_round = statistics.fmean(r.cpu_s for r in traced)

    def count(name: str) -> float:
        return float(counts.get(name, 0.0))

    def self_s(*layers: str) -> float:
        return cpu_per_round * sum(samples[l] for l in layers) / n_samples

    def span_s(name: str) -> float:
        return sum(suite_trace.span_seconds(spans, name)) / len(traced)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    trial_span = "run_trial" if count("mm.accesses") else "run_fleet_trial"
    trial_ms = [1e3 * s for s in suite_trace.span_seconds(spans, trial_span)] or [0.0]
    m: Dict[str, float] = {
        "core.self_s": self_s("core"),
        "core.parent_cpu_s": statistics.median(r.parent_cpu_s for r in plain),
        "core.pool_busy_frac": statistics.median(r.child_cpu_s / (r.wall_s * r.jobs) for r in plain),
        "core.trial_ms_p50": float(np.percentile(trial_ms, 50)),
        "core.trial_ms_p90": float(np.percentile(trial_ms, 90)),
        "core.trials": count("core.trials"),
        "core.dataset_s": span_s("datasets.get_dataset"),
    }
    for layer in ("sim", "mm", "policies", "swapdev", "workloads", "memcg", "fleet"):
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.share"] = samples[layer] / n_samples
    faults = count("mm.major_faults") + count("mm.minor_faults")
    evictions = count("mm.evictions")
    ios = count("swapdev.reads") + count("swapdev.writes")
    scans = count("policies.ptes_scanned") + count("policies.ptes_scanned_nearby") + count("mm.rmap_walks")
    m.update({
        "sim.simulated_s": count("sim.simulated_s"),
        "mm.accesses": count("mm.accesses"),
        "mm.hit_ratio": count("mm.hit_ratio"),
        "mm.host_us_per_fault": per(m["mm.self_s"], faults, 1e6),
        "policies.evictions_per_kscan": per(evictions, scans, 1e3),
        "policies.host_us_per_eviction": per(m["policies.self_s"], evictions, 1e6),
        "swapdev.reads": count("swapdev.reads"),
        "swapdev.writes": count("swapdev.writes"),
        "swapdev.host_us_per_io": per(m["swapdev.self_s"], ios, 1e6),
        "workloads.requests": count("workloads.requests"),
        "workloads.prepare_s": span_s("Workload.prepare"),
        "memcg.steal_pages": count("memcg.steal_pages"),
        "fleet.requests": count("fleet.requests"),
        "fleet.batches": count("fleet.batches"),
        "fleet.residue_frac": count("fleet.residue_frac"),
        "fleet.sink_append_s": span_s("JsonlSink.append"),
        "observe.self_s": self_s(*suite_trace.OBSERVE_LAYERS),
    })
    for name in ("major_faults", "minor_faults", "evictions", "dirty_evictions",
                 "direct_reclaims", "rmap_walks", "refaults"):
        m[f"mm.{name}"] = count(f"mm.{name}")
    for name in ("ptes_scanned", "ptes_scanned_nearby", "aging_walks", "promotions"):
        m[f"policies.{name}"] = count(f"policies.{name}")
    m.update(probe)
    return m
