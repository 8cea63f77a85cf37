"""Trial execution: one "rebooted" run per seed, repeated per cell.

``run_trial`` builds a completely fresh simulator — engine, memory
system, policy, swap device, workload — for every execution, the
simulator analogue of the paper's per-execution reboot (§IV).  The
:class:`ExperimentRunner` repeats trials across seeds and caches cells
so figure generators can share measurements; with ``REPRO_JOBS`` > 1 it
ships each cell to a process pool as seed-chunk tasks
(:func:`run_cell_trials`) and returns the cell before they finish.  The
parent never builds or loads a dataset: each worker gets the ones its
trials use from :func:`repro.workloads.datasets.get_dataset` (its own
memo, the disk cache, or a build), once per pool.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from dataclasses import asdict
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.results import ExperimentResult, TrialResult
from repro.metrics.config import MetricsConfig
from repro.metrics.session import MetricsSession
from repro.mm.system import MemorySystem
from repro.policies import make_policy
from repro.policies.base import ReplacementPolicy
from repro.sim.engine import Engine
from repro.sim.rng import RngTree
from repro.spans.config import SpansConfig
from repro.spans.recorder import SpanRecorder
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice
from repro.trace.config import TraceConfig
from repro.trace.session import TraceSession
from repro.workloads import make_workload
from repro.workloads.base import chunk_bounds


def build_system(
    engine: Engine,
    rng: RngTree,
    config: SystemConfig,
    capacity_frames: int,
    policy: ReplacementPolicy,
) -> MemorySystem:
    """Construct the memory system for one trial: *policy* over
    *config*'s swap device, CPUs and costs."""
    if config.swap == "ssd":
        device = SSDSwapDevice(engine, rng.stream("ssd"), config.ssd_costs)
    else:
        device = ZRAMSwapDevice(rng.stream("zram"), config.zram_costs)
    return MemorySystem(
        engine,
        rng,
        policy,
        device,
        capacity_frames=capacity_frames,
        n_cpus=config.n_cpus,
        costs=config.costs,
    )


#: Seed of the *dataset* RNG tree.  The paper reruns the same binary on
#: the same input 25 times; only the system varies across reboots.  So
#: workload data structures (tables, the graph, item placement) are
#: built from this fixed seed, while everything dynamic (request
#: streams, probe picks, jitter, device latencies, ASLR) draws from the
#: per-trial seed.
DATASET_SEED = 0x5EED_DA7A


def run_trial(
    workload_name: str,
    system_config: SystemConfig,
    seed: int,
    trace: Optional[TraceConfig] = None,
    metrics: Optional[MetricsConfig] = None,
    spans: Optional[SpansConfig] = None,
) -> TrialResult:
    """One full workload execution on a fresh simulator.

    With ``trace`` set (and enabled), a :class:`TraceSession` attaches
    ring-buffer probes to the observer bus
    (:mod:`repro.trace.tracepoints`) and samples vmstat for the trial's
    duration; the capture comes back on ``TrialResult.trace``.  With
    ``metrics`` set (and enabled), a :class:`MetricsSession` attaches
    its recorders and the aggregate registry comes back on
    ``TrialResult.metrics_registry``.  With ``spans`` set, a
    :class:`~repro.spans.SpanRecorder` attaches and the finished
    :class:`~repro.spans.SpanTable` comes back on ``TrialResult.spans``.
    Probes and recorders are passive, so traced/metered/spanned trials
    are bit-identical to bare ones, and every consumer detaches when
    the run ends, normally or not.
    """
    engine = Engine()
    rng = RngTree(seed)
    # Cache counters must baseline before prepare() touches the dataset
    # layer, or the trial's own memo/disk traffic vanishes from the
    # metrics delta.
    cache_baseline = None
    if metrics is not None and metrics.enabled:
        cache_baseline = MetricsSession.snapshot_cache_stats()
    workload = make_workload(workload_name)
    dataset_rng = RngTree(DATASET_SEED).subtree("dataset", workload_name)
    footprint = workload.prepare(dataset_rng)
    capacity = max(64, int(footprint * system_config.capacity_ratio))
    system = build_system(
        engine, rng, system_config, capacity,
        make_policy(system_config.policy),
    )
    try:
        session: Optional[TraceSession] = None
        if trace is not None and trace.enabled:
            session = TraceSession(trace, system)
        mx_session: Optional[MetricsSession] = None
        if metrics is not None and metrics.enabled:
            mx_session = MetricsSession(
                metrics, system, cache_baseline=cache_baseline
            )
        recorder: Optional[SpanRecorder] = None
        if spans is not None:
            recorder = SpanRecorder(engine, spans)
        try:
            if session is not None:
                session.start()
            if mx_session is not None:
                mx_session.start()
            if recorder is not None:
                recorder.install(system)
                if spans.profile_interval_ns > 0:
                    engine.spawn(
                        recorder.run_profiler(), name="spans-profiler",
                        daemon=True,
                    )
            workload.setup(system)
            system.start()
            workload.spawn(system)
            runtime_ns = engine.run()
        finally:
            # Probes/recorders are process-global; detach even on error
            # paths so a failed trial cannot leak them into the next one.
            if session is not None:
                session.detach()
            if mx_session is not None:
                mx_session.detach()
            if recorder is not None:
                recorder.detach()

        stats = system.stats
        stats.rmap_walks = system.rmap.walk_count
        trial_meta = {
            "workload": workload_name,
            "policy": system_config.policy,
            "swap": system_config.swap,
            "capacity_ratio": system_config.capacity_ratio,
            "seed": seed,
        }
        capture = None
        if session is not None:
            # Finalized after the post-run counter fixups above, so the last
            # vmstat row equals the trial's aggregate counters.
            capture = session.finalize(
                runtime_ns,
                meta={**trial_meta, "costs": asdict(system_config.costs)},
            )
        registry = None
        if mx_session is not None:
            # Same ordering contract: finalize imports the fixed-up counters.
            registry = mx_session.finalize(runtime_ns, meta=trial_meta)
            if capture is not None:
                # Surface ring-buffer overflow where dashboards look: a
                # nonzero value means the event CSV/Chrome trace is missing
                # the oldest events and needs --capacity or --events.
                registry.counter(
                    "repro_trace_dropped_events_total",
                    help="Trace events lost to ring-buffer overflow (oldest "
                    "dropped first); nonzero means the capture is "
                    "incomplete — raise ringbuf_capacity or select "
                    "fewer tracepoints.",
                    unit="events",
                ).inc(capture.dropped_events)
        span_table = None
        if recorder is not None:
            span_table = recorder.finalize(runtime_ns)
        wl_result = workload.result()
        counters = stats.snapshot()
        counters["swap_reads"] = system.swap_device.stats.reads
        counters["swap_writes"] = system.swap_device.stats.writes
        counters["cpu_utilization"] = system.cpu.utilization()
        return TrialResult(
            workload=workload_name,
            policy=system_config.policy,
            swap=system_config.swap,
            capacity_ratio=system_config.capacity_ratio,
            seed=seed,
            runtime_ns=runtime_ns,
            major_faults=stats.major_faults,
            minor_faults=stats.minor_faults,
            counters=counters,
            metrics=wl_result.metrics,
            latencies_ns=wl_result.latencies_ns,
            footprint_pages=footprint,
            capacity_frames=capacity,
            trace=capture,
            metrics_registry=registry,
            spans=span_table,
        )
    finally:
        system.release()


def run_cell_trials(
    workload_name: str,
    system_config: SystemConfig,
    seeds: Sequence[int],
    trace: Optional[TraceConfig] = None,
    metrics: Optional[MetricsConfig] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[TrialResult]:
    """Run the trials of one cell (a seed chunk), in seed order.

    This is the pool task of a parallel cell: its result equals
    ``[run_trial(...) for seed in seeds]``.
    """
    trials = []
    for row, seed in enumerate(seeds):
        if progress is not None:
            progress(row, seed)
        trials.append(
            run_trial(workload_name, system_config, seed, trace, metrics)
        )
    return trials


def chunk_seeds(seeds: Sequence[int], jobs: int) -> List[List[int]]:
    """Split *seeds* into at most *jobs* contiguous chunks (cell tasks).

    Contiguous chunks keep seed order within each task, so assembling
    task results in submission order reproduces the serial seed order.
    """
    seeds = list(seeds)
    n_chunks = max(1, min(len(seeds), jobs))
    chunks = []
    for i in range(n_chunks):
        lo, hi = chunk_bounds(len(seeds), n_chunks, i)
        if hi > lo:
            chunks.append(seeds[lo:hi])
    return chunks


@lru_cache(maxsize=None)
def _parse_jobs(raw: str) -> int:
    """Parse one ``REPRO_JOBS`` value; memoized per distinct raw string
    so a bad value warns once per process instead of once per runner."""
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(f"REPRO_JOBS={raw!r} is not an integer; running serial")
        return 1
    if jobs < 1:
        warnings.warn(f"REPRO_JOBS={jobs} < 1; running serial")
        return 1
    return jobs


def _jobs_from_env() -> int:
    """Parse the ``REPRO_JOBS`` knob (default 1 = serial).

    Values below 1 and non-integers fall back to serial with a warning
    rather than erroring mid-sweep; the warning fires once per process
    per distinct value, not on every runner construction.
    """
    return _parse_jobs(os.environ.get("REPRO_JOBS", "1"))


class ExperimentRunner:
    """Runs experiment cells with caching and optional progress callbacks.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, itself defaulting to
    1) fans each cell's seeds out over a process pool as contiguous
    seed-chunk tasks.  Each trial is an independent
    ``run_trial(workload, system, seed)`` call with seeds derived exactly
    as in the serial loop, and results are assembled in seed order —
    serial and parallel runs produce identical
    :class:`ExperimentResult`\\ s.

    With ``jobs > 1`` cells pipeline: :meth:`run` submits the cell's
    tasks and returns at once, and the first read of the result's trials
    waits for them.  A caller that requests several cells before reading
    any keeps every worker busy across cell boundaries.
    """

    def __init__(
        self,
        progress: Optional[Callable[[str], None]] = None,
        jobs: Optional[int] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        """``telemetry``: a :class:`repro.metrics.GridTelemetry` (or any
        object with ``observe_trial(label, trial)``) fed every finished
        trial — the grid-level aggregation end of the worker telemetry
        channel.  Cache hits are not re-observed."""
        self._cache: Dict[ExperimentConfig, ExperimentResult] = {}
        self._progress = progress
        self.jobs = _jobs_from_env() if jobs is None else max(1, int(jobs))
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pooled cells that :meth:`close` has yet to finish.
        self._pending: List[ExperimentResult] = []
        self.telemetry = telemetry

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _observe(self, config: ExperimentConfig, trial: TrialResult) -> None:
        if self.telemetry is not None:
            self.telemetry.observe_trial(config.label, trial)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Finish the outstanding cells, then release the workers
        (idempotent).

        Results read after ``close()`` are complete.  If a cell's trials
        raise, the pool is still released (queued tasks are cancelled)
        and the exception is re-raised.
        """
        try:
            for result in self._pending:
                result.trials  # the first read waits for the cell
        finally:
            self._release()

    def _release(self) -> None:
        """Shut the pool down, waiting for running tasks and cancelling
        queued ones."""
        self._pending.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        # An exception in the block cancels the cells still queued
        # instead of finishing them.
        if exc_type is None:
            self.close()
        else:
            self._release()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self._release()
        except Exception:
            pass

    def _submit(self, config: ExperimentConfig) -> List[Future]:
        """Fan one cell's seeds over the pool as seed-chunk tasks."""
        pool = self._ensure_pool()
        return [
            pool.submit(
                run_cell_trials, config.workload, config.system, chunk,
                config.trace, config.metrics,
            )
            for chunk in chunk_seeds(list(config.seeds()), self.jobs)
        ]

    def _collect(
        self, config: ExperimentConfig, futures: List[Future]
    ) -> List[TrialResult]:
        """Gather chunk futures in submission order (= seed order)."""
        trials: List[TrialResult] = []
        for future in futures:
            try:
                chunk = future.result()
            except CancelledError:
                raise CancelledError(
                    f"{config.label}: cancelled before its trials finished"
                ) from None
            for trial in chunk:
                trials.append(trial)
                self._observe(config, trial)
                self._note(
                    f"{config.label} trial {len(trials)}/{config.n_trials}"
                )
        return trials

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Run (or fetch from cache) all trials of one cell.

        Serial (``jobs == 1``), the trials run here and the result is
        complete.  Pooled, the cell's tasks are submitted and the result
        is returned at once; its first read waits for them and re-raises
        a worker's exception.
        """
        cached = self._cache.get(config)
        if cached is not None:
            return cached
        cell = (
            config.workload, config.system.policy, config.system.swap,
            config.system.capacity_ratio,
        )
        if self.jobs > 1:
            futures = self._submit(config)
            result = ExperimentResult.pending(
                *cell, partial(self._collect, config, futures)
            )
            self._pending.append(result)
        else:
            def progress(row: int, _seed: int) -> None:
                self._note(
                    f"{config.label} trial {row + 1}/{config.n_trials}"
                )

            trials = run_cell_trials(
                config.workload, config.system, list(config.seeds()),
                config.trace, config.metrics, progress=progress,
            )
            for trial in trials:
                self._observe(config, trial)
            result = ExperimentResult(*cell, trials)
        self._cache[config] = result
        return result

    def run_many(
        self, configs: Iterable[ExperimentConfig]
    ) -> List[ExperimentResult]:
        """Run several cells and return them finished.

        Every cell is requested before any is read, so with ``jobs > 1``
        the pool holds all their tasks at once.
        """
        results = [self.run(config) for config in configs]
        for result in results:
            result.trials  # the first read waits for the cell
        return results

    def run_grid(
        self,
        workloads: Iterable[str],
        policies: Iterable[str],
        swap: str = "ssd",
        capacity_ratio: float = 0.5,
        n_trials: int = 25,
        base_seed: int = 10_000,
    ) -> List[ExperimentResult]:
        """Run the cross product of workloads × policies at one
        (swap, ratio) point — the shape of most paper figures."""
        configs = [
            ExperimentConfig(
                workload=workload,
                system=SystemConfig(
                    policy=policy, swap=swap, capacity_ratio=capacity_ratio
                ),
                n_trials=n_trials,
                base_seed=base_seed,
            )
            for workload in workloads
            for policy in policies
        ]
        return self.run_many(configs)
