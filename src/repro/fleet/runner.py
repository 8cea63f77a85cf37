"""Fleet sweep driver: (policy × seed) grid over a resumable sink.

The pending set is the grid minus the sink's completed set, processed
in sorted order.  With ``jobs > 1`` trials fan out over a process pool
(each trial re-imports the shared datasets through the disk trace
cache, so workers do not rebuild distinct shapes either); rows append
in completion order, which is fine because the report layer is
order-independent.  ``max_trials`` bounds how many trials this
*invocation* runs — the CI smoke job uses it to simulate an interrupt
and assert the resume path.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.experiment import _jobs_from_env
from repro.fleet.config import FleetConfig
from repro.fleet.sink import JsonlSink
from repro.fleet.trial import LANE_STATS, run_fleet_trial

#: In-flight futures kept per pool worker.  A whole-grid submit would
#: pin every trial's (config, policy, seed) args — and for huge sweeps
#: the executor's bookkeeping — in memory at once; a small multiple of
#: the worker count keeps every worker busy while bounding the window.
WINDOW_PER_JOB = 4


def _trial_job(
    config: FleetConfig, policy: str, seed: int, psi: Any, spans: Any
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """One trial plus its serving-loop counter delta.

    ``LANE_STATS`` is process-global, so in a pool worker the only way
    to attribute counters to *this* trial is a before/after snapshot;
    the delta rides back with the row (rows themselves never carry lane
    stats — they must stay byte-identical with window runs on or off).
    """
    before = LANE_STATS.snapshot()
    row = run_fleet_trial(config, policy, seed, psi=psi, spans=spans)
    after = LANE_STATS.snapshot()
    return row, {k: after[k] - before[k] for k in after}


def _lane_accumulate(
    lane_stats: Optional[Dict[str, int]], delta: Dict[str, int]
) -> None:
    if lane_stats is None:
        return
    for key, value in delta.items():
        lane_stats[key] = lane_stats.get(key, 0) + value


def pending_grid(
    sink: JsonlSink, policies: Iterable[str], seeds: Iterable[int]
) -> List[Tuple[str, int]]:
    """The sorted (policy, seed) pairs not yet in the sink."""
    done = sink.completed
    return sorted(
        (policy, seed)
        for policy in policies
        for seed in seeds
        if (policy, seed) not in done
    )


def run_sweep(
    config: FleetConfig,
    policies: Iterable[str],
    seeds: Iterable[int],
    sink: JsonlSink,
    jobs: Optional[int] = None,
    max_trials: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    psi: Any = False,
    spans: Any = False,
    lane_stats: Optional[Dict[str, int]] = None,
) -> int:
    """Run the missing trials of the grid; returns how many ran.

    Every appended row is durable before the next trial starts, so an
    interrupt anywhere loses at most the in-flight trials.

    ``psi`` and ``spans`` are forwarded to :func:`run_fleet_trial`
    (off by default; every sweep trial — worker-pool ones included —
    gets the same setting, so serial and ``REPRO_JOBS`` sweeps of one
    cell produce identical rows).  ``lane_stats``, when given a dict,
    accumulates the serving-loop counter deltas (requests, residue,
    batches, trial counts per mode) of exactly the trials this
    invocation ran — worker-process counters included.
    """
    jobs = _jobs_from_env() if jobs is None else max(1, int(jobs))
    todo = pending_grid(sink, policies, seeds)
    if max_trials is not None:
        todo = todo[: max(0, int(max_trials))]
    if not todo:
        return 0

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    ran = 0
    if jobs > 1 and len(todo) > 1:
        window = jobs * WINDOW_PER_JOB
        feed: Iterator[Tuple[str, int]] = iter(todo)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {}
            for policy, seed in feed:
                futures[
                    pool.submit(
                        _trial_job, config, policy, seed, psi, spans
                    )
                ] = (policy, seed)
                if len(futures) >= window:
                    break
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    policy, seed = futures.pop(future)
                    row, delta = future.result()
                    sink.append(row)
                    _lane_accumulate(lane_stats, delta)
                    ran += 1
                    note(f"fleet {policy} seed {seed} ({ran}/{len(todo)})")
                # Refill the window: one new submit per completion.
                for policy, seed in feed:
                    futures[
                        pool.submit(
                            _trial_job, config, policy, seed, psi, spans
                        )
                    ] = (policy, seed)
                    if len(futures) >= window:
                        break
    else:
        for policy, seed in todo:
            row, delta = _trial_job(config, policy, seed, psi, spans)
            sink.append(row)
            _lane_accumulate(lane_stats, delta)
            ran += 1
            note(f"fleet {policy} seed {seed} ({ran}/{len(todo)})")
    return ran
