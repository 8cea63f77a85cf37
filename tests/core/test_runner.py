"""The experiment runner: committed cell digests, chunking, parallelism.

Every trial runs on a fresh simulator, so a cell's trials hash to the
committed digests across every policy family, serially and with
``jobs=2`` (seed-chunk pool tasks whose workers get their own
datasets), and the parallel runner reproduces the serial results
exactly.  Pooled cells pipeline: ``run()`` returns before the cell's
tasks finish, and reading, ``close()`` and an exception in the
``with`` block each settle them.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor

import pytest

import repro.core.experiment as experiment
import repro.workloads as workloads_pkg
from repro.core.calibration import calibrated_costs
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, chunk_seeds, run_trial
from repro.errors import WorkloadError
from repro.workloads import datasets
from repro.workloads.pagerank import PageRankParams, PageRankWorkload

SEEDS = [41, 42, 43]
TINY = PageRankParams(n_vertices=4096, avg_degree=6, n_iterations=3, n_threads=4)


@pytest.fixture(autouse=True)
def tiny_pagerank(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "pagerank",
        lambda: PageRankWorkload(TINY),
    )


def config(policy="clock", ratio=0.5):
    return SystemConfig(policy=policy, swap="zram", capacity_ratio=ratio)


def digest(result):
    """SHA-256 over a cell's trials, as :meth:`TrialResult.to_dict` dicts."""
    trials = [trial.to_dict() for trial in result.trials]
    return hashlib.sha256(
        json.dumps(trials, sort_keys=True).encode()
    ).hexdigest()


#: Digests of the tiny PageRank cell at seeds 41-43 on zram@0.5, one per
#: policy.  Serial and ``jobs=2`` runs of the cell must both match.
RUNNER_DIGESTS = {
    "clock": "5e09f2d479ef179b4c3d747ae9c57694e0ff7a68cd67a96abe6fcd3a4671fb30",
    "mglru": "af2c46d778e9781445dd874f5bc432b24385a78f4b33eb8a19eaa6a420a008ce",
    "fifo": "8c8c411be234d7db696246879557af4ac997062c7fffcf2c86229c68f3e4611a",
    "random": "cad15bd8a88eb4dfff9f8e86c0a2746cff2becc635c6a4b220caecdb96ac2f36",
    "opt": "f3c18b7c8cff1a219eb871afaf53abc5234046e49389d933426921c6460bb4d4",
}


def digest_cell(policy):
    """The cell :data:`RUNNER_DIGESTS` pins for *policy*."""
    return ExperimentConfig(
        workload="pagerank", system=config(policy),
        n_trials=len(SEEDS), base_seed=SEEDS[0],
    )


class TestRunnerDigests:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("policy", sorted(RUNNER_DIGESTS))
    def test_cell_digest(self, policy, jobs):
        """Under reclaim pressure (ratio 0.5), so the policy evicts."""
        cell = digest_cell(policy)
        with ExperimentRunner(jobs=jobs) as runner:
            result = runner.run(cell)
        assert [trial.seed for trial in result.trials] == SEEDS
        assert digest(result) == RUNNER_DIGESTS[policy]


class TestChunking:
    def test_chunks_preserve_order_and_cover(self):
        seeds = list(range(100, 110))
        chunks = chunk_seeds(seeds, 3)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) == 3

    def test_more_jobs_than_seeds(self):
        chunks = chunk_seeds([1, 2], 8)
        assert chunks == [[1], [2]]


class TestRunnerParallel:
    def _config(self, policy="mglru"):
        return ExperimentConfig(
            workload="pagerank",
            system=config(policy),
            n_trials=4,
            base_seed=900,
        )

    def test_parallel_equals_serial_shm_off(self):
        """With no shared-memory transport, each pool worker gets its own
        datasets (memo -> disk cache -> build) and the pooled trials
        equal the serial ones."""
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run(self._config())
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(self._config())
        assert serial.trials == parallel.trials

    def test_pooled_parent_builds_no_dataset(self):
        """The workers get every dataset; the parent's memo stays empty
        and the parent never asks the dataset layer for one."""
        datasets.clear_process_state()
        datasets.MEMO_STATS.reset()
        with ExperimentRunner(jobs=2) as runner:
            result = runner.run(self._config())
        assert len(result.trials) == 4
        assert len(datasets._MEMO) == 0
        assert datasets.MEMO_STATS.snapshot() == {"hits": 0, "misses": 0}

    def test_run_many_parallel_matches_serial(self):
        configs = [self._config("clock"), self._config("mglru")]
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run_many(configs)
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run_many(configs)
        for a, b in zip(serial, parallel):
            assert a.trials == b.trials

    def test_close_releases_pool_and_segments(self):
        runner = ExperimentRunner(jobs=2)
        runner.run(self._config())
        pool = runner._pool
        assert pool is not None
        workers = list(pool._processes.values())
        assert workers
        runner.close()
        assert runner._pool is None
        # shutdown(wait=True) must have joined the workers.
        assert not any(worker.is_alive() for worker in workers)
        # close() is idempotent.
        runner.close()

    def test_progress_notes_once_per_trial_parallel(self):
        notes = []
        runner = ExperimentRunner(progress=notes.append, jobs=2)
        with runner:
            runner.run(self._config())
        assert len(notes) == 4


class TestCacheKey:
    @pytest.mark.parametrize(
        "change",
        [{"n_cpus": 2}, {"costs": calibrated_costs(scan_scale=1)}],
        ids=["n_cpus", "costs"],
    )
    def test_every_system_field_keys_the_cache(self, change):
        """Cells that differ only in CPUs or costs are distinct cells."""
        base = ExperimentConfig(
            workload="pagerank", system=config(), n_trials=1,
            base_seed=SEEDS[0],
        )
        other = base.with_(system=base.system.with_(**change))
        runner = ExperimentRunner(jobs=1)
        first, second = runner.run(base), runner.run(other)
        assert second is not first
        assert first.trials == [run_trial("pagerank", base.system, SEEDS[0])]
        assert second.trials == [
            run_trial("pagerank", other.system, SEEDS[0])
        ]
        assert second.trials != first.trials
        assert runner.run(other) is second


#: Path a gated pool task waits for; set before the pool forks, so the
#: workers inherit it.
_GATE = None
#: Longest a gated task waits before it fails (and with it the test).
GATE_TIMEOUT_S = 60.0
_RUN_CELL_TRIALS = experiment.run_cell_trials


def _gated_cell_trials(*args, **kwargs):
    """``run_cell_trials`` that starts once the test creates ``_GATE``."""
    deadline = time.monotonic() + GATE_TIMEOUT_S
    while not _GATE.exists():
        if time.monotonic() > deadline:
            raise TimeoutError("the test never opened the gate")
        time.sleep(0.01)
    return _RUN_CELL_TRIALS(*args, **kwargs)


class _Gate:
    """Holds every pool task until :meth:`open`; records each future."""

    def __init__(self, path):
        self.path = path
        self.futures = []

    def open(self):
        self.path.touch()

    def open_once_cancelled(self, future):
        """Open from a thread once *future* is cancelled, so the running
        tasks can finish while ``__exit__`` waits for them."""

        def wait():
            deadline = time.monotonic() + GATE_TIMEOUT_S
            while not future.cancelled() and time.monotonic() < deadline:
                time.sleep(0.01)
            self.open()

        threading.Thread(target=wait, daemon=True).start()


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    gate = _Gate(tmp_path / "open")
    submit = ProcessPoolExecutor.submit

    def recording_submit(pool, *args, **kwargs):
        future = submit(pool, *args, **kwargs)
        gate.futures.append(future)
        return future

    monkeypatch.setattr(sys.modules[__name__], "_GATE", gate.path)
    monkeypatch.setattr(experiment, "run_cell_trials", _gated_cell_trials)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    yield gate
    gate.open()  # never leave a worker waiting


class _SetupFails(PageRankWorkload):
    def setup(self, system):
        raise WorkloadError("setup fails on purpose")


class TestPipelined:
    def test_run_returns_before_its_trials_finish(self, gate):
        runner = ExperimentRunner(jobs=2)
        try:
            first = runner.run(digest_cell("clock"))
            assert len(gate.futures) == 2
            assert not any(future.done() for future in gate.futures)
            # A one-seed cell is a pool task too: the parent never
            # simulates.  It is queued before the first cell is read.
            single = runner.run(digest_cell("mglru").with_(n_trials=1))
            assert len(gate.futures) == 3
            assert not any(future.done() for future in gate.futures)
            gate.open()
            assert digest(first) == RUNNER_DIGESTS["clock"]
            assert [t.seed for t in single.trials] == SEEDS[:1]
            assert runner.run(digest_cell("clock")) is first
        finally:
            gate.open()
            runner.close()

    @pytest.mark.parametrize("read_first", [True, False])
    def test_worker_error_reraises_and_close_releases(
        self, monkeypatch, read_first
    ):
        monkeypatch.setitem(
            workloads_pkg.WORKLOAD_FACTORIES, "pagerank",
            lambda: _SetupFails(TINY),
        )
        runner = ExperimentRunner(jobs=2)
        result = runner.run(digest_cell("clock"))
        workers = list(runner._pool._processes.values())
        if read_first:
            for _ in range(2):  # every read raises; no partial trials
                with pytest.raises(WorkloadError, match="on purpose"):
                    result.trials
        with pytest.raises(WorkloadError, match="on purpose"):
            runner.close()
        assert runner._pool is None
        assert not any(worker.is_alive() for worker in workers)
        with pytest.raises(WorkloadError, match="on purpose"):
            result.n_trials
        runner.close()  # idempotent once released

    def test_exception_in_block_cancels_queued_cells(self, gate):
        # Two workers hold two tasks and the call queue three more, so
        # of four cells' eight tasks at least the last three are queued.
        cells = [
            digest_cell(policy) for policy in ("clock", "mglru", "fifo", "random")
        ]
        with pytest.raises(RuntimeError, match="stop"):
            with ExperimentRunner(jobs=2) as runner:
                results = [runner.run(cell) for cell in cells]
                gate.open_once_cancelled(gate.futures[-1])
                raise RuntimeError("stop")
        assert runner._pool is None
        assert gate.futures[-1].cancelled()
        last = re.escape(cells[-1].label)
        with pytest.raises(CancelledError, match=last):
            results[-1].trials
        for cell, result in zip(cells, results):
            try:
                result.trials
            except CancelledError as exc:
                assert cell.label in str(exc)
            else:
                assert digest(result) == RUNNER_DIGESTS[cell.system.policy]

    def test_results_are_complete_after_the_with_block(self):
        notes = []
        with ExperimentRunner(progress=notes.append, jobs=2) as runner:
            results = {
                policy: runner.run(digest_cell(policy))
                for policy in RUNNER_DIGESTS
            }
            assert notes == []  # nothing read yet
        # close() finished every cell, in request order.
        assert len(notes) == len(RUNNER_DIGESTS) * len(SEEDS)
        assert notes[0].startswith(digest_cell("clock").label)
        for policy, result in results.items():
            assert digest(result) == RUNNER_DIGESTS[policy]
