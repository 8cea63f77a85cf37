"""The experiment runner: committed cell digests, chunking, parallelism.

Every trial runs on a fresh simulator, so a cell's trials hash to the
committed digests across every policy family, serially and with
``jobs=2`` (seed-chunk pool tasks over shared-memory datasets), and
the parallel runner reproduces the serial results exactly, with
dataset sharing on or off.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, chunk_seeds
from repro.workloads.pagerank import PageRankParams, PageRankWorkload

SEEDS = [41, 42, 43]


@pytest.fixture(autouse=True)
def tiny_pagerank(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "pagerank",
        lambda: PageRankWorkload(
            PageRankParams(
                n_vertices=4096, avg_degree=6, n_iterations=3, n_threads=4
            )
        ),
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


class TestRunnerDigests:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("policy", sorted(RUNNER_DIGESTS))
    def test_cell_digest(self, policy, jobs):
        """Under reclaim pressure (ratio 0.5), so the policy evicts."""
        cell = ExperimentConfig(
            workload="pagerank", system=config(policy),
            n_trials=len(SEEDS), base_seed=SEEDS[0],
        )
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

    def test_parallel_equals_serial_shm_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_SHM", "1")
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run(self._config())
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(self._config())
        assert serial.trials == parallel.trials

    def test_parallel_equals_serial_shm_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_SHM", "0")
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run(self._config())
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(self._config())
        assert serial.trials == parallel.trials

    def test_run_many_parallel_matches_serial(self):
        configs = [self._config("clock"), self._config("mglru")]
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run_many(configs)
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run_many(configs)
        for a, b in zip(serial, parallel):
            assert a.trials == b.trials

    def test_close_releases_pool_and_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_SHM", "1")
        runner = ExperimentRunner(jobs=2)
        runner.run(self._config())
        pool = runner._pool
        server = runner._shm_server
        assert pool is not None and server is not None
        assert server.handles
        workers = list(pool._processes.values())
        assert workers
        runner.close()
        assert runner._pool is None
        assert runner._shm_server is None
        # shutdown(wait=True) must have joined the workers.
        assert not any(worker.is_alive() for worker in workers)
        assert server.handles == {}
        # close() is idempotent.
        runner.close()

    def test_progress_notes_once_per_trial_parallel(self):
        notes = []
        runner = ExperimentRunner(progress=notes.append, jobs=2)
        with runner:
            runner.run(self._config())
        assert len(notes) == 4
