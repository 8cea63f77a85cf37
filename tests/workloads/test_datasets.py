"""Dataset layer: process memo, disk-cache path, shared-memory transport."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import tracecache
from repro.workloads import datasets, shm


@pytest.fixture(autouse=True)
def clean_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_DATASET_SHM", raising=False)
    datasets.clear_process_state()
    tracecache.STATS.reset()
    yield
    datasets.clear_process_state()


def spec(name="unit", params="p1"):
    return datasets.DatasetSpec(
        name=name, params=params, seed=7, rng_path=(1, 2),
    )


class CountingBuilder:
    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return {"data": np.arange(16, dtype=np.int64)}


class TestMemo:
    def test_second_lookup_hits_memo(self):
        build = CountingBuilder()
        first = datasets.get_dataset(spec(), build)
        second = datasets.get_dataset(spec(), build)
        assert build.calls == 1
        assert first is second
        assert not first["data"].flags.writeable

    def test_distinct_specs_build_separately(self):
        build = CountingBuilder()
        datasets.get_dataset(spec(params="p1"), build)
        datasets.get_dataset(spec(params="p2"), build)
        assert build.calls == 2

    def test_memo_cap_evicts_lru(self):
        build = CountingBuilder()
        keys = [spec(params=f"p{i}") for i in range(datasets.MEMO_CAP + 1)]
        for s in keys:
            datasets.get_dataset(s, build)
        assert len(datasets.memo_items()) == datasets.MEMO_CAP


class TestDiskPath:
    def test_cold_then_warm_process(self):
        """Simulate a fresh process by clearing the memo: the second
        lookup must come from disk, bit-identical."""
        build = CountingBuilder()
        first = datasets.get_dataset(spec(), build)
        datasets.clear_process_state()
        second = datasets.get_dataset(spec(), build)
        assert build.calls == 1
        assert tracecache.STATS.hits == 1
        np.testing.assert_array_equal(first["data"], second["data"])


class TestSharedMemory:
    def test_export_attach_roundtrip(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 33),
            "c": np.array([True, False]),
        }
        server = shm.ShmServer()
        try:
            handle = server.export("k1", arrays)
            assert server.export("k1", arrays) is handle  # idempotent
            views = shm.attach_dataset(handle)
            assert set(views) == set(arrays)
            for name in arrays:
                np.testing.assert_array_equal(views[name], arrays[name])
                assert not views[name].flags.writeable
        finally:
            server.shutdown()

    def test_shutdown_unlinks_segments(self):
        server = shm.ShmServer()
        handle = server.export(
            "k2", {"x": np.arange(8, dtype=np.int64)}
        )
        server.shutdown()
        assert server.handles == {}
        # Fresh attach of an unlinked segment must fail...
        shm._ATTACHED.pop(handle.segment, None)
        with pytest.raises(FileNotFoundError):
            shm.attach_dataset(handle)

    def test_get_dataset_prefers_manifest(self):
        build = CountingBuilder()
        arrays = build()
        server = shm.ShmServer()
        try:
            s = spec(params="shm-test")
            handle = server.export(s.key, arrays)
            datasets.install_shm_manifest({s.key: handle})
            out = datasets.get_dataset(
                s, lambda: pytest.fail("should not rebuild")
            )
            np.testing.assert_array_equal(out["data"], arrays["data"])
        finally:
            server.shutdown()

    def test_manifest_miss_falls_back_to_build(self):
        build = CountingBuilder()
        server = shm.ShmServer()
        s = spec(params="gone")
        handle = server.export(s.key, build())
        server.shutdown()  # segment unlinked before the worker attaches
        shm._ATTACHED.pop(handle.segment, None)
        datasets.install_shm_manifest({s.key: handle})
        out = datasets.get_dataset(s, build)
        assert build.calls == 2
        np.testing.assert_array_equal(out["data"], np.arange(16))

    def test_shm_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_SHM", "0")
        build = CountingBuilder()
        server = shm.ShmServer()
        try:
            s = spec(params="disabled")
            handle = server.export(s.key, {"data": np.zeros(4)})
            datasets.install_shm_manifest({s.key: handle})
            out = datasets.get_dataset(s, build)
            assert build.calls == 1
            np.testing.assert_array_equal(out["data"], np.arange(16))
        finally:
            server.shutdown()


#: Three cells of distinct workloads on a two-worker pool.  The pool
#: forks during the first cell, so its dataset reaches the workers
#: through fork; the other two arrive over shared memory.
_POOL_RUN = """
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner
from repro.workloads import WORKLOAD_FACTORIES
from repro.workloads.pagerank import PageRankParams, PageRankWorkload
from repro.workloads.tpch import TPCHParams, TPCHWorkload
from repro.workloads.ycsb import YCSBParams, YCSBWorkload

WORKLOAD_FACTORIES["tpch"] = lambda: TPCHWorkload(TPCHParams(
    table_pages=96, hash_pages=96, shuffle_pages=64, n_threads=4,
    n_queries=1))
WORKLOAD_FACTORIES["pagerank"] = lambda: PageRankWorkload(PageRankParams(
    n_vertices=4096, avg_degree=6, n_iterations=3, n_threads=4))
WORKLOAD_FACTORIES["ycsb-a"] = lambda: YCSBWorkload(
    "a", YCSBParams(n_items=1200, n_requests=4000, n_threads=2))
with ExperimentRunner(jobs=2) as runner:
    for workload in ("tpch", "pagerank", "ycsb-a"):
        result = runner.run(ExperimentConfig(
            workload=workload,
            system=SystemConfig(policy="clock", swap="ssd",
                                capacity_ratio=0.5),
            n_trials=3, base_seed=1))
        print(workload, len(result.trials))
"""


def test_pool_workers_leave_parent_segments_registered(tmp_path):
    # Forked workers share the parent's resource tracker, so a worker
    # that unregistered a segment after attaching made the parent's
    # unlink() print ``KeyError: '/psm_...'`` from the tracker.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_JOBS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_RUN],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "tpch", "3", "pagerank", "3", "ycsb-a", "3",
    ]
    assert "KeyError" not in proc.stderr, proc.stderr
    assert "leaked shared_memory" not in proc.stderr, proc.stderr
