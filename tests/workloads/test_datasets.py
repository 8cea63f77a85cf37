"""Dataset layer: process memo, disk-cache path, pool workers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import tracecache
from repro.workloads import datasets


@pytest.fixture(autouse=True)
def clean_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
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
        assert len(datasets._MEMO) == datasets.MEMO_CAP


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

    def test_cache_off_rebuilds_in_each_process(self, monkeypatch):
        """With the disk cache off only the memo reuses a dataset, so a
        fresh process (a pool worker) builds its own."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        build = CountingBuilder()
        datasets.get_dataset(spec(), build)
        datasets.get_dataset(spec(), build)
        assert build.calls == 1
        datasets.clear_process_state()
        datasets.get_dataset(spec(), build)
        assert build.calls == 2
        assert not any(tracecache.STATS.snapshot().values())


#: Three cells of distinct workloads on a two-worker pool.  Over an
#: empty disk cache both workers build each dataset and store it.
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


def test_pool_workers_store_whole_entries_concurrently(tmp_path):
    # Each store renames a finished temp file over the entry, so two
    # workers storing one dataset at once leave one whole entry per
    # dataset and no temp file.
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
    assert "Traceback" not in proc.stderr, proc.stderr
    entries = sorted(tmp_path.iterdir())
    assert [path.name.rsplit("-", 1)[0] for path in entries] == [
        "pagerank", "tpch", "ycsb-a",
    ]
    for path in entries:
        with np.load(path, allow_pickle=False) as payload:
            assert all(payload[name].size for name in payload.files)
