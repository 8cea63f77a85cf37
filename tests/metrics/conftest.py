"""Fixtures for the metrics suite: one tiny metered trial, shared."""

from __future__ import annotations

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.metrics import MetricsConfig
from repro.trace import tracepoints
from repro.workloads.tpch import TPCHParams, TPCHWorkload

SEED = 4242


def tiny_tpch_factory():
    """A TPC-H instance small enough for sub-second trials."""
    return TPCHWorkload(
        TPCHParams(
            table_pages=96,
            hash_pages=96,
            shuffle_pages=64,
            n_threads=4,
            n_queries=1,
        )
    )


@pytest.fixture(autouse=True)
def no_hook_leaks():
    """Every test starts and ends with the observer bus detached."""
    tracepoints.detach_all()
    yield
    tracepoints.detach_all()


@pytest.fixture(scope="module")
def tiny_workload():
    """Swap the tpch factory for the tiny variant, module-wide."""
    prev = workloads_pkg.WORKLOAD_FACTORIES["tpch"]
    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = tiny_tpch_factory
    yield "tpch"
    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = prev


@pytest.fixture(scope="module")
def metered_trial(tiny_workload):
    """(unmetered, metered) results of the same tiny trial."""
    config = SystemConfig(policy="mglru", swap="ssd", capacity_ratio=0.5)
    off = run_trial(tiny_workload, config, SEED)
    on = run_trial(tiny_workload, config, SEED, metrics=MetricsConfig())
    tracepoints.detach_all()
    assert on.metrics_registry is not None
    return off, on
