"""Trial entry points free their simulator when they return.

A page table's flat view keeps its pages in a numpy object array, which
the cyclic GC cannot traverse, so each page's back-pointer to the view
closes a cycle the collector never frees.  ``run_trial``,
``run_fleet_trial`` and ``run_memcg_trial`` break it at teardown, on
error paths too; after each returns (or raises) and ``gc.collect()``,
none of its pages and not its engine may be left alive.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.core.experiment as experiment
import repro.fleet.trial as fleet_trial
import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.fleet import FleetConfig, TenantShape
from repro.mm.page import Page
from repro.mm.page_table import PTEFlatState
from repro.sim.engine import Engine
from repro.workloads.tpch import TPCHParams, TPCHWorkload

CONFIG = SystemConfig(policy="clock", swap="zram", capacity_ratio=0.5)
FLEET = FleetConfig(
    n_tenants=3,
    shapes=(TenantShape(n_items=40), TenantShape(n_items=80)),
    capacity_ratio=0.5,
    n_requests_total=600,
    arrival_rate_rps=60_000.0,
    n_cpus=2,
)

ENTRY_POINTS = {
    "run_trial": lambda: experiment.run_trial("tpch", CONFIG, seed=3),
    "run_memcg_trial": lambda: fleet_trial.run_memcg_trial(
        "tpch", CONFIG, seed=3
    ),
    "run_fleet_trial": lambda: fleet_trial.run_fleet_trial(
        FLEET, "clock", seed=3
    ),
}


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "tpch",
        lambda: TPCHWorkload(
            TPCHParams(
                table_pages=96,
                hash_pages=96,
                shuffle_pages=64,
                n_threads=4,
                n_queries=1,
            )
        ),
    )


def _live(cls) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


class _Failed(RuntimeError):
    pass


def _spy_engines(monkeypatch, fail: bool):
    """Make the entry points build engines that report themselves
    (weakly) and, with *fail*, raise partway through the run, once the
    flat view, and with it the cycle, exists.  Returns the weakrefs
    and the number of flat views each failure found that did not exist
    before."""
    engines = []
    flats_at_failure = []
    flats_before = _live(PTEFlatState)

    class SpyEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

        def run(self, until_ns=None):
            if not fail:
                return super().run(until_ns)
            super().run(until_ns=self._now + 2_000_000)
            flats_at_failure.append(_live(PTEFlatState) - flats_before)
            raise _Failed("injected mid-run failure")

    monkeypatch.setattr(experiment, "Engine", SpyEngine)
    monkeypatch.setattr(fleet_trial, "Engine", SpyEngine)
    return engines, flats_at_failure


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_returned_trial_leaves_nothing_alive(monkeypatch, entry):
    before = _live(Page)
    engines, _ = _spy_engines(monkeypatch, fail=False)
    ENTRY_POINTS[entry]()
    assert _live(Page) == before
    assert len(engines) == 1 and engines[0]() is None


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_failed_trial_leaves_nothing_alive(monkeypatch, entry):
    before = _live(Page)
    engines, flats = _spy_engines(monkeypatch, fail=True)
    with pytest.raises(_Failed):
        ENTRY_POINTS[entry]()
    assert flats and flats[0] >= 1
    assert _live(Page) == before
    assert len(engines) == 1 and engines[0]() is None
