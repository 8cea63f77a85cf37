"""The observer bus at trial scale: teardown and the memstall rules.

Consumers are process-global: a trial that left a probe attached would
feed the next trial's events into a dead session (or a live one, if a
later trial attaches the same plane), so every consumer detaches in the
trial's own teardown.  PSI derives every stall from the ``memstall``
flag of the waits, so the flags are checked against the kernel's rules
wait by wait.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.metrics import MetricsConfig
from repro.mm.system import MemorySystem
from repro.psi import PsiConfig
from repro.psi import tracker as psi_tracker
from repro.spans import SpansConfig
from repro.trace import TraceConfig, tracepoints
from repro.workloads.tpch import TPCHParams, TPCHWorkload
from tests.memcg.test_invariants import _two_tenant_system


def _tiny_tpch():
    return TPCHWorkload(
        TPCHParams(
            table_pages=96, hash_pages=96, shuffle_pages=64,
            n_threads=4, n_queries=1,
        )
    )


def _trial():
    return run_trial(
        "tpch",
        SystemConfig(policy="mglru", swap="ssd", capacity_ratio=0.5),
        7,
        trace=TraceConfig(),
        metrics=MetricsConfig(),
        spans=SpansConfig(),
    )


def _fleet_trial():
    config = FleetConfig(
        n_tenants=3,
        shapes=(TenantShape(n_items=40),),
        capacity_ratio=0.5,
        limit_ratio=0.8,
        n_requests_total=300,
    )
    return run_fleet_trial(
        config, "clock", 7, psi=PsiConfig(), spans=SpansConfig()
    )


@pytest.fixture
def tiny_tpch(monkeypatch):
    monkeypatch.setitem(workloads_pkg.WORKLOAD_FACTORIES, "tpch", _tiny_tpch)


@pytest.mark.parametrize("run", [_trial, _fleet_trial], ids=["trial", "fleet"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_trial_leaves_the_bus_empty(tiny_tpch, monkeypatch, run, raises):
    tracepoints.detach_all()
    if raises:
        def fail(self):
            assert tracepoints.active()  # the consumers are attached
            raise RuntimeError("boom")

        monkeypatch.setattr(MemorySystem, "start", fail)
        with pytest.raises(RuntimeError, match="boom"):
            run()
    else:
        run()
    assert tracepoints.active() == ()
    assert psi_tracker.installed() is None


#: Waits that are memory stalls wherever they open (kernel
#: psi_memstall_enter sites), and waits that never are.
_ALWAYS_MEMSTALL = {
    "swap_read", "reclaim_run", "reclaim_wait", "memcg_run", "memcg_wait",
    "backoff",
}
_NEVER_MEMSTALL = {"zero_fill", "evict_triage", "evict_writeback"}


def test_memstall_flags_follow_the_kernel_rules():
    """Two hard-limited MG-LRU tenants with three threads each reach
    every wait kind, kswapd's eviction waits included."""
    engine, system, _root, _cgroups, vmas = _two_tenant_system(
        "mglru", capacity=96, pages_per_tenant=128, limit_pages=48
    )
    seen = set()

    def probe(kind, memcg, memstall, subject):
        thread = engine.current_thread.name
        if kind == "inflight_wait":
            # A thrashing wait only when the page is mid-swap-in.
            assert memstall == (subject.swap_slot is not None)
        elif kind == "evict_wait":
            # Stalls only on a faulting thread's own retry, never in a
            # policy's reclaim (kswapd's or nested in a memstall run).
            assert not (memstall and thread == "kswapd")
        else:
            assert memstall == (kind in _ALWAYS_MEMSTALL), kind
        seen.add((kind, memstall, thread == "kswapd"))

    def sweeps(vpns):
        for _ in range(3):
            yield from system.access_run(
                vpns, write=True, compute_ns_per_access=200
            )

    tracepoints.attach("wait_begin", probe)
    try:
        system.start()
        for i, vma in enumerate(vmas):
            vpns = np.arange(vma.start_vpn, vma.end_vpn)
            for j, order in enumerate((vpns, vpns, np.roll(vpns, -64))):
                system.spawn_app_thread(sweeps(order), f"t{i}.{j}")
        engine.run()
    finally:
        tracepoints.detach("wait_begin", probe)
    kinds = {kind for kind, _, _ in seen}
    assert kinds == _ALWAYS_MEMSTALL | _NEVER_MEMSTALL | {
        "inflight_wait", "evict_wait"
    }
    assert ("evict_wait", False, True) in seen  # kswapd's, no stall
    assert ("inflight_wait", False, False) in seen
    assert ("inflight_wait", True, False) in seen
