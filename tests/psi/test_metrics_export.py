"""MetricsSession's PSI import: stall + workingset counters appear
exactly when a tracker is installed on the metered system."""

from __future__ import annotations

from tests.conftest import make_small_system, run_threads, touch_all

from repro.metrics import MetricsConfig
from repro.metrics.session import MetricsSession
from repro.psi import PsiTracker


def _run_metered(with_psi: bool):
    eng, system, vma = make_small_system(
        policy_name="mglru", capacity=64, heap_pages=192, start=False
    )
    session = MetricsSession(MetricsConfig(), system)
    session.start()
    tracker = None
    if with_psi:
        tracker = PsiTracker(eng)
        tracker.install(system)
    try:
        system.start()
        run_threads(eng, system, [touch_all(system, vma)])
        if tracker is not None:
            tracker.finalize(eng.now)
        # The finalizer imports the tracker still attached to the bus.
        return session.finalize(runtime_ns=eng.now), tracker
    finally:
        session.detach()
        if tracker is not None:
            tracker.detach()


def test_psi_counters_exported_when_tracker_installed():
    registry, tracker = _run_metered(with_psi=True)
    stall = registry.get("repro_psi_memory_stall_us_total")
    assert stall is not None
    some_us = stall.labels(group="system", kind="some").value
    full_us = stall.labels(group="system", kind="full").value
    # Capacity is a third of the footprint: the toucher must stall.
    assert some_us > 0
    assert 0 <= full_us <= some_us
    assert some_us == tracker.system.some_total_ns // 1000

    ws = registry.get("repro_workingset_total")
    assert ws is not None
    refaults = ws.labels(group="system", event="refault").value
    assert refaults == tracker.system.ws_refault
    # The text exposition round-trips the new families too.
    assert "repro_psi_memory_stall_us_total" in registry.to_prom_text()


def test_psi_counters_absent_without_tracker():
    registry, _ = _run_metered(with_psi=False)
    assert registry.get("repro_psi_memory_stall_us_total") is None
    assert registry.get("repro_workingset_total") is None
