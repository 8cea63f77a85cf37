"""Bit-identity of a reclaim-heavy trial across the remaining lanes.

Reclaim runs one kernel: triage-block eviction and pooled swap writes on
Python lists.  What it still sits on has two lanes each: the resident
access loop (``REPRO_FAST_ACCESS``: vectorized or scalar) and the event
engine (``REPRO_FAST_ENGINE``: with CPU run-ahead and the zero-delay
deque, or heap-only).  The fast side must compute identical values in
identical RNG order, so a full all-fast trial must match the scalar
access loop on the heap-only engine to the bit: every
:class:`TrialResult` field *and* every tracepoint's firing count.

The only permitted divergence is ``mm_pte_flat_rebuild``, which
instruments the flat-PTE mirror: the vectorized access loop builds it
and the scalar loop does not, so its count is mode-dependent by design.
"""

from __future__ import annotations

from typing import Dict

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.trace import tracepoints as _tp
from repro.workloads.tpch import TPCHParams, TPCHWorkload

#: Tracepoints whose counts may legitimately differ between modes.
MODE_DEPENDENT = {"mm_pte_flat_rebuild"}

FAST_TOGGLES = ("REPRO_FAST_ACCESS", "REPRO_FAST_ENGINE")


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    """Shrink TPC-H so a full trial takes well under a second."""
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


def _traced_trial(policy: str, swap: str, ratio: float):
    """One trial with a counting probe on every tracepoint.

    Returns ``(TrialResult, {tracepoint: firing count})``.
    """
    counts: Dict[str, int] = {name: 0 for name in _tp.TRACEPOINTS}

    def make_probe(name):
        def probe(a=0, b=0, c=0):
            counts[name] += 1

        return probe

    for name in _tp.TRACEPOINTS:
        _tp.attach(name, make_probe(name))
    try:
        config = SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio)
        result = run_trial("tpch", config, seed=77_000)
    finally:
        _tp.detach_all()
    return result, counts


@pytest.mark.parametrize("ratio", [0.5, 0.75])
@pytest.mark.parametrize("swap", ["ssd", "zram"])
@pytest.mark.parametrize("policy", ["clock", "mglru", "fifo", "random"])
def test_batched_reclaim_bit_identical(monkeypatch, policy, swap, ratio):
    """All-fast and all-scalar trials agree on every stat and every
    tracepoint count (except the fast-path-only flat-rebuild hook)."""
    for toggle in FAST_TOGGLES:
        monkeypatch.setenv(toggle, "1")
    fast, fast_counts = _traced_trial(policy, swap, ratio)
    for toggle in FAST_TOGGLES:
        monkeypatch.setenv(toggle, "0")
    slow, slow_counts = _traced_trial(policy, swap, ratio)

    assert fast == slow
    # The acceptance criteria spelled out, though TrialResult equality
    # already covers them: wall stats, fault counts, and stats.extra.
    assert fast.runtime_ns == slow.runtime_ns
    assert fast.major_faults == slow.major_faults
    assert fast.minor_faults == slow.minor_faults
    assert fast.counters == slow.counters

    for name in _tp.TRACEPOINTS:
        if name in MODE_DEPENDENT:
            continue
        assert fast_counts[name] == slow_counts[name], (
            f"tracepoint {name}: fast fired {fast_counts[name]}, "
            f"scalar fired {slow_counts[name]}"
        )
    # Sanity: the trial actually exercised the reclaim machinery.
    assert fast_counts["mm_vmscan_evict"] > 0
    assert fast_counts["swap_io_done"] > 0
