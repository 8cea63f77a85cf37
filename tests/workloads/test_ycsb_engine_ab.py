"""YCSB trials are the same on the fast and the heap-only engine.

On the fast engine a YCSB thread completes stretches of requests that
hit both their pages in one CPU run-ahead call (see
``YCSBWorkload.thread_body``); the heap-only engine
(``REPRO_FAST_ENGINE=0``) never runs ahead and steps every request's
Compute through the event heap.  With trace on, both must produce the
same :class:`TrialResult`, the same trace events and the same vmstat
series.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Optional

import numpy as np
import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.sim.cpu import CPU
from repro.trace import TraceConfig
from repro.workloads.ycsb import YCSBParams, YCSBWorkload

SEED = 31_337


class Case(NamedTuple):
    mix: str
    policy: str
    swap: str
    ratio: float
    #: CPUs, or None for the default.
    n_cpus: Optional[int] = None
    #: Per-request compute, or None for the default.
    work_ns: Optional[int] = None

    def id(self) -> str:
        cpus = "" if self.n_cpus is None else f"-{self.n_cpus}cpu"
        work = "" if self.work_ns is None else f"-{self.work_ns}ns"
        return f"ycsb-{self.mix}/{self.policy}/{self.swap}@{self.ratio}{cpus}{work}"


#: Both mixes on both policy families; one cell on a single CPU, where
#: processor sharing leaves a fractional service and a stretch job's
#: delay can exceed its work by 1 ns; and one whose requests compute
#: nothing, so each starts with a zero-cost Compute.
CASES = [
    Case("a", "clock", "ssd", 0.5),
    Case("a", "clock", "ssd", 0.9),
    Case("a", "clock", "zram", 0.5),
    Case("c", "mglru", "ssd", 0.5),
    Case("c", "mglru", "ssd", 0.9),
    Case("c", "mglru", "zram", 0.5),
    Case("c", "mglru", "ssd", 0.5, n_cpus=1),
    Case("a", "clock", "ssd", 0.75, work_ns=0),
]


def _trial(monkeypatch, fast: str, case: Case):
    params = YCSBParams(n_items=3_000, n_requests=12_000)
    if case.work_ns is not None:
        params = replace(params, request_compute_ns=case.work_ns)
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        f"ycsb-{case.mix}",
        lambda: YCSBWorkload(case.mix, params),
    )
    monkeypatch.setenv("REPRO_FAST_ENGINE", fast)
    config = SystemConfig(
        policy=case.policy, swap=case.swap, capacity_ratio=case.ratio
    )
    if case.n_cpus is not None:
        config = config.with_(n_cpus=case.n_cpus)
    return run_trial(f"ycsb-{case.mix}", config, SEED, trace=TraceConfig())


@pytest.mark.parametrize("case", CASES, ids=[c.id() for c in CASES])
def test_fast_engine_matches_heap_only(monkeypatch, case):
    stretches: List[List[int]] = []
    run_ahead = CPU.run_ahead

    def recording_run_ahead(self, thread, work_ns, n):
        delays = run_ahead(self, thread, work_ns, n)
        stretches.append(delays)
        return delays

    monkeypatch.setattr(CPU, "run_ahead", recording_run_ahead)
    fast = _trial(monkeypatch, "1", case)
    fast_stretches = list(stretches)
    stretches.clear()
    slow = _trial(monkeypatch, "0", case)
    assert not any(stretches), "the heap-only engine ran a job ahead"

    # Latency arrays compare element-wise; every other field by value.
    assert fast.latencies_ns.keys() == slow.latencies_ns.keys()
    for op in fast.latencies_ns:
        assert np.array_equal(fast.latencies_ns[op], slow.latencies_ns[op])
    fast.latencies_ns = slow.latencies_ns = {}
    assert fast == slow

    a, b = fast.trace, slow.trace
    assert a is not None and b is not None
    assert (a.total_events, a.dropped_events) == (b.total_events, b.dropped_events)
    assert a.events.tobytes() == b.events.tobytes()
    assert np.array_equal(a.vmstat.times_ns, b.vmstat.times_ns)
    assert a.vmstat.columns.keys() == b.vmstat.columns.keys()
    for name, column in a.vmstat.columns.items():
        assert np.array_equal(column, b.vmstat.columns[name]), name

    if (case.swap, case.ratio, case.n_cpus) == ("ssd", 0.9, None):
        # Threads mostly wait on swap-in here, so requests that hit both
        # pages often complete several to a CPU call.
        assert max(map(len, fast_stretches)) > 1
    if case.n_cpus == 1:
        # A request served in a stretch has its own job's delay, 1 ns
        # longer than its work, for latency.
        work = YCSBParams().request_compute_ns
        assert any(
            work + 1 in delays for delays in fast_stretches if len(delays) > 1
        )
