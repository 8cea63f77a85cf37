"""Every figure requests its whole grid before it reads any cell.

A pooled runner returns each cell before its trials finish, so a figure
that reads a cell before requesting the next leaves workers idle at the
cell boundary.  Here ``_cell`` is patched to log each request and to
return a cell of synthetic trials that logs its first read.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.figures as figures
from repro.core.results import ExperimentResult, TrialResult


def _trial(key, index):
    workload, policy, swap, ratio = key
    latencies = {}
    metrics = {}
    if workload in figures.YCSB_WORKLOADS:
        latencies = {
            op: np.arange(1, 101, dtype=np.int64) * (1_000 + 10 * index)
            for op in ("read", "write")
        }
        metrics["mean_request_ns"] = 50_000.0 + index
    return TrialResult(
        workload=workload,
        policy=policy,
        swap=swap,
        capacity_ratio=ratio,
        seed=index,
        runtime_ns=10**9 + 10**7 * index * (index + 1),
        major_faults=1_000 + 37 * index,
        minor_faults=100,
        metrics=metrics,
        latencies_ns=latencies,
    )


class _LoggedCell(ExperimentResult):
    """A cell of synthetic trials that logs its first read."""

    def __init__(self, log, key, n_trials):
        self.workload, self.policy, self.swap, self.capacity_ratio = key
        self._log = log
        self._n = n_trials
        self._synthetic = None

    @property
    def trials(self):
        if self._synthetic is None:
            self._log.append(("read", self.key))
            self._synthetic = [_trial(self.key, i) for i in range(self._n)]
        return self._synthetic


@pytest.mark.parametrize("fig_id", list(figures.FIGURES))
def test_figure_requests_before_it_reads(fig_id, monkeypatch):
    log = []

    def logged_cell(runner, workload, policy, swap, ratio, n_trials, base_seed):
        key = (workload, policy, swap, ratio)
        log.append(("request", key))
        return _LoggedCell(log, key, n_trials)

    monkeypatch.setattr(figures, "_cell", logged_cell)
    result = figures.FIGURES[fig_id](None, n_trials=3)
    assert result.text
    kinds = [kind for kind, _key in log]
    assert "read" in kinds
    last_request = len(kinds) - 1 - kinds[::-1].index("request")
    assert last_request < kinds.index("read"), log
