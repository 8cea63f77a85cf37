"""Result containers for trials and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.metrics.registry import MetricsRegistry
    from repro.spans.recorder import SpanTable
    from repro.trace.session import TraceCapture


@dataclass
class TrialResult:
    """Everything measured in one workload execution."""

    workload: str
    policy: str
    swap: str
    capacity_ratio: float
    seed: int
    #: Total simulated execution time.
    runtime_ns: int
    #: Pages read back from swap — the paper's "faults".
    major_faults: int
    #: First-touch faults (roughly constant per workload).
    minor_faults: int
    #: Full MM counter snapshot.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Workload-defined metrics.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Request latencies by op type (YCSB only).
    latencies_ns: Dict[str, np.ndarray] = field(default_factory=dict)
    footprint_pages: int = 0
    capacity_frames: int = 0
    #: Trace capture when the trial ran with tracing enabled.  Excluded
    #: from equality so a traced trial compares equal to its untraced
    #: twin (the bit-identity contract the equivalence suite asserts).
    trace: Optional["TraceCapture"] = field(
        default=None, compare=False, repr=False
    )
    #: Metrics registry when the trial ran with metering enabled.
    #: Excluded from equality for the same bit-identity reason.
    metrics_registry: Optional["MetricsRegistry"] = field(
        default=None, compare=False, repr=False
    )
    #: Span table when the trial ran with span recording enabled.
    #: Excluded from equality for the same bit-identity reason.
    spans: Optional["SpanTable"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def runtime_s(self) -> float:
        """Runtime in seconds."""
        return self.runtime_ns / 1e9

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (latency arrays reduced to tails)."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "policy": self.policy,
            "swap": self.swap,
            "capacity_ratio": self.capacity_ratio,
            "seed": self.seed,
            "runtime_ns": self.runtime_ns,
            "major_faults": self.major_faults,
            "minor_faults": self.minor_faults,
            "footprint_pages": self.footprint_pages,
            "capacity_frames": self.capacity_frames,
            "counters": dict(self.counters),
            "metrics": dict(self.metrics),
        }
        tails = {}
        for op, arr in self.latencies_ns.items():
            if len(arr):
                tails[op] = {
                    str(q): float(np.percentile(arr, q))
                    for q in (50, 90, 99, 99.9, 99.99)
                }
        if tails:
            out["latency_tails_ns"] = tails
        return out


class ExperimentResult:
    """All trials of one experiment cell.

    A pooled :class:`~repro.core.experiment.ExperimentRunner` returns
    the cell before its trials finish (see :meth:`pending`): the first
    read of :attr:`trials` waits for them.  Every accessor below reads
    :attr:`trials`, so callers need not know which kind they hold.
    """

    def __init__(
        self,
        workload: str,
        policy: str,
        swap: str,
        capacity_ratio: float,
        trials: Iterable[TrialResult] = (),
    ) -> None:
        self.workload = workload
        self.policy = policy
        self.swap = swap
        self.capacity_ratio = capacity_ratio
        self._trials: List[TrialResult] = []
        self._collect: Optional[Callable[[], Iterable[TrialResult]]] = None
        self._error: Optional[Exception] = None
        for trial in trials:
            self.add(trial)

    @classmethod
    def pending(
        cls,
        workload: str,
        policy: str,
        swap: str,
        capacity_ratio: float,
        collect: Callable[[], Iterable[TrialResult]],
    ) -> "ExperimentResult":
        """A cell whose trials *collect* returns, called on first read.

        If *collect* raises, that read and every later one raise its
        exception, and the cell never holds a partial set of trials.
        """
        result = cls(workload, policy, swap, capacity_ratio)
        result._collect = collect
        return result

    @property
    def trials(self) -> List[TrialResult]:
        """The cell's trials in seed order (waits for a pending cell)."""
        if self._collect is not None:
            try:
                trials = list(self._collect())
                for trial in trials:
                    self._check(trial)
            except Exception as exc:
                self._collect, self._error = None, exc
                raise
            self._collect, self._trials = None, trials
        if self._error is not None:
            raise self._error
        return self._trials

    def _check(self, trial: TrialResult) -> None:
        if (
            trial.workload != self.workload
            or trial.policy != self.policy
            or trial.swap != self.swap
            or trial.capacity_ratio != self.capacity_ratio
        ):
            raise ConfigError("trial does not belong to this experiment cell")

    def add(self, trial: TrialResult) -> None:
        """Append a trial (validated against the cell key)."""
        self._check(trial)
        self.trials.append(trial)

    # ------------------------------------------------------------------
    # Vector accessors
    # ------------------------------------------------------------------

    @property
    def n_trials(self) -> int:
        """Number of completed trials."""
        return len(self.trials)

    def runtimes_ns(self) -> np.ndarray:
        """Per-trial runtimes."""
        return np.array([t.runtime_ns for t in self.trials], dtype=np.float64)

    def faults(self) -> np.ndarray:
        """Per-trial major-fault counts."""
        return np.array([t.major_faults for t in self.trials], dtype=np.float64)

    def pooled_latencies_ns(self, op: str) -> np.ndarray:
        """All trials' request latencies for *op*, concatenated."""
        arrays = [t.latencies_ns[op] for t in self.trials if op in t.latencies_ns]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(arrays)

    def mean_request_ns(self) -> float:
        """Mean request service time pooled over trials (YCSB metric the
        paper normalizes instead of total runtime)."""
        totals = []
        for t in self.trials:
            if "mean_request_ns" in t.metrics:
                totals.append(t.metrics["mean_request_ns"])
        return float(np.mean(totals)) if totals else float("nan")

    # ------------------------------------------------------------------
    # Scalar summaries
    # ------------------------------------------------------------------

    def mean_runtime_ns(self) -> float:
        """Mean runtime across trials."""
        return float(self.runtimes_ns().mean())

    def mean_faults(self) -> float:
        """Mean major faults across trials."""
        return float(self.faults().mean())

    def runtime_spread(self) -> float:
        """max/min runtime ratio — the paper's "3x between fastest and
        slowest execution" measure."""
        r = self.runtimes_ns()
        return float(r.max() / r.min()) if len(r) and r.min() > 0 else float("nan")

    def summary(self) -> Dict[str, float]:
        """Flat summary for reports."""
        runtimes = self.runtimes_ns()
        faults = self.faults()
        out = {
            "n_trials": float(self.n_trials),
            "runtime_mean_s": float(runtimes.mean() / 1e9),
            "runtime_std_s": float(runtimes.std(ddof=1) / 1e9)
            if len(runtimes) > 1
            else 0.0,
            "runtime_spread": self.runtime_spread(),
            "faults_mean": float(faults.mean()),
            "faults_std": float(faults.std(ddof=1)) if len(faults) > 1 else 0.0,
            "faults_max_over_mean": float(faults.max() / faults.mean())
            if faults.mean() > 0
            else float("nan"),
        }
        return out

    @property
    def key(self) -> tuple:
        """Cell key: (workload, policy, swap, ratio)."""
        return (self.workload, self.policy, self.swap, self.capacity_ratio)
