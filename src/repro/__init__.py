"""repro — a reproduction of "Characterizing Emerging Page Replacement
Policies for Memory-Intensive Applications" (IISWC 2024).

The package is a discrete-event simulator of an operating system's
memory-management layer — page tables with hardware accessed bits, a
reverse map, a watermark-driven frame allocator, SSD and ZRAM swap — with
faithful implementations of Clock-LRU and Multi-Generational LRU
(generations, Bloom-filtered page-table walks, eviction-time spatial
scans, refault tiers with a PID controller), plus the paper's three
workload domains and a characterization harness that regenerates every
figure of the paper's evaluation.

Quick start::

    from repro import SystemConfig, run_trial

    config = SystemConfig(policy="mglru", swap="ssd", capacity_ratio=0.5)
    trial = run_trial("tpch", config, seed=1)
    print(trial.runtime_s, trial.major_faults)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro._env import check_env_names

check_env_names()

from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, run_trial
from repro.core.figures import FIGURES, FigureResult
from repro.core.results import ExperimentResult, TrialResult
from repro.metrics import MetricsConfig
from repro.mm.system import MemorySystem
from repro.policies import (
    MGLRU_VARIANTS,
    PAPER_POLICIES,
    MGLRUParams,
    make_policy,
)
from repro.trace import TraceCapture, TraceConfig
from repro.workloads import PAPER_WORKLOADS, make_workload

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "ExperimentConfig",
    "ExperimentRunner",
    "run_trial",
    "TrialResult",
    "ExperimentResult",
    "FigureResult",
    "FIGURES",
    "MemorySystem",
    "TraceCapture",
    "TraceConfig",
    "MetricsConfig",
    "MGLRUParams",
    "make_policy",
    "make_workload",
    "PAPER_POLICIES",
    "PAPER_WORKLOADS",
    "MGLRU_VARIANTS",
    "__version__",
]
