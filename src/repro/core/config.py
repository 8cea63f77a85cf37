"""Experiment configuration objects.

A :class:`SystemConfig` describes the machine side of one experiment
cell — replacement policy, swap medium, capacity-to-footprint ratio,
CPU count and cost model.  An :class:`ExperimentConfig` adds the
workload and trial plan.  Both are frozen dataclasses so they can key
result dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.calibration import DEFAULT_N_CPUS, calibrated_costs
from repro.errors import ConfigError
from repro.metrics.config import MetricsConfig
from repro.mm.costs import CostModel, SSDCosts, ZRAMCosts
from repro.policies import POLICY_FACTORIES
from repro.trace.config import TraceConfig
from repro.workloads import WORKLOAD_FACTORIES

#: Capacity ratios the paper sweeps (§V-A, §V-C).
PAPER_RATIOS = (0.5, 0.75, 0.9)


@dataclass(frozen=True)
class SystemConfig:
    """One machine configuration cell of the paper's grid."""

    policy: str = "mglru"
    swap: str = "ssd"
    #: Memory capacity as a fraction of the workload footprint.
    capacity_ratio: float = 0.5
    n_cpus: int = DEFAULT_N_CPUS
    costs: CostModel = field(default_factory=calibrated_costs)
    ssd_costs: SSDCosts = field(default_factory=SSDCosts)
    zram_costs: ZRAMCosts = field(default_factory=ZRAMCosts)

    def __post_init__(self) -> None:
        if self.policy not in POLICY_FACTORIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.swap not in ("ssd", "zram"):
            raise ConfigError(f"unknown swap medium {self.swap!r}")
        if not 0.05 <= self.capacity_ratio <= 1.5:
            raise ConfigError(
                f"capacity ratio {self.capacity_ratio} is outside [0.05, 1.5]"
            )
        if self.n_cpus < 1:
            raise ConfigError("need at least one CPU")

    @property
    def label(self) -> str:
        """Short cell label for tables."""
        return f"{self.policy}/{self.swap}@{int(self.capacity_ratio * 100)}%"

    def with_(self, **kwargs) -> "SystemConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A workload run repeatedly under one system configuration."""

    workload: str
    system: SystemConfig = field(default_factory=SystemConfig)
    #: Independent executions ("reboots"); the paper uses 25.
    n_trials: int = 25
    #: Trial *t* uses seed ``base_seed + t``.
    base_seed: int = 10_000
    #: Per-trial trace capture; ``None`` (the default) means tracing is
    #: off and trials run the zero-overhead untraced path.
    trace: Optional[TraceConfig] = None
    #: Per-trial metrics registry; ``None`` (the default) means no
    #: metrics recorder attaches to the observer bus and trials run the
    #: zero-overhead unmetered path.
    metrics: Optional[MetricsConfig] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_FACTORIES:
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.n_trials < 1:
            raise ConfigError("need at least one trial")

    @property
    def label(self) -> str:
        """Short cell label for tables."""
        return f"{self.workload}:{self.system.label}"

    def seeds(self) -> range:
        """The seeds of all trials."""
        return range(self.base_seed, self.base_seed + self.n_trials)

    def with_(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
