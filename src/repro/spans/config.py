"""Span-plane configuration knobs.

Like :class:`repro.psi.PsiConfig`, this is deliberately *not* part of
:class:`~repro.fleet.config.FleetConfig`: the sink digests the fleet
config to decide trial identity, and an observer must never change
which trials a sweep runs — only what extra sections the rows carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import MS
from repro.errors import ConfigError


@dataclass(frozen=True)
class SpansConfig:
    """Knobs for the span recorder and sim-time profiler."""

    #: Head sampling: retain the full span record of every Nth fault
    #: (aggregates — segment sums, counts, top-K — always cover *all*
    #: faults, so sampling only bounds memory, never skews totals).
    #: The fleet CLI sets it with ``--spans-sample``.
    sample_every: int = 1
    #: Hard cap on retained span records per trial.
    max_spans: int = 10_000
    #: Slowest-spans table size.
    top_k: int = 10
    #: Sim-time profiler sampling period (0 disables the profiler).
    profile_interval_ns: int = MS
    #: Row cap for the profiler (like the vmstat sampler's cap, this
    #: also lets the engine's event queue drain normally at trial end).
    max_profile_samples: int = 100_000

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.max_spans < 0:
            raise ConfigError(
                f"max_spans must be >= 0, got {self.max_spans}"
            )
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.profile_interval_ns < 0:
            raise ConfigError(
                "profile_interval_ns must be >= 0, got "
                f"{self.profile_interval_ns}"
            )
        if self.max_profile_samples < 1:
            raise ConfigError(
                "max_profile_samples must be >= 1, got "
                f"{self.max_profile_samples}"
            )
