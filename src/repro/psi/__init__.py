"""Pressure Stall Information (PSI) for the simulator.

``repro.psi`` is the third observability plane next to ``repro.trace``
and ``repro.metrics``: kernel-style ``some``/``full`` memory-pressure
occupancy per cgroup and system-wide, ``avg10/avg60/avg300`` EWMAs,
``workingset_{refault,activate,restore}`` counters, and the raw
material for the fleet report's SLO-violation attribution (coalesced
stall intervals + the global-reclaim steal matrix).

Off by default; a trial opts in by building a :class:`PsiTracker` and
installing it on the observer bus (:mod:`repro.trace.tracepoints`)
before the engine runs (the fleet does this when
``run_fleet_trial(..., psi=...)`` is truthy), then detaching it in its
teardown.  With no tracker installed every instrumented site is a
single ``is None`` test, and simulation results are bit-identical.
"""

from repro.psi.config import PsiConfig
from repro.psi.tracker import (
    PsiGroup,
    PsiTracker,
    interval_overlap_ns,
    merge_intervals,
)

__all__ = [
    "PsiConfig",
    "PsiGroup",
    "PsiTracker",
    "interval_overlap_ns",
    "merge_intervals",
]
