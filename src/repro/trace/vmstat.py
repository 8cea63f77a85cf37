"""``/proc/vmstat``-style periodic counter snapshots.

The kernel's ``/proc/vmstat`` is a table of monotonically increasing
counters that observers poll to turn aggregates into time series.  The
:class:`VmStatSampler` does the same for one trial: a daemon thread
wakes every ``interval_ns`` of simulated time, reads the live counter
sources — :class:`~repro.mm.stats.MMStats`, the reverse map, the swap
device and swap-slot table — and appends one row.  Sampling is purely
observational (no CPU cost, no RNG draws, no state writes), so a traced
trial stays bit-identical to an untraced one.

A final snapshot is taken at trial teardown, which is what pins the
acceptance property: the last row of every counter column equals the
trial's aggregate statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.psi import tracker as psi_tracker
from repro.sim.events import Sleep

#: Cumulative (monotonically nondecreasing) counters, by source:
#: ``MMStats`` fields first, then derived counters read from their
#: authoritative owners (the post-run ``stats.rmap_walks`` fixup in
#: ``run_trial`` reads the same sources, keeping finals consistent).
MM_COUNTERS = (
    "minor_faults",
    "major_faults",
    "hits",
    "evictions",
    "dirty_evictions",
    "direct_reclaims",
    "background_reclaims",
    "direct_reclaim_stall_ns",
    "refaults",
    "ptes_scanned",
    "ptes_scanned_nearby",
    "promotions",
    "aging_walks",
    "policy_ticks",
    "gen_cap_hits",
)
DERIVED_COUNTERS = (
    "rmap_walks",
    "swap_reads",
    "swap_writes",
    "swap_slot_stores",
    "swap_slot_loads",
)
#: Instantaneous gauges — *not* monotonic, excluded from monotonicity
#: checks but invaluable on a timeline (free-memory sawtooth, CPU
#: contention, swap occupancy).
GAUGES = (
    "free_frames",
    "resident_pages",
    "swap_slots_used",
    "cpu_runnable",
)

#: PSI stall + workingset counters (column-set **version 2**): read
#: from the installed tracker (:func:`repro.psi.tracker.installed`),
#: constant zero without one (still monotone, so the column contract
#: is uniform).
#: Kept out of ``MM_COUNTERS``/``DERIVED_COUNTERS`` — those two tuples
#: name ``MMStats``/owner attributes that other readers (the metrics
#: finalizer) iterate with ``getattr``.
PSI_COUNTERS = (
    "psi_some_total_ns",
    "psi_full_total_ns",
    "workingset_refault",
    "workingset_activate",
    "workingset_restore",
)

#: Version of the sampled column set, written into npz capture headers
#: so pre-PSI captures (implicitly version 1) keep round-tripping.
#: 1 = MM_COUNTERS + DERIVED_COUNTERS + GAUGES; 2 = + PSI_COUNTERS.
VMSTAT_VERSION = 2

COUNTERS = MM_COUNTERS + DERIVED_COUNTERS + PSI_COUNTERS
ALL_FIELDS = COUNTERS + GAUGES


@dataclass
class VmStatSeries:
    """One trial's sampled counter table (picklable, numpy-backed)."""

    interval_ns: int
    times_ns: np.ndarray
    columns: Dict[str, np.ndarray]
    #: True when the periodic sampler hit its row cap before trial end
    #: (the final teardown snapshot is still always present).
    truncated: bool = False
    #: Column-set version this series was recorded with (captures
    #: loaded from pre-PSI npz files report 1; see VMSTAT_VERSION).
    version: int = VMSTAT_VERSION

    @property
    def n_samples(self) -> int:
        """Number of snapshot rows."""
        return int(self.times_ns.shape[0])

    def column(self, name: str) -> np.ndarray:
        """One counter/gauge column, index-aligned with ``times_ns``."""
        return self.columns[name]

    def final(self) -> Dict[str, int]:
        """The last snapshot row as a dict (trial-end aggregates)."""
        if not self.n_samples:
            return {}
        return {name: int(col[-1]) for name, col in self.columns.items()}

    def deltas(self, name: str) -> np.ndarray:
        """Per-interval increments of a cumulative counter."""
        col = self.columns[name]
        if col.shape[0] == 0:
            return col
        return np.diff(col, prepend=col[:1])


class VmStatSampler:
    """Samples the live counter table of one :class:`MemorySystem`."""

    def __init__(
        self, system: Any, interval_ns: int, max_samples: int
    ) -> None:
        self._system = system
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        self._times: List[int] = []
        self._rows: Dict[str, List[int]] = {name: [] for name in ALL_FIELDS}
        self._truncated = False

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self) -> None:
        """Append one snapshot row at the current simulated instant."""
        system = self._system
        stats = system.stats
        rows = self._rows
        self._times.append(system.engine.now)
        for name in MM_COUNTERS:
            rows[name].append(getattr(stats, name))
        rows["rmap_walks"].append(system.rmap.walk_count)
        dev = system.swap_device.stats
        rows["swap_reads"].append(dev.reads)
        rows["swap_writes"].append(dev.writes)
        rows["swap_slot_stores"].append(system.swap.stores)
        rows["swap_slot_loads"].append(system.swap.loads)
        psi = psi_tracker.installed()
        if psi is None:
            rows["psi_some_total_ns"].append(0)
            rows["psi_full_total_ns"].append(0)
            rows["workingset_refault"].append(0)
            rows["workingset_activate"].append(0)
            rows["workingset_restore"].append(0)
        else:
            some_ns, full_ns, ws_r, ws_a, ws_s = psi.system_totals()
            rows["psi_some_total_ns"].append(some_ns)
            rows["psi_full_total_ns"].append(full_ns)
            rows["workingset_refault"].append(ws_r)
            rows["workingset_activate"].append(ws_a)
            rows["workingset_restore"].append(ws_s)
        rows["free_frames"].append(system.frames.n_free)
        rows["resident_pages"].append(system.policy.resident_count())
        rows["swap_slots_used"].append(system.swap.n_used)
        rows["cpu_runnable"].append(system.cpu.n_runnable)

    def run(self) -> Iterator[Any]:
        """Daemon generator: one row per ``interval_ns`` of sim time.

        Stops at ``max_samples`` so a runaway trial cannot grow the
        table without bound (and so the event queue drains normally —
        the engine's deadlock detection stays meaningful).
        """
        while len(self._times) < self.max_samples:
            yield Sleep(self.interval_ns)
            self.sample()
        self._truncated = True

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def series(self) -> VmStatSeries:
        """Freeze the sampled rows into a :class:`VmStatSeries`."""
        return VmStatSeries(
            interval_ns=self.interval_ns,
            times_ns=np.asarray(self._times, dtype=np.int64),
            columns={
                name: np.asarray(values, dtype=np.int64)
                for name, values in self._rows.items()
            },
            truncated=self._truncated,
        )
