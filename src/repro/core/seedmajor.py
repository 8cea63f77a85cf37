"""Seed-major columnar execution: run all seeds of a cell as one unit.

Every cell of the characterization grid repeats one (workload, system)
point across N seeds.  For workloads whose access sequence is a
deterministic function of the shared dataset plus the trial's VMA bases
(PageRank; others fall back to per-seed scalar), the only per-seed
inputs to the trace arrays are the ASLR-shifted area bases — so the
whole cell's VPN traces can be materialized in *one* vectorized pass
over ``(n_seeds, n)`` seed-stacked arrays, and the cell's PTE bits can
live in one :class:`~repro.mm.page_table.StackedPTEBits` whose rows back
each trial's flat state.

The engine itself still executes per seed (fault timing and thread
interleaving genuinely diverge across seeds — lockstepping them would
change results), which is what keeps the fast path **bit-identical** to
N independent scalar runs: the same arrays reach ``access_run`` with the
same values, only their construction is hoisted and batched.

Gated by ``REPRO_FAST_SEEDS`` (default on; ``0`` forces the historical
per-seed scalar path for A/B verification, and ``benchmarks/
bench_grid.py`` uses exactly that as its baseline).

:func:`run_cell_trials` is also the unit of work the
:class:`~repro.core.experiment.ExperimentRunner` ships to ``REPRO_JOBS``
workers: one task per seed chunk, carrying the parent's shared-memory
dataset manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._env import env_flag
from repro.errors import SimulationError
from repro.mm.address_space import AddressSpace, place_area
from repro.mm.page_table import StackedPTEBits
from repro.sim.rng import RngTree
from repro.workloads import datasets, make_workload


def fast_seeds_enabled() -> bool:
    """The ``REPRO_FAST_SEEDS`` knob (default on)."""
    return env_flag("REPRO_FAST_SEEDS", True)


@dataclass(frozen=True)
class SeedMajorPlan:
    """A workload's declaration of seed-stackable structure.

    ``areas`` lists the VMAs the workload maps in :meth:`setup`, in
    mapping order, as ``(name, n_pages)`` — enough to replay ASLR
    placement per seed.  ``build_stacked`` receives the per-area base
    arrays (name → ``(n_seeds,)`` int64) and returns every stacked trace
    array (key → ``(n_seeds, n)``), built with the same numpy
    expressions the scalar path applies one seed at a time.
    """

    areas: Tuple[Tuple[str, int], ...]
    build_stacked: Callable[[Dict[str, np.ndarray]], Dict[Any, np.ndarray]]


class SeedMajorCell:
    """Shared execution state for all seeds of one grid cell.

    Holds the layout prepass result (per-seed VMA bases, replayed from
    each seed's ASLR stream via :func:`~repro.mm.address_space.
    place_area`), the lazily built stacked trace arrays, and the cell's
    :class:`StackedPTEBits`.  Trials access their slice through
    :meth:`row` / :meth:`bits`; :meth:`verify_layout` cross-checks the
    replayed bases against the real address space at setup time, so a
    drift between the prepass and ``map_area`` is an immediate error
    rather than silently wrong traces.
    """

    def __init__(
        self, plan: SeedMajorPlan, seeds: Sequence[int], n_pages: int
    ) -> None:
        self.plan = plan
        self.seeds = list(seeds)
        self.n_pages = int(n_pages)
        n_seeds = len(self.seeds)
        self._bases: Dict[str, np.ndarray] = {
            name: np.zeros(n_seeds, dtype=np.int64)
            for name, _ in plan.areas
        }
        for s, seed in enumerate(self.seeds):
            aslr = RngTree(seed).stream("aslr")
            next_free = 0
            for name, n_area_pages in plan.areas:
                start = place_area(next_free, aslr)
                self._bases[name][s] = start
                next_free = start + n_area_pages
        self._stacked: Optional[Dict[Any, np.ndarray]] = None
        self._rows: Dict[tuple, np.ndarray] = {}
        self._bits: Optional[StackedPTEBits] = None

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def _ensure_stacked(self) -> Dict[Any, np.ndarray]:
        stacked = self._stacked
        if stacked is None:
            stacked = self.plan.build_stacked(self._bases)
            for arr in stacked.values():
                arr.setflags(write=False)
            self._stacked = stacked
        return stacked

    def row(self, key: Any, row: int) -> np.ndarray:
        """Seed *row*'s 1-D view of stacked array *key* (cached, so the
        flat state's per-trace translate memo hits across iterations)."""
        cache_key = (key, row)
        view = self._rows.get(cache_key)
        if view is None:
            view = self._ensure_stacked()[key][row]
            self._rows[cache_key] = view
        return view

    def bits(self) -> StackedPTEBits:
        """The cell's seed-stacked PTE-bit arrays (allocated once)."""
        if self._bits is None:
            self._bits = StackedPTEBits(self.n_seeds, self.n_pages)
        return self._bits

    def verify_layout(self, address_space: AddressSpace, row: int) -> None:
        """Assert the replayed bases match the real VMAs of trial *row*."""
        for name, n_area_pages in self.plan.areas:
            vma = address_space.vma(name)
            expected = int(self._bases[name][row])
            if vma.start_vpn != expected or vma.n_pages != n_area_pages:
                raise SimulationError(
                    f"seed-major layout prepass diverged for VMA {name!r} "
                    f"(seed {self.seeds[row]}): planned "
                    f"({expected}, {n_area_pages}), "
                    f"mapped ({vma.start_vpn}, {vma.n_pages})"
                )


def plan_cell(
    workload_name: str, seeds: Sequence[int]
) -> Optional[SeedMajorCell]:
    """Probe *workload_name* for a seed-major plan over *seeds*.

    Returns ``None`` when the knob is off, the cell has a single seed
    (nothing to batch), or the workload declares no plan — callers then
    run the per-seed scalar path.  The probe's ``prepare`` populates the
    process dataset memo, so the subsequent trials hit it either way.
    """
    if not fast_seeds_enabled() or len(seeds) <= 1:
        return None
    from repro.core.experiment import DATASET_SEED

    probe = make_workload(workload_name)
    footprint = probe.prepare(
        RngTree(DATASET_SEED).subtree("dataset", workload_name)
    )
    plan = probe.seed_major_plan()
    if plan is None:
        return None
    return SeedMajorCell(plan, seeds, footprint)


def run_cell_trials(
    workload_name: str,
    system_config: Any,
    seeds: Sequence[int],
    trace: Any = None,
    metrics: Any = None,
    shm_manifest: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[Any]:
    """Run the trials of one cell (a seed chunk), in seed order.

    This is the pool task of the fast lane: it installs the parent's
    shared-memory dataset manifest (if any), builds the cell's
    seed-major context once, and runs each seed's trial against it.
    Results are plain :class:`~repro.core.results.TrialResult`\\ s,
    identical to ``[run_trial(...) for seed in seeds]``.
    """
    from repro.core.experiment import run_trial

    if shm_manifest:
        datasets.install_shm_manifest(shm_manifest)
    cell = plan_cell(workload_name, seeds)
    trials = []
    for row, seed in enumerate(seeds):
        if progress is not None:
            progress(row, seed)
        trials.append(
            run_trial(
                workload_name, system_config, seed, trace, metrics,
                _seed_cell=cell, _seed_row=row,
            )
        )
    return trials


def chunk_seeds(seeds: Sequence[int], jobs: int) -> List[List[int]]:
    """Split *seeds* into at most *jobs* contiguous chunks (cell tasks).

    Contiguous chunks keep seed order within each task, so assembling
    task results in submission order reproduces the serial seed order.
    """
    from repro.workloads.base import chunk_bounds

    seeds = list(seeds)
    n_chunks = max(1, min(len(seeds), jobs))
    chunks = []
    for i in range(n_chunks):
        lo, hi = chunk_bounds(len(seeds), n_chunks, i)
        if hi > lo:
            chunks.append(seeds[lo:hi])
    return chunks
