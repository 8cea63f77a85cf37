"""The workload interface and shared plumbing.

A workload's life cycle mirrors how the characterization harness uses
it:

1. :meth:`Workload.prepare` — build the data-structure layout (graphs,
   tables, item placement) from the trial's RNG, *before* the memory
   system exists, and report the memory footprint so the harness can
   size physical memory as ``ratio × footprint`` (the paper's
   capacity-to-footprint ratios);
2. :meth:`Workload.setup` — map the VMAs into the system's address
   space;
3. :meth:`Workload.thread_body` — one generator per application thread,
   yielding simulator commands (usually via ``system.access_run``);
4. :meth:`Workload.result` — workload-specific metrics after the run
   (e.g. YCSB request latencies).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.mm.system import MemorySystem
from repro.sim.rng import RngTree


@dataclass
class WorkloadResult:
    """What a workload hands back to the harness after a run."""

    #: Simulated nanoseconds from spawn to last thread finishing.
    runtime_ns: int = 0
    #: Workload-defined scalar metrics (iterations, queries, ...).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Request latencies in ns by operation type ("read"/"write"),
    #: present only for request-driven workloads (YCSB).
    latencies_ns: Dict[str, np.ndarray] = field(default_factory=dict)


class Workload(abc.ABC):
    """Base class for all workloads."""

    #: Registry name (also used as plot label).
    name: str = "workload"
    #: Application threads the workload spawns (paper: 12 for Spark and
    #: PageRank, 4 for memcached).
    n_threads: int = 12

    def __init__(self) -> None:
        self._prepared = False
        self._footprint_pages: Optional[int] = None

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------

    def prepare(self, rng: RngTree) -> int:
        """Build the layout; returns the footprint in pages."""
        self._footprint_pages = self._build(rng)
        if self._footprint_pages <= 0:
            raise WorkloadError(f"{self.name}: empty footprint")
        self._prepared = True
        return self._footprint_pages

    @abc.abstractmethod
    def _build(self, rng: RngTree) -> int:
        """Subclass hook: build internal structures, return footprint."""

    @abc.abstractmethod
    def setup(self, system: MemorySystem) -> None:
        """Map this workload's VMAs into *system*'s address space."""

    @abc.abstractmethod
    def thread_body(self, system: MemorySystem, tid: int) -> Iterator[Any]:
        """The generator run by application thread *tid*."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def footprint_pages(self) -> int:
        """Total pages the workload maps (valid after :meth:`prepare`)."""
        if self._footprint_pages is None:
            raise WorkloadError(f"{self.name}: prepare() not called yet")
        return self._footprint_pages

    def result(self) -> WorkloadResult:
        """Metrics gathered during the run (after the engine finishes)."""
        return WorkloadResult()

    def spawn(self, system: MemorySystem) -> List:
        """Spawn all application threads; returns the SimThreads."""
        if not self._prepared:
            raise WorkloadError(f"{self.name}: prepare() not called yet")
        return [
            system.spawn_app_thread(
                self.thread_body(system, tid), f"{self.name}-t{tid}"
            )
            for tid in range(self.n_threads)
        ]


def chunk_bounds(n_items: int, n_chunks: int, index: int) -> tuple[int, int]:
    """Half-open bounds of chunk *index* when *n_items* is split into
    *n_chunks* nearly equal contiguous chunks."""
    if not 0 <= index < n_chunks:
        raise WorkloadError(f"chunk index {index} out of range")
    base = n_items // n_chunks
    extra = n_items % n_chunks
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return start, start + size
