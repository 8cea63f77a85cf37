"""The replacement-policy interface.

A policy owns the ordering data structures (LRU lists, generations) and
the scan logic; the :class:`~repro.mm.system.MemorySystem` owns frames,
the fault path, and eviction mechanics.  The contract:

- the system calls :meth:`bind` once, then :meth:`spawn_daemons`;
- on every fault that makes a page resident, the system calls
  :meth:`on_page_inserted` (with the shadow entry if it was a refault);
- reclaim contexts (kswapd or direct) drive :meth:`reclaim`, a
  *generator* so the policy can charge scan costs (``yield Compute``)
  and block on writeback (``yield from system.evict_page(page)``);
- at eviction the system asks :meth:`make_shadow` for the snapshot to
  store with the swap slot.

Policies must tolerate concurrent reclaim generators (kswapd plus any
number of direct reclaimers): detach a candidate from shared lists
*before* yielding.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, List, Optional, Sequence, TYPE_CHECKING

from repro.mm.swap_cache import ShadowEntry
from repro.trace import tracepoints as _tp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.mm.page import Page
    from repro.mm.page_table import PTEFlatState
    from repro.mm.system import MemorySystem


class ReplacementPolicy(abc.ABC):
    """Base class for all replacement policies."""

    #: Registry name; also used in reports.
    name: str = "policy"

    def __init__(self) -> None:
        self.system: Optional["MemorySystem"] = None
        #: Disambiguator appended to this instance's named RNG stream
        #: paths when several instances of one policy share a trial
        #: (per-cgroup lruvecs).  ``None`` — the default, and always the
        #: single-instance case — keeps the historical unscoped paths,
        #: so existing trials replay their draws exactly.
        self.rng_scope: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, system: "MemorySystem") -> None:
        """Attach the policy to its memory system (called once)."""
        self.system = system

    def spawn_daemons(self) -> None:
        """Spawn policy threads (e.g. the MG-LRU aging walker).

        Called by the system after binding; default: no daemons.
        """

    # ------------------------------------------------------------------
    # Hot-path notifications
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def on_page_inserted(
        self, page: "Page", shadow: Optional[ShadowEntry]
    ) -> None:
        """A page became resident (first touch or swap-in refault)."""

    def on_batch_access(
        self, flat: "PTEFlatState", idx: "Any", write: bool
    ) -> None:
        """A run of *resident* pages (flat indices *idx*, VPN order) was
        accessed by the vectorized fast path.

        Must be equivalent to setting ``page.accessed = True`` (and
        ``page.dirty`` on writes) for each page in order.  The default
        loops over the pages; policies whose access bookkeeping is just
        the PTE bits override with plain numpy writes.

        Two fast paths feed this hook: the single-process resident-run
        path (``REPRO_FAST_ACCESS``) and the fleet serving loop's window
        runs (``run_fleet_trial(fast_fleet=True)``, the default), where
        it arrives via :class:`~repro.memcg.policy.MemcgPolicy` with the
        index and item pages of the rest of a tenant's draw window —
        *idx* may then repeat indices within one call (many keys, one
        hot page), which is indistinguishable from repeated scalar
        accesses for PTE-bit bookkeeping and must stay so for any
        override.
        """
        for page in flat.pages[idx]:
            page.accessed = True
            if write:
                page.dirty = True

    @abc.abstractmethod
    def make_shadow(self, page: "Page") -> ShadowEntry:
        """Snapshot policy state for *page* at eviction time."""

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        """Generator: try to evict up to ``nr_pages``; returns the count
        actually reclaimed.

        ``direct`` distinguishes allocation-stall reclaim from kswapd;
        policies may use it for stats or budgets.
        """

    # ------------------------------------------------------------------
    # Eviction-triage helpers (the reclaim fast lane)
    # ------------------------------------------------------------------
    #
    # Scanning policies pop candidates in *triage blocks*: one bulk rmap
    # charge (a single ``Compute`` per block — the same coalescing the
    # MG-LRU aging walker applies to its scan costs) followed by one
    # snapshot of every candidate's accessed bit at the same instant.
    # Blocks are often a single page (memcg reclaim apportions a round
    # over many lruvecs), so both helpers work on Python lists: at every
    # block size that beats a numpy round trip.

    def _walk_block_ns(self, n: int) -> int:
        """Total cost of the next *n* reverse-map walks (one per
        candidate in a triage block), charged as a single Compute."""
        system = self.system
        assert system is not None
        costs = system.rmap.walk_costs_ns(n)
        if _tp.rmap_walk_block is not None:
            _tp.rmap_walk_block(costs)
        return sum(costs)

    def _snapshot_accessed(self, block: Sequence["Page"]) -> List[bool]:
        """Accessed bits of every page in *block*, read at one instant
        through the flat PTE mirror (built here if it is stale)."""
        system = self.system
        assert system is not None
        acc = system.address_space.page_table.flat_view().accessed
        return [bool(acc[p._flat_idx]) for p in block]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        """Pages currently tracked as resident by the policy."""
        return 0

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name
