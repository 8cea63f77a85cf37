"""Leaf-level page-table regions and linear scanning.

MG-LRU's aging walker scans page tables *linearly* instead of walking the
reverse map page-by-page (§III-B).  The unit of its Bloom-filter decision
is one leaf page-table page — 512 PTEs covering 2 MiB of virtual address
space on real x86-64.  We model that granularity with
:data:`~repro._units.PTES_PER_REGION` consecutive virtual pages per
:class:`PageTableRegion` (scaled to 64 so region counts stay meaningful
at simulated footprints; see ``repro/core/calibration.py``); the
:class:`PageTable` is the ordered list of regions the aging walker
iterates.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro._units import PTES_PER_REGION
from repro.errors import SimulationError
from repro.mm.page import Page
from repro.trace import tracepoints as _tp


class PTEFlatState:
    """Dense, vectorizable mirror of every mapped PTE's state.

    One entry per mapped page, in VPN order.  ``present``/``accessed``/
    ``dirty`` are the authoritative storage for the PTE bits once built
    (scalar reads and writes go through :class:`Page` properties into
    these arrays), which lets the access fast path test presence and set
    accessed/dirty bits for a whole run of pages with numpy operations.

    ``run_starts``/``run_lens``/``run_base`` describe the maximal runs
    of contiguous VPNs, so vpn→index translation is one ``searchsorted``
    per access batch instead of one dict lookup per page.
    """

    __slots__ = (
        "pages",
        "vpns",
        "present",
        "accessed",
        "dirty",
        "run_starts",
        "run_lens",
        "run_base",
        "_memo",
    )

    def __init__(
        self,
        pages: np.ndarray,
        vpns: np.ndarray,
        present: np.ndarray,
        accessed: np.ndarray,
        dirty: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
        run_base: np.ndarray,
    ) -> None:
        self.pages = pages
        self.vpns = vpns
        self.present = present
        self.accessed = accessed
        self.dirty = dirty
        self.run_starts = run_starts
        self.run_lens = run_lens
        self.run_base = run_base
        #: id(trace) → (weakref, indices): workloads replay the same
        #: trace arrays every iteration, so translation is memoized.  The
        #: weakref guards against id reuse after deallocation; traces
        #: must not be mutated in place (none are).
        self._memo: dict = {}

    def translate(self, vpns: np.ndarray) -> Optional[np.ndarray]:
        """Flat indices for *vpns*, or ``None`` if any VPN is unmapped.

        ``None`` sends the caller down the scalar slow path, which
        reproduces the exact prefix-processing and error semantics of a
        faulting lookup.
        """
        if vpns.size == 0:
            return vpns.astype(np.intp)
        key = id(vpns)
        hit = self._memo.get(key)
        if hit is not None and hit[0]() is vpns:
            return hit[1]
        run_starts = self.run_starts
        if run_starts.size == 0:
            return None
        pos = np.searchsorted(run_starts, vpns, side="right") - 1
        if pos.min() < 0:
            return None
        offs = vpns - run_starts[pos]
        if np.any(offs >= self.run_lens[pos]):
            return None
        idx = self.run_base[pos] + offs
        memo = self._memo
        if len(memo) > 256:
            # Evict one entry, not the whole memo: clearing everything
            # here forced every live trace array to be re-translated on
            # its next batch once >256 arrays were in play.  Prefer a
            # dead entry (its array was garbage-collected); otherwise
            # drop the oldest insertion (dict order).
            victim = None
            for k, (ref, _idx) in memo.items():
                if ref() is None:
                    victim = k
                    break
            if victim is None:
                victim = next(iter(memo))
            del memo[victim]
        memo[key] = (weakref.ref(vpns), idx)
        return idx


class PageTableRegion:
    """One leaf page-table region of ``PTES_PER_REGION`` PTEs.

    ``pages`` holds the mapped :class:`Page` objects; holes (never-mapped
    VPNs) simply do not appear, but still cost scan time, as the walker
    cannot know a PTE is empty without reading it.
    """

    __slots__ = ("index", "pages", "_by_offset", "_flat_cache")

    def __init__(self, index: int) -> None:
        #: Region number: covers VPNs [index*512, (index+1)*512).
        self.index = index
        self.pages: List[Page] = []
        self._by_offset: dict[int, Page] = {}
        self._flat_cache: Optional[tuple] = None

    def flat_indices(self, flat: "PTEFlatState") -> np.ndarray:
        """Flat-state indices of this region's pages, in ``pages`` order.

        Cached per flat build (the tuple's first element identifies the
        build); a remap invalidates by producing a new flat object.
        """
        cache = self._flat_cache
        if cache is not None and cache[0] is flat:
            return cache[1]
        idx = np.fromiter(
            (p._flat_idx for p in self.pages),
            dtype=np.intp,
            count=len(self.pages),
        )
        self._flat_cache = (flat, idx)
        return idx

    @property
    def start_vpn(self) -> int:
        """First VPN covered by this region."""
        return self.index * PTES_PER_REGION

    @property
    def n_ptes(self) -> int:
        """PTEs the walker must read to scan this region."""
        return PTES_PER_REGION

    def add(self, page: Page) -> None:
        """Map *page* into this region (done once, at VMA creation)."""
        offset = page.vpn - self.start_vpn
        if not 0 <= offset < PTES_PER_REGION:
            raise SimulationError(
                f"vpn {page.vpn} outside region {self.index}"
            )
        if offset in self._by_offset:
            raise SimulationError(f"vpn {page.vpn} mapped twice")
        self._by_offset[offset] = page
        self.pages.append(page)
        page.region = self

    def resident_pages(self) -> Iterator[Page]:
        """Mapped pages currently present in memory, VPN order."""
        return (p for p in self.pages if p.present)


class PageTable:
    """The full page table of one address space, as an ordered region list."""

    def __init__(self) -> None:
        self._regions: dict[int, PageTableRegion] = {}
        self._region_order: Optional[List[int]] = None
        self._pages: dict[int, Page] = {}
        self._flat: Optional[PTEFlatState] = None
        self._flat_stale = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def map_page(self, page: Page) -> None:
        """Install *page* into the table (VMA setup time)."""
        if page.vpn in self._pages:
            raise SimulationError(f"vpn {page.vpn} already mapped")
        index = page.vpn // PTES_PER_REGION
        region = self._regions.get(index)
        if region is None:
            region = PageTableRegion(index)
            self._regions[index] = region
            self._region_order = None
        region.add(page)
        self._pages[page.vpn] = page
        if self._flat is not None:
            self._flat_stale = True

    # ------------------------------------------------------------------
    # Flat PTE state (vectorized access path)
    # ------------------------------------------------------------------

    def flat_view(self) -> PTEFlatState:
        """The dense PTE-state mirror, (re)built lazily after mapping."""
        flat = self._flat
        if flat is not None and not self._flat_stale:
            return flat
        return self._build_flat()

    def _build_flat(self) -> PTEFlatState:
        page_list = sorted(self._pages.values(), key=lambda p: p.vpn)
        n = len(page_list)
        pages = np.empty(n, dtype=object)
        vpns = np.empty(n, dtype=np.int64)
        present = np.empty(n, dtype=bool)
        accessed = np.empty(n, dtype=bool)
        dirty = np.empty(n, dtype=bool)
        for i, page in enumerate(page_list):
            pages[i] = page
            vpns[i] = page.vpn
            # Read through the properties: values may live in a previous
            # flat build's arrays or still in the page attributes.
            present[i] = page.present
            accessed[i] = page.accessed
            dirty[i] = page.dirty
        if n:
            breaks = np.flatnonzero(np.diff(vpns) != 1)
            run_base = np.concatenate(([0], breaks + 1))
            run_starts = vpns[run_base]
            run_lens = np.diff(np.concatenate((run_base, [n])))
        else:
            run_base = np.empty(0, dtype=np.int64)
            run_starts = np.empty(0, dtype=np.int64)
            run_lens = np.empty(0, dtype=np.int64)
        flat = PTEFlatState(
            pages, vpns, present, accessed, dirty,
            run_starts, run_lens, run_base,
        )
        for i, page in enumerate(page_list):
            page._flat = flat
            page._flat_idx = i
        self._flat = flat
        self._flat_stale = False
        if _tp.mm_pte_flat_rebuild is not None:
            _tp.mm_pte_flat_rebuild(n, int(run_base.shape[0]))
        return flat

    def release(self) -> None:
        """Empty the flat view's ``pages`` array at teardown.

        A numpy object array exposes no referents to the cyclic GC, so
        each page's ``_flat`` back-pointer closes a cycle the collector
        cannot see: every page, and all a page reaches (its memcg, the
        policy, the system), would outlive the trial.  The array is
        emptied in place because a thread stopped mid-run by an error
        may still hold it in a local.  The PTE bit arrays stay, so a
        later :meth:`flat_view` rebuilds the view.
        """
        flat = self._flat
        if flat is not None:
            flat.pages.fill(None)
            self._flat = None
        # Earlier builds are reachable only through the region caches.
        for region in self._regions.values():
            region._flat_cache = None

    # ------------------------------------------------------------------
    # Lookup and iteration
    # ------------------------------------------------------------------

    def lookup(self, vpn: int) -> Page:
        """The page mapped at *vpn* (raises if the VPN was never mapped)."""
        try:
            return self._pages[vpn]
        except KeyError:
            raise SimulationError(f"access to unmapped vpn {vpn}") from None

    def lookup_many(self, vpns: Sequence[int]) -> List[Page]:
        """The pages mapped at *vpns*, in order (raises like
        :meth:`lookup` if any VPN was never mapped)."""
        if isinstance(vpns, np.ndarray):
            # Plain ints hash ~2x faster than numpy scalars.
            vpns = vpns.tolist()
        try:
            return list(map(self._pages.__getitem__, vpns))
        except KeyError as exc:
            raise SimulationError(
                f"access to unmapped vpn {exc.args[0]}"
            ) from None

    def get(self, vpn: int) -> Optional[Page]:
        """Like :meth:`lookup` but returns ``None`` for unmapped VPNs."""
        return self._pages.get(vpn)

    @property
    def n_pages(self) -> int:
        """Total mapped virtual pages."""
        return len(self._pages)

    @property
    def n_regions(self) -> int:
        """Number of leaf page-table regions in use."""
        return len(self._regions)

    def _ordered_indices(self) -> List[int]:
        """Region indices in address order, cached between mappings."""
        order = self._region_order
        if order is None:
            order = sorted(self._regions)
            self._region_order = order
        return order

    def regions(self) -> List[PageTableRegion]:
        """Regions in address order — the aging walker's scan order."""
        regions = self._regions
        return [regions[i] for i in self._ordered_indices()]

    def regions_in_range(
        self, lo_vpn: int, hi_vpn: int
    ) -> List[PageTableRegion]:
        """Regions whose ``start_vpn`` lies in ``[lo_vpn, hi_vpn)``, in
        address order.

        Bisects the cached region order instead of filtering every
        region — the membership test is exactly
        ``lo_vpn <= region.start_vpn < hi_vpn``, so per-cgroup region
        lists (one range query per VMA span) match the full-scan filter
        element for element.
        """
        if hi_vpn <= lo_vpn:
            return []
        order = self._ordered_indices()
        first = -(-lo_vpn // PTES_PER_REGION)  # ceil
        last = (hi_vpn - 1) // PTES_PER_REGION
        lo_i = bisect_left(order, first)
        hi_i = bisect_right(order, last)
        regions = self._regions
        return [regions[i] for i in order[lo_i:hi_i]]

    def pages(self) -> Iterator[Page]:
        """All mapped pages, in VPN order.

        Diagnostic path: region page lists keep insertion order (the
        scan hot paths do not care), so sort per region here.
        """
        for region in self.regions():
            yield from sorted(region.pages, key=lambda p: p.vpn)
