"""Address spaces and virtual memory areas (VMAs).

A workload declares its memory layout up front as a set of named VMAs
(heap, graph CSR arrays, hash-table slabs, ...), each a contiguous VPN
range of one :class:`~repro.mm.page.PageKind` with a compressibility
(entropy) model.  The address space creates the :class:`Page` objects and
installs them into the page table; the fault handler then works purely in
terms of pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro._units import PTES_PER_REGION
from repro.errors import WorkloadError
from repro.mm.page import Page, PageKind
from repro.mm.page_table import PageTable

#: Maximum ASLR gap between areas, in page-table regions.
ASLR_MAX_GAP_REGIONS = 64


@dataclass(frozen=True)
class VMArea:
    """A contiguous mapped range of virtual pages."""

    name: str
    start_vpn: int
    n_pages: int
    kind: PageKind
    #: Compressibility proxy for the ZRAM size model (0 → all zeros,
    #: 1 → incompressible).
    entropy: float = 0.45

    @property
    def end_vpn(self) -> int:
        """One past the last VPN of the area."""
        return self.start_vpn + self.n_pages

    def __post_init__(self) -> None:
        if self.n_pages <= 0:
            raise WorkloadError(f"VMA {self.name!r} has no pages")
        if not 0.0 <= self.entropy <= 1.0:
            raise WorkloadError(f"VMA {self.name!r} entropy out of [0, 1]")


class AddressSpace:
    """One process's virtual address space: VMAs plus the page table.

    When an ``aslr_rng`` is supplied, each area is placed after a random
    gap of up to :data:`ASLR_MAX_GAP_REGIONS` page-table regions —
    modelling mmap address randomization across reboots.  The gaps are
    never mapped (they cost nothing to scan) but they shift region
    indices, so Bloom-filter hashing and region-granular scan decisions
    differ run to run exactly as they do across real reboots.
    """

    def __init__(self, name: str = "proc", aslr_rng=None) -> None:
        self.name = name
        self.page_table = PageTable()
        self._vmas: Dict[str, VMArea] = {}
        self._next_free_vpn = 0
        self._aslr_rng = aslr_rng

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def map_area(
        self,
        name: str,
        n_pages: int,
        kind: PageKind = PageKind.ANON,
        entropy: float = 0.45,
        align_region: bool = True,
        memcg=None,
    ) -> VMArea:
        """Create a VMA of ``n_pages`` and install its pages.

        Areas are laid out consecutively in VPN space; with
        ``align_region`` (default) each area starts on a leaf page-table
        region boundary, as allocators align large mappings in practice —
        this also makes the bloom-filter region granularity meaningful
        per area.

        ``memcg``: optional :class:`~repro.memcg.cgroup.MemCgroup` that
        owns the area — every page is tagged at map time, so the fault
        path charges the right ledger from the first touch.  Region
        alignment then also guarantees a leaf page-table region never
        spans two cgroups, which is what lets per-cgroup MG-LRU walkers
        scan only their own regions.
        """
        if name in self._vmas:
            raise WorkloadError(f"VMA {name!r} already mapped")
        start = self._next_free_vpn
        if self._aslr_rng is not None:
            start += PTES_PER_REGION * int(
                self._aslr_rng.integers(0, ASLR_MAX_GAP_REGIONS + 1)
            )
        if align_region and start % PTES_PER_REGION:
            start += PTES_PER_REGION - (start % PTES_PER_REGION)
        vma = VMArea(name, start, n_pages, kind, entropy)
        for vpn in range(start, start + n_pages):
            page = Page(vpn, kind=kind, entropy=entropy)
            page.memcg = memcg
            self.page_table.map_page(page)
        self._vmas[name] = vma
        self._next_free_vpn = vma.end_vpn
        if memcg is not None:
            memcg.adopt_area(vma, self, tag_pages=False)
        return vma

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def vmas(self) -> List[VMArea]:
        """All areas, in creation order."""
        return list(self._vmas.values())

    def vma(self, name: str) -> VMArea:
        """Look up an area by name."""
        try:
            return self._vmas[name]
        except KeyError:
            raise WorkloadError(f"no VMA named {name!r}") from None

    @property
    def footprint_pages(self) -> int:
        """Total mapped pages across all areas."""
        return sum(v.n_pages for v in self._vmas.values())
