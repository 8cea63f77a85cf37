"""FIFO eviction: the baseline the paper's YCSB discussion points at.

§V-B notes that LRU approximations are known to be suboptimal for
Zipfian key-value workloads, citing cache systems that use FIFO variants
[17], [29], [30].  This policy lets the extension benchmarks test that
claim inside our simulator: pages are evicted strictly in arrival order
with *no accessed-bit scanning at all* — zero rmap walks, zero page
table scans.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.mm.intrusive_list import IntrusiveList
from repro.mm.page import Page
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.trace import tracepoints as _tp


class FIFOPolicy(ReplacementPolicy):
    """Strict first-in-first-out eviction."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self.queue = IntrusiveList("fifo")
        self._evict_clock = 0

    def on_page_inserted(self, page: Page, shadow: Optional[ShadowEntry]) -> None:
        self.queue.push_head(page)

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # FIFO never reads the accessed bit, but the PTE state must stay
        # identical to the scalar path (the dirty bit decides writeback).
        flat.accessed[idx] = True
        if write:
            flat.dirty[idx] = True

    def make_shadow(self, page: Page) -> ShadowEntry:
        self._evict_clock += 1
        assert self.system is not None
        return ShadowEntry(
            policy_clock=self._evict_clock,
            tier=0,
            evict_time_ns=self.system.engine.now,
        )

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        assert self.system is not None
        system = self.system
        reclaimed = 0
        attempts = 0
        while reclaimed < nr_pages and attempts < nr_pages * 4:
            want = min(nr_pages - reclaimed, nr_pages * 4 - attempts)
            block = []
            while len(block) < want:
                page = self.queue.pop_tail()
                if page is None:
                    break
                block.append(page)
            if not block:
                break
            attempts += len(block)
            if _tp.mm_vmscan_scan is not None:
                # FIFO never reads the accessed bit: no young flags.
                _tp.mm_vmscan_scan(block, None, 0)
            n_ok, aborted = yield from system.evict_pages(block)
            reclaimed += n_ok
            for page in aborted:
                # Re-accessed during writeback; FIFO still reinserts at
                # the head (it has no other signal).
                self.queue.push_head(page)
        return reclaimed

    def resident_count(self) -> int:
        return len(self.queue)
