"""Random eviction: the §VI-C "use of randomness" discussion baseline.

The paper observes that *Scan-Rand* — randomized page-table scanning —
performs surprisingly well, and asks whether principled randomness
deserves a place in replacement policies.  This policy is the extreme
point of that axis: victims are chosen uniformly at random among
resident pages, with no access tracking whatsoever.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.mm.page import Page
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.trace import tracepoints as _tp


class RandomPolicy(ReplacementPolicy):
    """Uniform-random eviction (swap-remove array for O(1) picks)."""

    name = "random"

    def __init__(self) -> None:
        super().__init__()
        self._pages: List[Page] = []
        self._index: dict[int, int] = {}  # vpn -> position in _pages
        self._evict_clock = 0
        self._rng = None

    def bind(self, system) -> None:
        super().bind(system)
        if self.rng_scope is None:
            self._rng = system.rng.stream("policy", "random")
        else:
            # Per-cgroup instance: a scoped stream keeps sibling
            # lruvecs' victim picks statistically independent.
            self._rng = system.rng.stream(
                "policy", "random", self.rng_scope
            )

    def on_page_inserted(self, page: Page, shadow: Optional[ShadowEntry]) -> None:
        if page.vpn in self._index:
            return
        self._index[page.vpn] = len(self._pages)
        self._pages.append(page)

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # Random tracks no access order; batched hits only need the PTE
        # bit stores (re-access-during-writeback detection reads them).
        flat.accessed[idx] = True
        if write:
            flat.dirty[idx] = True

    def _remove(self, page: Page) -> None:
        pos = self._index.pop(page.vpn)
        last = self._pages.pop()
        if last is not page:
            self._pages[pos] = last
            self._index[last.vpn] = pos

    def make_shadow(self, page: Page) -> ShadowEntry:
        self._evict_clock += 1
        assert self.system is not None
        return ShadowEntry(
            policy_clock=self._evict_clock,
            tier=0,
            evict_time_ns=self.system.engine.now,
        )

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        assert self.system is not None and self._rng is not None
        system = self.system
        reclaimed = 0
        attempts = 0
        while reclaimed < nr_pages and attempts < nr_pages * 4:
            want = min(nr_pages - reclaimed, nr_pages * 4 - attempts)
            # Draw the whole block before yielding: the picks consume
            # the dedicated policy stream in the same order either way,
            # and each pick sees the array as the previous picks left it.
            block = []
            while len(block) < want and self._pages:
                pick = int(self._rng.integers(0, len(self._pages)))
                page = self._pages[pick]
                self._remove(page)
                block.append(page)
            if not block:
                break
            attempts += len(block)
            if _tp.mm_vmscan_scan is not None:
                # Random victims are never access-checked before I/O.
                _tp.mm_vmscan_scan(block, None, 0)
            n_ok, aborted = yield from system.evict_pages(block)
            reclaimed += n_ok
            for page in aborted:
                self.on_page_inserted(page, None)
        return reclaimed

    def resident_count(self) -> int:
        return len(self._pages)
