"""Clock-LRU: the kernel's classic two-list second-chance policy (§II-B).

Two intrusive lists approximate LRU:

- the **active list** should hold the working set;
- the **inactive list** holds eviction candidates.

Pages enter on the inactive list.  At reclaim time the tail of the
inactive list is scanned: each check is a *reverse-map walk* (the
physical-to-virtual translation the paper calls out as expensive,
§III-B); an accessed page gets its second chance — promotion to the
active head — and a cold page is evicted.  When the inactive list runs
low, the active tail is scanned (again via rmap): accessed pages rotate
to the active head, idle ones are demoted.

Refault activation follows the kernel's workingset heuristic: a page
that refaults within "resident set" distance of its eviction is put
straight on the active list.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.metrics import hooks as _mx
from repro.mm.intrusive_list import IntrusiveList
from repro.mm.page import Page
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.sim.events import Compute
from repro.trace import tracepoints as _tp

#: Scan at most this many pages per reclaim invocation before giving up;
#: prevents livelock when every page has its accessed bit set.
SCAN_BUDGET_PER_RECLAIM = 256
#: Inactive-tail pages triaged per eviction block (one rmap charge and
#: one accessed-bit snapshot per block).
RECLAIM_BATCH = 32
#: Active-list pages examined per refill round.
REFILL_BATCH = 32


class ClockLRUPolicy(ReplacementPolicy):
    """Second-chance Clock over active/inactive lists."""

    name = "clock"

    def __init__(self, inactive_ratio: float = 1 / 3) -> None:
        """``inactive_ratio``: the fraction of resident pages the policy
        tries to keep on the inactive list (kernel default ballpark)."""
        super().__init__()
        self.inactive_ratio = inactive_ratio
        self.active = IntrusiveList("active")
        self.inactive = IntrusiveList("inactive")
        #: Monotone eviction counter: the policy clock stored in shadows.
        self._evict_clock = 0

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def on_page_inserted(self, page: Page, shadow: Optional[ShadowEntry]) -> None:
        if shadow is not None and self._refault_within_workingset(shadow):
            page.active = True
            self.active.push_head(page)
        else:
            page.active = False
            self.inactive.push_head(page)

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # Clock's access bookkeeping is exactly the hardware PTE bits
        # (list moves happen at scan time, not access time), so a batch
        # hit is two fancy-indexed stores.
        flat.accessed[idx] = True
        if write:
            flat.dirty[idx] = True

    def _refault_within_workingset(self, shadow: ShadowEntry) -> bool:
        """Kernel workingset test: refault distance vs. resident set."""
        distance = self._evict_clock - shadow.policy_clock
        return distance <= len(self.active) + len(self.inactive)

    def make_shadow(self, page: Page) -> ShadowEntry:
        self._evict_clock += 1
        assert self.system is not None
        return ShadowEntry(
            policy_clock=self._evict_clock,
            tier=0,
            evict_time_ns=self.system.engine.now,
        )

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        assert self.system is not None
        system = self.system
        reclaimed = 0
        scanned = 0
        tp_scan = _tp.mm_vmscan_scan
        while reclaimed < nr_pages and scanned < SCAN_BUDGET_PER_RECLAIM:
            if self._inactive_is_low():
                yield from self._refill_inactive()
            want = min(
                RECLAIM_BATCH,
                nr_pages - reclaimed,
                SCAN_BUDGET_PER_RECLAIM - scanned,
            )
            block = self._pop_inactive_block(want)
            if not block:
                yield from self._refill_inactive()
                block = self._pop_inactive_block(want)
                if not block:
                    break
            scanned += len(block)
            # Triage the whole block: one rmap charge and one
            # accessed-bit snapshot instead of a walk per page.
            yield Compute(self._walk_block_ns(len(block)))
            flags = self._snapshot_accessed(block)
            if _mx.reclaim_scan is not None:
                _mx.reclaim_scan(len(block), sum(flags))
            cold = []
            for page, young in zip(block, flags):
                if tp_scan is not None:
                    tp_scan(page.vpn, int(young), 0)
                if young:
                    # Second chance: promote to the active list.
                    page.accessed = False
                    page.active = True
                    self.active.push_head(page)
                    system.stats.promotions += 1
                else:
                    cold.append(page)
            if cold:
                n_ok, aborted = yield from system.evict_pages(
                    cold, recheck_accessed=True
                )
                reclaimed += n_ok
                for page in aborted:
                    # Re-accessed during writeback; treat like a second
                    # chance.
                    page.active = True
                    self.active.push_head(page)
        return reclaimed

    def _pop_inactive_block(self, want: int) -> list:
        block = []
        pop = self.inactive.pop_tail
        while len(block) < want:
            page = pop()
            if page is None:
                break
            block.append(page)
        return block

    def _inactive_is_low(self) -> bool:
        total = len(self.active) + len(self.inactive)
        return len(self.inactive) < total * self.inactive_ratio

    def _refill_inactive(self) -> Iterator[Any]:
        """Scan the active tail, rotating hot pages and demoting idle ones."""
        assert self.system is not None
        system = self.system
        system.stats.policy_ticks += 1
        block = []
        pop = self.active.pop_tail
        while len(block) < REFILL_BATCH:
            page = pop()
            if page is None:
                break
            block.append(page)
        if not block:
            return
        yield Compute(self._walk_block_ns(len(block)))
        flags = self._snapshot_accessed(block)
        if _mx.reclaim_scan is not None:
            _mx.reclaim_scan(len(block), sum(flags))
        tp_scan = _tp.mm_vmscan_scan
        for page, young in zip(block, flags):
            if tp_scan is not None:
                tp_scan(page.vpn, int(young), 1)
            if young:
                page.accessed = False
                self.active.push_head(page)  # rotate the clock hand
            else:
                page.active = False
                self.inactive.push_head(page)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        return len(self.active) + len(self.inactive)

    def describe(self) -> str:
        return (
            f"clock(active={len(self.active)}, inactive={len(self.inactive)})"
        )
