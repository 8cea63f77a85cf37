"""Belady's OPT: the offline lower bound, plus an online surrogate.

True OPT needs the future, so it cannot implement the online
:class:`~repro.policies.base.ReplacementPolicy` interface; the
*offline* helpers here (:func:`belady_misses`, :func:`lru_misses`)
evaluate recorded access traces.  The extension benchmark
``bench_baseline_policies`` records each workload's page-touch trace and
reports how far every online policy's fault count sits above the OPT
bound.

The offline implementation is the standard next-use priority scheme:
precompute, for each position, when the touched page is used next; keep
resident pages in a max-heap keyed by next use; evict the page used
farthest in the future.  Stale heap entries are skipped lazily, giving
O(n log n) overall.

:class:`OPTPolicy` is the *online* counterpart: a full simulator policy
that applies Belady's farthest-next-use rule to per-page reuse
*predictions* instead of the true future:

- every fault records the page's inter-fault interval and folds it into
  a per-VPN EWMA (integer halving, deterministic);
- a page's next use is predicted as ``fault instant + ewma`` (pages
  with no reuse history get a long default horizon, making them
  preferred victims over pages with demonstrated reuse);
- eviction takes the page with the farthest predicted next use via a
  lazy max-heap with version invalidation;
- a candidate found with its accessed bit set gets a second chance:
  its prediction is refreshed and it is pushed back.

Reclaim uses the same triage-block fast lane as Clock and MG-LRU (one
bulk rmap charge and one accessed-bit snapshot per block, batched
eviction with the kernel-style writeback re-check), and access
bookkeeping is exactly the hardware PTE bits, so the batched access
path is two fancy-indexed stores.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.mm.page import Page
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.sim.events import Compute
from repro.trace import tracepoints as _tp

#: Sentinel "never used again" distance.
_INFINITY = np.iinfo(np.int64).max


def next_use_positions(trace: Sequence[int]) -> np.ndarray:
    """For each index i, the next index j > i with trace[j] == trace[i]
    (or a large sentinel if the page is never touched again)."""
    n = len(trace)
    next_use = np.full(n, _INFINITY, dtype=np.int64)
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        vpn = trace[i]
        nxt = last_seen.get(vpn)
        if nxt is not None:
            next_use[i] = nxt
        last_seen[vpn] = i
    return next_use


def belady_misses(trace: Sequence[int], capacity: int) -> int:
    """Fault count of Belady's OPT on *trace* with *capacity* frames.

    Counts cold (first-touch) misses too, mirroring how the simulator
    counts total faults.
    """
    if capacity < 1:
        raise ConfigError("capacity must be >= 1")
    trace = list(trace)
    next_use = next_use_positions(trace)
    resident_next: Dict[int, int] = {}  # vpn -> its next-use position
    heap: List[tuple[int, int]] = []  # (-next_use, vpn): farthest on top
    misses = 0
    for i, vpn in enumerate(trace):
        nxt = int(next_use[i])
        if vpn in resident_next:
            resident_next[vpn] = nxt
            heapq.heappush(heap, (-nxt, vpn))
            continue
        misses += 1
        if len(resident_next) >= capacity:
            # Evict the resident page with the farthest genuine next use.
            while True:
                neg_next, victim = heapq.heappop(heap)
                if resident_next.get(victim) == -neg_next:
                    del resident_next[victim]
                    break
        resident_next[vpn] = nxt
        heapq.heappush(heap, (-nxt, vpn))
    return misses


def lru_misses(trace: Sequence[int], capacity: int) -> int:
    """Fault count of *true* LRU (not an approximation) on *trace*.

    Useful as the idealized target both Clock and MG-LRU approximate;
    the gap between this and OPT bounds what any LRU-family policy can
    achieve on a trace.
    """
    if capacity < 1:
        raise ConfigError("capacity must be >= 1")
    from collections import OrderedDict

    resident: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    for vpn in trace:
        if vpn in resident:
            resident.move_to_end(vpn)
            continue
        misses += 1
        if len(resident) >= capacity:
            resident.popitem(last=False)
        resident[vpn] = None
    return misses


# ----------------------------------------------------------------------
# Online OPT surrogate
# ----------------------------------------------------------------------

#: Scan at most this many pages per reclaim invocation before giving up.
SCAN_BUDGET_PER_RECLAIM = 256
#: Candidates triaged per eviction block (one rmap charge and one
#: accessed-bit snapshot per block).
RECLAIM_BATCH = 32
#: Predicted-reuse horizon for pages with no reuse history: long enough
#: that never-refaulted pages lose to pages with demonstrated reuse.
DEFAULT_REUSE_NS = 50_000_000
#: ``mm_vmscan_scan`` lru-kind tag for OPT candidate scans.
SCAN_LRU_KIND = 3


class OPTPolicy(ReplacementPolicy):
    """Online Belady surrogate: evict the farthest *predicted* next use.

    Per-VPN reuse predictions come from an integer EWMA of inter-fault
    intervals (see the module docstring); candidates live in a lazy
    max-heap keyed by predicted next use, invalidated by per-VPN version
    counters so detach/re-push never has to search the heap.
    """

    name = "opt"

    def __init__(self, default_reuse_ns: int = DEFAULT_REUSE_NS) -> None:
        super().__init__()
        if default_reuse_ns < 1:
            raise ConfigError("default_reuse_ns must be >= 1")
        self.default_reuse_ns = default_reuse_ns
        #: Lazy max-heap of ``(-predicted_next_use, seq, version, page)``.
        self._heap: List[Tuple[int, int, int, Page]] = []
        self._seq = 0
        #: Per-VPN entry generation; a heap entry is live iff it carries
        #: the VPN's current generation.  Detach and re-push both bump
        #: the generation, invalidating older entries lazily.
        self._version: Dict[int, int] = {}
        #: Integer EWMA of each VPN's inter-fault interval (ns).
        self._ewma: Dict[int, int] = {}
        #: Instant of each VPN's most recent fault (ns).
        self._last_fault: Dict[int, int] = {}
        self._n_resident = 0
        #: Monotone eviction counter stored in shadows.
        self._evict_clock = 0

    # ------------------------------------------------------------------
    # Prediction bookkeeping
    # ------------------------------------------------------------------

    def _predict(self, vpn: int, now: int) -> int:
        """Predicted next-use instant for *vpn* as of *now*."""
        ewma = self._ewma.get(vpn)
        return now + (self.default_reuse_ns if ewma is None else ewma)

    def _push(self, page: Page, predicted: int) -> None:
        """(Re)insert *page* as a live candidate keyed by *predicted*."""
        vpn = page.vpn
        version = self._version.get(vpn, 0) + 1
        self._version[vpn] = version
        self._seq += 1
        heapq.heappush(self._heap, (-predicted, self._seq, version, page))

    def _pop_candidate(self) -> Optional[Page]:
        """Detach and return the farthest-predicted live candidate.

        Stale heap entries (superseded by a re-push or already detached)
        are discarded lazily.  The returned page is detached *before*
        the caller yields, so concurrent reclaimers never triage the
        same page twice.
        """
        heap = self._heap
        while heap:
            _, _, version, page = heapq.heappop(heap)
            vpn = page.vpn
            if version != self._version.get(vpn):
                continue  # stale entry
            self._version[vpn] = version + 1  # detach
            return page
        return None

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def on_page_inserted(self, page: Page, shadow: Optional[ShadowEntry]) -> None:
        assert self.system is not None
        now = self.system.engine.now
        vpn = page.vpn
        last = self._last_fault.get(vpn)
        if last is not None:
            interval = now - last
            prev = self._ewma.get(vpn)
            self._ewma[vpn] = (
                interval if prev is None else (prev + interval) >> 1
            )
        self._last_fault[vpn] = now
        self._n_resident += 1
        self._push(page, self._predict(vpn, now))

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # OPT's access bookkeeping is exactly the hardware PTE bits
        # (predictions update at fault time, not access time), so a
        # batch hit is two fancy-indexed stores.
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

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        assert self.system is not None
        system = self.system
        reclaimed = 0
        scanned = 0
        while reclaimed < nr_pages and scanned < SCAN_BUDGET_PER_RECLAIM:
            want = min(
                RECLAIM_BATCH,
                nr_pages - reclaimed,
                SCAN_BUDGET_PER_RECLAIM - scanned,
            )
            block = []
            while len(block) < want:
                page = self._pop_candidate()
                if page is None:
                    break
                block.append(page)
            if not block:
                break
            scanned += len(block)
            # Triage the whole block: one rmap charge and one
            # accessed-bit snapshot instead of a walk per page.
            yield Compute(self._walk_block_ns(len(block)))
            flags = self._snapshot_accessed(block)
            if _tp.mm_vmscan_scan is not None:
                _tp.mm_vmscan_scan(block, flags, SCAN_LRU_KIND)
            cold = []
            for page, young in zip(block, flags):
                if young:
                    # Second chance: the prediction undershot — refresh
                    # it from now and re-queue.
                    page.accessed = False
                    self._push(page, self._predict(page.vpn, system.engine.now))
                    system.stats.promotions += 1
                else:
                    cold.append(page)
            if cold:
                n_ok, aborted = yield from system.evict_pages(
                    cold, recheck_accessed=True
                )
                reclaimed += n_ok
                self._n_resident -= n_ok
                for page in aborted:
                    # Re-accessed during writeback; second chance.
                    self._push(
                        page, self._predict(page.vpn, system.engine.now)
                    )
        return reclaimed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        return self._n_resident

    def describe(self) -> str:
        return (
            f"opt(resident={self._n_resident}, "
            f"heap={len(self._heap)}, tracked={len(self._ewma)})"
        )
