"""The MG-LRU policy: aging and eviction walkers over generations.

Mechanism summary (paper §III):

**Aging** (§III-B) runs in its own daemon thread and scans leaf
page-table regions *linearly* — cheap per PTE, no reverse-map walks.
Which regions get scanned depends on the configuration:

- stock MG-LRU consults the Bloom filter populated by the previous walk
  and by the eviction walker (regions that recently showed young PTEs),
  scanning everything only on the cold-start walk;
- *Scan-All* / *Scan-None* / *Scan-Rand* replace that decision per §V-B.

Accessed pages found by the walk are promoted to the youngest
generation and their accessed bits cleared.  A region with at least
``young_region_threshold`` young PTEs (one per cache line by default)
is added to the *next* filter.  After the walk, ``max_seq`` is
incremented — unless the generation cap is hit, the saturation §V-B
shows degrades recency resolution (the *Gen-14* preset removes it).

**Eviction** (§III-C) runs in reclaim contexts (kswapd/direct).  It pops
pages from the tail of the oldest generation; each candidate costs a
reverse-map walk.  An accessed candidate is promoted (anon → youngest;
file → one tier up) and — unlike Clock — the walker then scans the
*surrounding PTEs* of the candidate's page-table region, promoting its
accessed neighbours and feeding the region into the Bloom filter: the
aging↔eviction feedback loop.  Cold candidates are evicted, subject to
tier protection decided by the PID controller (§III-D).

The youngest two generations are protected from eviction (kernel
``MIN_NR_GENS``); when nothing older is left, the walker requests an
aging run.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.mm.page import Page, PageKind
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.policies.mglru.bloom import BloomFilter
from repro.policies.mglru.config import MGLRUParams, ScanMode
from repro.policies.mglru.generations import GenerationLists
from repro.policies.mglru.tiers import TierTracker, tier_of
from repro.sim.events import Compute, WaitWaker, Waker
from repro.trace import tracepoints as _tp

#: Candidates examined per reclaim invocation before giving up
#: (livelock guard when every candidate is hot).
SCAN_BUDGET_PER_RECLAIM = 256
#: Candidates triaged per eviction block (one rmap charge and one
#: accessed-bit snapshot per block).
RECLAIM_BATCH = 32
#: Generations the eviction walker must leave untouched (MIN_NR_GENS).
MIN_NR_GENS = 2


class MGLRUPolicy(ReplacementPolicy):
    """Multi-Generational LRU."""

    name = "mglru"

    def __init__(self, params: Optional[MGLRUParams] = None) -> None:
        super().__init__()
        self.params = params or MGLRUParams.default()
        self.gens = GenerationLists(self.params.max_nr_gens)
        self.tiers = TierTracker(
            self.params.n_tiers,
            kp=self.params.pid_kp,
            ki=self.params.pid_ki,
            kd=self.params.pid_kd,
        )
        #: Filter consulted by the current walk (written by the previous
        #: walk and by the eviction walker).
        self._bloom_cur = BloomFilter(self.params.bloom_bits, self.params.bloom_hashes)
        #: Filter being populated for the next walk.
        self._bloom_next = BloomFilter(self.params.bloom_bits, self.params.bloom_hashes)
        self._first_walk_done = False
        self._aging_requested = False
        self._aging_in_progress = False
        self._aging_waker = Waker("mglru-aging")
        #: Anchor of the aging-tick grid (time of the last tick or walk
        #: completion); ticks conceptually fire at anchor + k*interval.
        self._tick_anchor = 0
        #: True while a tick event is scheduled.
        self._tick_armed = False
        self._evictions_at_last_walk = 0
        self._scan_rng = None
        #: Callable returning the leaf regions this instance's aging
        #: walker may scan.  ``None`` (single-lruvec trials) means the
        #: whole page table; a per-cgroup instance gets its cgroup's
        #: regions so aging never promotes a neighbour tenant's pages
        #: into foreign generation lists.
        self.regions_provider = None
        self.name = {
            ScanMode.BLOOM: "mglru",
            ScanMode.ALL: "mglru-scan-all",
            ScanMode.NONE: "mglru-scan-none",
            ScanMode.RAND: "mglru-scan-rand",
        }[self.params.scan_mode]
        if self.params.scan_mode is ScanMode.BLOOM and self.params.max_nr_gens >= 2**14:
            self.name = "mglru-gen14"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, system) -> None:
        super().bind(system)
        if self.rng_scope is None:
            self._scan_rng = system.rng.stream("policy", "mglru", "scan")
        else:
            # Per-cgroup instance: scope the scan-rand stream so sibling
            # lruvecs' region decisions are independent.
            self._scan_rng = system.rng.stream(
                "policy", "mglru", "scan", self.rng_scope
            )

    def spawn_daemons(self) -> None:
        assert self.system is not None
        self.system.spawn_daemon(self._aging_daemon(), name="mglru-aging")
        self._tick_anchor = self.system.engine.now

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def on_page_inserted(self, page: Page, shadow: Optional[ShadowEntry]) -> None:
        if page.kind is PageKind.FILE:
            # File pages are not promoted straight to the youngest
            # generation (§III-D): they start in the oldest generation,
            # carrying a tier derived from their refault history.
            if shadow is not None:
                self.tiers.record_refault(shadow.tier)
            page.tier = tier_of(page.refault_count, self.params.n_tiers)
            self.gens.insert(page, self.gens.min_seq)
        else:
            # Anonymous demand faults are hot by definition: youngest.
            page.tier = 0
            self.gens.insert(page, self.gens.max_seq)

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # MG-LRU defers all ordering work to the walkers; an access only
        # sets PTE bits, so the batched form is two fancy-indexed stores.
        flat.accessed[idx] = True
        if write:
            flat.dirty[idx] = True

    def make_shadow(self, page: Page) -> ShadowEntry:
        assert self.system is not None
        self.tiers.record_eviction(page.tier)
        return ShadowEntry(
            policy_clock=self.gens.min_seq,
            tier=page.tier,
            evict_time_ns=self.system.engine._now,
        )

    # ------------------------------------------------------------------
    # Aging walker
    # ------------------------------------------------------------------

    def request_aging(self) -> None:
        """Ask the aging daemon to walk at the next interval boundary.

        Aging is demand-driven, as in the kernel: a walk runs when
        eviction has exhausted the evictable generations (reclaim sets
        the request flag or runs the walk inline itself).  Pacing walks
        faster than generation drain — e.g. periodically — clears
        accessed bits more often than hot pages are re-touched and
        collapses the recency signal generations exist to preserve; we
        verified empirically that an eagerly paced walker makes MG-LRU
        evict a small hot set *more* readily than the stream around it
        (correlated mass evictions).

        The interval grid therefore still throttles walk starts, but
        the tick event is armed lazily — only when a request is
        pending.  An idle trial schedules no tick events at all, where
        a periodic poll costs one heap event per interval (tens of
        thousands per trial).  The serviced instants are the grid
        instants the periodic tick would have fired at: the first
        boundary strictly after the request, with the grid re-anchored
        one interval after each walk completes (exactly where the old
        poll re-armed).
        """
        self._aging_requested = True
        if self._tick_armed or self._aging_in_progress:
            # A tick will see the flag, or the walk's completion hook
            # re-arms for requests that arrived while it ran.
            return
        self._arm_tick()

    def _arm_tick(self) -> None:
        """Schedule the tick at the first grid instant strictly after
        now (a request landing exactly on a boundary is serviced at the
        next one, as the polled tick's earlier queue seq implied)."""
        assert self.system is not None
        engine = self.system.engine
        interval = self.params.aging_interval_ns
        elapsed = engine.now - self._tick_anchor
        delay = interval - elapsed % interval
        self._tick_armed = True
        engine.schedule1(delay, self._aging_tick, None)

    def _aging_tick(self, _arg: Any) -> None:
        """Engine callback at an aging-interval boundary."""
        self._tick_armed = False
        self._tick_anchor = self.system.engine.now
        if self._aging_requested:
            self._aging_requested = False
            self._aging_waker.wake()

    def _aging_daemon(self) -> Iterator[Any]:
        while True:
            yield WaitWaker(self._aging_waker)
            yield from self.run_aging_walk()

    def _should_scan_region(self, region_index: int) -> bool:
        mode = self.params.scan_mode
        if mode is ScanMode.ALL:
            return True
        if mode is ScanMode.NONE:
            return False
        if mode is ScanMode.RAND:
            return bool(self._scan_rng.random() < self.params.scan_rand_prob)
        # Stock: Bloom-filtered, with a cold-start full scan.
        if not self._first_walk_done:
            return True
        return self._bloom_cur.test(region_index)

    def run_aging_walk(self) -> Iterator[Any]:
        """One linear walk over the page table (generator).

        Runs in the aging daemon normally, but reclaim contexts run it
        inline when they find no evictable generation (the kernel's
        ``try_to_inc_max_seq`` path); ``_aging_in_progress`` keeps the
        two from walking concurrently.
        """
        assert self.system is not None
        if self._aging_in_progress:
            return
        self._aging_in_progress = True
        try:
            yield from self._aging_walk_body()
        finally:
            self._aging_in_progress = False
            # Completion re-anchors the tick grid: the next boundary is
            # one interval from now (where the old poll re-armed).  A
            # request that arrived while the walk ran gets its tick now.
            self._tick_anchor = self.system.engine.now
            if self._aging_requested and not self._tick_armed:
                self._arm_tick()

    def _aging_walk_body(self) -> Iterator[Any]:
        system = self.system
        costs = system.costs
        stats = system.stats
        t0 = system.engine.now if _tp.mglru_age is not None else 0
        stats.aging_walks += 1
        self._evictions_at_last_walk = stats.evictions
        # Create the new youngest generation *before* scanning (the
        # kernel's walk targets ``max_seq + 1``): pages this walk
        # promotes land in the generation it creates, so back-to-back
        # walks over an idle interval can never make just-promoted
        # pages (whose accessed bits the promotion cleared) immediately
        # evictable — the correlated-mass-eviction hazard.  At the
        # generation cap the walk still runs, but promotions pile into
        # the current youngest and recency resolution degrades (§V-B).
        if self.gens.inc_max_seq():
            stats.policy_ticks += 1
        else:
            stats.gen_cap_hits += 1
        walk_uses_bloom = self.params.scan_mode is ScanMode.BLOOM
        flat_view = system.address_space.page_table.flat_view
        scanned = 0
        skipped = 0
        # Scan costs are accrued and yielded in batches: one Compute per
        # region would flood the event loop (walks cover hundreds of
        # regions) without changing contention at the timescales that
        # matter.
        pending_ns = 0
        batch_ns = 32 * costs.pte_scan_ns * 64
        if self.regions_provider is None:
            walk_regions = system.address_space.page_table.regions()
        else:
            walk_regions = self.regions_provider()
        for region in walk_regions:
            pending_ns += costs.bloom_op_ns
            if not self._should_scan_region(region.index):
                skipped += 1
                continue
            scanned += 1
            # Linear scan: read every PTE of the region.
            pending_ns += region.n_ptes * costs.pte_scan_ns
            if pending_ns >= batch_ns:
                yield Compute(pending_ns)
                pending_ns = 0
            stats.ptes_scanned += region.n_ptes
            # Vectorized young-PTE harvest; the promote loop visits pages
            # in region order, exactly as the scalar per-page scan did.
            # flat_view() is O(1) unless a page was mapped since the last
            # build (then the rebuild refreshes every page's index).
            flat = flat_view()
            idx = region.flat_indices(flat)
            young_mask = flat.present[idx] & flat.accessed[idx]
            young = int(young_mask.sum())
            if young:
                sel = idx[young_mask]
                flat.accessed[sel] = False
                for page in flat.pages[sel]:
                    if page._ilist_owner is not None:
                        self.gens.promote(page)
                        stats.promotions += 1
            if walk_uses_bloom and young >= self.params.young_region_threshold:
                self._bloom_next.add(region.index)
        if pending_ns:
            yield Compute(pending_ns)
        self._first_walk_done = True
        if walk_uses_bloom:
            self._bloom_cur, self._bloom_next = self._bloom_next, self._bloom_cur
            self._bloom_next.clear()
        stats.extra["aging_regions_scanned"] = (
            stats.extra.get("aging_regions_scanned", 0) + scanned
        )
        stats.extra["aging_regions_skipped"] = (
            stats.extra.get("aging_regions_skipped", 0) + skipped
        )
        if _tp.mglru_age is not None:
            _tp.mglru_age(
                self.gens.max_seq, system.engine.now - t0, scanned
            )

    # ------------------------------------------------------------------
    # Eviction walker
    # ------------------------------------------------------------------

    def _max_evictable_seq(self) -> int:
        return self.gens.max_seq - MIN_NR_GENS

    def _pop_candidate(self) -> Optional[Page]:
        """Tail of the oldest *evictable* generation, or None."""
        gens = self.gens
        while True:
            if gens.min_seq > self._max_evictable_seq():
                return None
            lst = gens._lists.get(gens.min_seq)
            if lst is not None and len(lst):
                return lst.pop_tail()
            if not gens.try_advance_min_seq():
                return None

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        assert self.system is not None
        system = self.system
        reclaimed = 0
        scanned = 0
        inline_walks = 0
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
                if system._evictions_in_flight:
                    # Not a real exhaustion: the candidates are detached
                    # into in-flight write batches.  Forcing an aging
                    # walk here would clear accessed bits and advance
                    # generations against a transiently empty list (the
                    # correlated-mass-eviction failure mode); wait for a
                    # batch to complete and re-pop instead.
                    yield from system.wait_eviction_batch()
                    continue
                # Oldest generations exhausted: aging must create room.
                # Run it inline (kernel try_to_inc_max_seq) unless the
                # daemon already is, or we have tried twice.
                if not self._aging_in_progress and inline_walks < 2:
                    inline_walks += 1
                    yield from self.run_aging_walk()
                    continue
                self.request_aging()
                break
            scanned += len(block)
            # Triage the whole block: one rmap charge and one
            # accessed-bit snapshot instead of a walk per candidate.
            yield Compute(self._walk_block_ns(len(block)))
            flags = self._snapshot_accessed(block)
            if _tp.mm_vmscan_scan is not None:
                _tp.mm_vmscan_scan(block, flags, 2)
            cold = []
            hot_regions = []
            for page, young in zip(block, flags):
                if young:
                    page.accessed = False
                    self._promote_hot_candidate(page)
                    system.stats.promotions += 1
                    hot_regions.append(page.region)
                elif page.kind is PageKind.FILE and not self.tiers.can_evict(
                    page.tier
                ):
                    # PID-protected tier: move up one generation instead.
                    target = min(page.gen_seq + 1, self.gens.max_seq)
                    self.gens.insert(page, target)
                else:
                    cold.append(page)
            # Spatial locality: scan the PTEs around each hot candidate,
            # promoting its accessed neighbours (§III-C), and feed the
            # regions into the aging walker's filter.
            if hot_regions:
                yield from self._scan_nearby_many(hot_regions)
            if cold:
                n_ok, aborted = yield from system.evict_pages(
                    cold, recheck_accessed=True
                )
                reclaimed += n_ok
                for page in aborted:
                    # Re-accessed during writeback: it is hot; promote.
                    self.gens.insert(page, self.gens.max_seq)
        if self.gens.min_seq > self._max_evictable_seq():
            self.request_aging()
        return reclaimed

    def _promote_hot_candidate(self, page: Page) -> None:
        """Promotion rule for a candidate found accessed at eviction."""
        if page.kind is PageKind.FILE:
            # One tier up within its generation, not straight to youngest.
            page.tier = min(page.tier + 1, self.params.n_tiers - 1)
            self.gens.insert(page, page.gen_seq)
            if _tp.mglru_tier_promote is not None:
                _tp.mglru_tier_promote(page.vpn, page.tier)
        else:
            self.gens.insert(page, self.gens.max_seq)

    def _scan_nearby_many(self, regions) -> Iterator[Any]:
        """Eviction-time spatial scan of the hot candidates' regions.

        The whole round's scans are charged as one ``Compute`` (each
        region's PTE walk plus its Bloom-filter insert), then the
        promote passes run back to back — a separate completion event
        per region bought nothing.  Presence/accessed bits are read
        *after* the cost yield (they may change during it), batched per
        region.
        """
        assert self.system is not None
        system = self.system
        costs = system.costs
        bloom = self.params.scan_mode is ScanMode.BLOOM
        scan_ns = 0
        todo = []
        for region in regions:
            if region is None:
                continue
            todo.append(region)
            scan_ns += region.n_ptes * costs.pte_nearby_scan_ns
            if bloom:
                scan_ns += costs.bloom_op_ns
        if not todo:
            return
        yield Compute(scan_ns)
        flat = system.address_space.page_table.flat_view()
        tp_tier = _tp.mglru_tier_promote
        promoted = 0
        for region in todo:
            system.stats.ptes_scanned_nearby += region.n_ptes
            idx = region.flat_indices(flat)
            mask = flat.present[idx] & flat.accessed[idx]
            if mask.any():
                for page in flat.pages[idx[mask]]:
                    if page._ilist_owner is not None:
                        page.accessed = False
                        if page.kind is PageKind.FILE:
                            page.tier = min(
                                page.tier + 1, self.params.n_tiers - 1
                            )
                            if tp_tier is not None:
                                tp_tier(page.vpn, page.tier)
                        else:
                            self.gens.promote(page)
                        promoted += 1
            if bloom:
                self._bloom_next.add(region.index)
        system.stats.promotions += promoted
        # Refresh tier protection as eviction pressure evolves.
        self.tiers.update_protection()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        return self.gens.total_pages()

    def describe(self) -> str:
        return (
            f"{self.name}(gens={self.gens.nr_gens}/{self.params.max_nr_gens}, "
            f"min={self.gens.min_seq}, max={self.gens.max_seq}, "
            f"scan={self.params.scan_mode.value})"
        )
