"""The memory system: faults, reclaim contexts, and eviction mechanics.

:class:`MemorySystem` wires together one CPU, a frame allocator, an
address space, the reverse map, swap-slot bookkeeping, a swap device,
and a replacement policy, and provides the two generators application
threads drive:

- :meth:`access_run` — the batched hot path: touch a sequence of VPNs,
  accumulating compute and faulting as needed;
- :meth:`handle_fault` — make one non-resident page resident (request
  loops such as YCSB's test presence and set the PTE bits themselves,
  and call it on a miss).

It also owns the kswapd background-reclaim daemon and the eviction
mechanics (:meth:`evict_page`) that policies call from their reclaim
generators.

Swap-cache semantics: a page swapped in *keeps* its slot, so a clean
page can later be dropped without device I/O; dirtying a resident page
invalidates the copy (the slot is released lazily at the next
eviction).  This asymmetry — reads can be free, writes never are — is
what the paper's read/write tail-latency splits come from.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence

import numpy as np

from repro._env import env_flag
from repro._units import US
from repro.errors import ConfigError, OutOfMemoryError
from repro.mm.address_space import AddressSpace
from repro.mm.costs import CostModel
from repro.mm.frame_allocator import FrameAllocator
from repro.mm.page import Page
from repro.mm.rmap import ReverseMap
from repro.mm.stats import MMStats
from repro.mm.swap_cache import ShadowEntry, SwapSpace
from repro.policies.base import ReplacementPolicy
from repro.sim.cpu import CPU
from repro.sim.engine import Engine
from repro.sim.events import Compute, OneShotEvent, Sleep, WaitEvent, Waker, WaitWaker
from repro.sim.rng import RngTree
from repro.metrics import hooks as _mx
from repro.swapdev.base import SwapDevice
from repro.trace import tracepoints as _tp

#: Pages per reclaim batch (kernel SWAP_CLUSTER_MAX).
#: Sentinel distinguishing "no fault in flight" from an in-flight fault
#: whose completion event has not been demanded yet (dict value None).
_NOT_FAULTING = object()

RECLAIM_BATCH = 32
#: Direct-reclaim retries before declaring OOM.
MAX_DIRECT_RECLAIM_RETRIES = 64


class MemorySystem:
    """One simulated machine: CPU + memory + swap + policy."""

    def __init__(
        self,
        engine: Engine,
        rng: RngTree,
        policy: ReplacementPolicy,
        swap_device: SwapDevice,
        capacity_frames: int,
        n_cpus: int = 12,
        costs: CostModel = CostModel(),
        swap_slots: Optional[int] = None,
        compute_quantum_ns: int = 64 * US,
        fast_access: Optional[bool] = None,
    ) -> None:
        if capacity_frames < 16:
            raise ConfigError("need at least 16 frames of capacity")
        self.engine = engine
        self.rng = rng
        self.costs = costs
        self.cpu = CPU(engine, n_cpus)
        self.frames = FrameAllocator(capacity_frames)
        self.address_space = AddressSpace(aslr_rng=rng.stream("aslr"))
        self.rmap = ReverseMap(
            rng.stream("rmap"),
            walk_base_ns=costs.rmap_walk_base_ns,
            walk_jitter_ns=costs.rmap_walk_jitter_ns,
        )
        self.swap = SwapSpace(
            n_slots=swap_slots if swap_slots is not None else capacity_frames * 8
        )
        self.swap_device = swap_device
        self.policy = policy
        self.stats = MMStats()
        self.compute_quantum_ns = compute_quantum_ns
        #: Vectorized resident-access fast path.  On by default; set the
        #: ``REPRO_FAST_ACCESS=0`` env var (or pass ``fast_access=False``)
        #: to force the scalar reference path.  Both produce bit-identical
        #: simulations — the toggle exists for A/B verification.
        if fast_access is None:
            fast_access = env_flag("REPRO_FAST_ACCESS", True)
        self.fast_access = bool(fast_access)

        self._kswapd_waker = Waker("kswapd")
        self._inflight_faults: Dict[Page, OneShotEvent] = {}
        #: Pages currently inside a batched swap-out (detached from the
        #: policy lists, frames not yet freed).  A reclaimer that finds
        #: nothing to scan waits for the next batch completion instead of
        #: spinning its retry budget: with triage blocks, concurrent
        #: reclaimers can transiently detach every resident page.
        self._evictions_in_flight = 0
        self._eviction_batch_done = OneShotEvent("eviction-batch-done")
        #: Direct reclaim is serialized: one faulting thread walks the
        #: policy lists per round while later arrivals wait for the
        #: round to complete and then retry their allocation (the
        #: kernel's reclaim throttling).  Concurrent walkers add no
        #: reclaim throughput — they interleave over the same lists,
        #: each finding a sliver of the candidates — but each spins up
        #: the full triage machinery per fault.
        self._direct_reclaim_active = False
        self._direct_reclaim_done = OneShotEvent("direct-reclaim-done")
        #: Cgroup whose fault is driving the current (serialized) direct
        #: reclaim round — the steal-attribution anchor the memcg root
        #: policy reads.  None outside direct reclaim and for kswapd.
        self._reclaim_requester = None
        self._started = False
        #: PSI tracker observer slot (None = PSI off).  Set by
        #: :meth:`repro.psi.tracker.PsiTracker.install`; every
        #: instrumented stall/workingset site gates on ``is None`` with
        #: the same discipline as tracepoint module slots, so disabled
        #: runs stay bit-identical.
        self.psi = None
        #: Span recorder observer slot (None = spans off).  Set by
        #: :meth:`repro.spans.recorder.SpanRecorder.install`; the fault
        #: path opens a root span per demand fault and brackets every
        #: wait/work segment it traverses, gating on ``is None`` with
        #: the same discipline as the PSI slot above.
        self.spans = None

        policy.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn kswapd and policy daemons (call once, before running)."""
        if self._started:
            return
        self._started = True
        kswapd = self.engine.spawn(self._kswapd_loop(), name="kswapd", daemon=True)
        kswapd.cpu = self.cpu
        self.policy.spawn_daemons()

    def spawn_daemon(self, generator: Iterator[Any], name: str):
        """Spawn a policy daemon thread bound to this system's CPU."""
        thread = self.engine.spawn(generator, name=name, daemon=True)
        thread.cpu = self.cpu
        return thread

    def spawn_app_thread(self, generator: Iterator[Any], name: str):
        """Spawn an application (foreground) thread on this CPU."""
        thread = self.engine.spawn(generator, name=name)
        thread.cpu = self.cpu
        return thread

    # ------------------------------------------------------------------
    # Hot path: accesses
    # ------------------------------------------------------------------

    def access_run(
        self,
        vpns: Sequence[int],
        write: bool = False,
        compute_ns_per_access: int = 0,
    ) -> Iterator[Any]:
        """Touch each VPN in order, interleaving compute.

        Present pages cost only accumulated compute (yielded in quanta so
        daemon threads can interleave); a miss flushes pending compute
        and runs the fault path.  This is the simulator's hot loop.

        VPN arrays take the vectorized fast path: presence is tested and
        accessed/dirty bits are set per quantum-sized chunk with numpy
        operations on the page table's flat PTE state, falling back to
        the scalar reference loop below at the first non-resident page.
        The two paths emit the *same* command stream at the same
        simulated instants, so results are bit-identical either way.
        """
        if (
            self.fast_access
            and compute_ns_per_access >= 0
            and isinstance(vpns, np.ndarray)
        ):
            flat = self.address_space.page_table.flat_view()
            idx = flat.translate(vpns)
            if idx is not None:
                return self._access_run_fast(
                    flat, idx, write, compute_ns_per_access
                )
            # Some VPN is unmapped: the scalar loop reproduces the exact
            # prefix-processing-then-raise semantics.
        return self._access_run_slow(vpns, write, compute_ns_per_access)

    def _access_run_slow(
        self,
        vpns: Sequence[int],
        write: bool,
        compute_ns_per_access: int,
    ) -> Iterator[Any]:
        """Scalar reference implementation (pre-vectorization hot loop)."""
        lookup = self.address_space.page_table.lookup
        quantum = self.compute_quantum_ns
        stats = self.stats
        overhead = self.costs.fault_overhead_ns
        pending = 0
        hits = 0
        if isinstance(vpns, np.ndarray):
            # Plain ints hash ~2x faster than numpy scalars in the dict
            # lookups below.
            vpns = vpns.tolist()
        for vpn in vpns:
            page = lookup(vpn)
            pending += compute_ns_per_access
            if page.present:
                hits += 1
                page.accessed = True
                if write:
                    page.dirty = True
                if pending >= quantum:
                    yield Compute(pending)
                    pending = 0
                continue
            # One Compute covers the flushed pending work plus the trap
            # overhead of the fault that interrupted it — the separate
            # overhead event inside handle_fault gained nothing.
            yield Compute(pending + overhead)
            pending = 0
            yield from self.handle_fault(page, write, charge_overhead=False)
        stats.hits += hits
        if pending:
            yield Compute(pending)

    def _access_run_fast(
        self,
        flat: Any,
        idx: np.ndarray,
        write: bool,
        c: int,
    ) -> Iterator[Any]:
        """Vectorized access loop over flat PTE indices *idx*.

        Equivalence argument: the scalar loop yields nothing between two
        consecutive accesses unless it flushes pending compute (every
        ``chunk = ceil(quantum/c)`` hits) or faults, so presence cannot
        change *within* a chunk; testing presence for a whole chunk
        up-front, batching the bit stores, and emitting one ``Compute``
        per chunk reproduces the scalar command stream exactly:

        - a full chunk of hits accrues ``chunk*c >= quantum`` pending and
          flushes at its last access → one ``Compute(chunk*c)``;
        - a miss after ``k`` leading hits flushes ``k*c`` plus the missing
          access's own ``c`` plus the fault's trap overhead → one
          ``Compute((k+1)*c + overhead)``, then the fault;
        - a trace ending mid-chunk leaves ``k*c < quantum`` pending for
          the trailing flush.
        """
        stats = self.stats
        quantum = self.compute_quantum_ns
        overhead = self.costs.fault_overhead_ns
        on_batch = self.policy.on_batch_access
        handle_fault = self.handle_fault
        present = flat.present
        pages = flat.pages
        n = idx.shape[0]
        chunk = n if c == 0 else -(-quantum // c)  # ceil(quantum / c)
        hits = 0
        pos = 0
        tail_pending = 0
        while pos < n:
            lim = pos + chunk
            if lim > n:
                lim = n
            seg = idx[pos:lim]
            pres = present[seg]
            k = int(pres.argmin())  # first non-resident page, if any
            if pres[k]:
                # Whole segment resident.
                k = lim - pos
                on_batch(flat, seg, write)
                hits += k
                pos = lim
                if c:
                    if k == chunk:
                        yield Compute(k * c)  # flush at the quantum
                    else:
                        tail_pending = k * c  # trace ended mid-chunk
                continue
            # Miss at seg[k]; the k leading pages are resident hits.
            if k:
                on_batch(flat, seg[:k], write)
                hits += k
                pos += k
            yield Compute(k * c + c + overhead)
            yield from handle_fault(pages[idx[pos]], write, charge_overhead=False)
            pos += 1
        stats.hits += hits
        if tail_pending:
            yield Compute(tail_pending)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def handle_fault(
        self, page: Page, write: bool, charge_overhead: bool = True
    ) -> Iterator[Any]:
        """Generator: make *page* resident, blocking as needed.

        ``charge_overhead=False`` means the caller already charged the
        trap overhead (the access loops fold it into the Compute that
        flushes pending work at the miss, saving one event per fault).
        """
        spans = self.spans
        if spans is None:
            yield from self._handle_fault(page, write, charge_overhead)
            return
        # Root span brackets the *entire* call — including the blocked-
        # behind-inflight wait and the retry recursion — so the span
        # total equals exactly what callers measure around this
        # generator (the body runs synchronously to the first yield).
        # Nested re-entries are depth-counted, not double-recorded.
        spans.fault_begin(page)
        try:
            yield from self._handle_fault(page, write, charge_overhead)
        finally:
            spans.fault_end(page)

    def _handle_fault(
        self, page: Page, write: bool, charge_overhead: bool = True
    ) -> Iterator[Any]:
        if page.present:
            # The caller observed a miss, but another thread completed
            # the fault before we got here (the kernel's re-check of the
            # PTE under the page-table lock).
            page.accessed = True
            if write:
                page.dirty = True
            return
        inflight = self._inflight_faults.get(page, _NOT_FAULTING)
        if inflight is not _NOT_FAULTING:
            # Another thread is already servicing this fault; wait for it
            # and retry (it may have been evicted again meanwhile).  The
            # completion event is created lazily by the first waiter —
            # the overwhelmingly common uncontended fault never builds
            # one.
            if inflight is None:
                inflight = OneShotEvent("fault")
                self._inflight_faults[page] = inflight
            spans = self.spans
            if spans is not None:
                spans.seg_begin(
                    "inflight_wait", instigator=spans.owner_of(page)
                )
            psi = self.psi
            if psi is not None and page.swap_slot is not None:
                # Thrashing wait (kernel folio_wait_bit memstall): the
                # page is mid-swap-in on another thread's fault.  A
                # minor-fault wait (no swap copy) is not a memstall.
                psi.stall_begin(page.memcg)
                yield WaitEvent(inflight)
                psi.stall_end(page.memcg)
            else:
                yield WaitEvent(inflight)
            if spans is not None:
                spans.seg_end()
            if not page.present:
                yield from self.handle_fault(page, write)
                return
            page.accessed = True
            if write:
                page.dirty = True
            return

        self._inflight_faults[page] = None
        spans = self.spans
        if spans is not None:
            # This thread now owns the page's in-flight fault: later
            # arrivals blocking on it name us as their instigator.
            spans.claim_fault(page)
        engine = self.engine
        t0 = engine._now
        try:
            if charge_overhead:
                yield Compute(self.costs.fault_overhead_ns)
            cg = page.memcg
            if cg is not None and cg.limit_pages is not None:
                # Charge-time local reclaim (the kernel's try_charge
                # loop): an over-limit cgroup reclaims from its own
                # lruvec before taking a frame, so tenant overcommit
                # costs the tenant, not the fleet.
                yield from cg.reclaim_to_limit(self)
            frame = yield from self._alloc_frame(cg)
            major = page.swap_slot is not None
            if major:
                self.stats.major_faults += 1
                if spans is not None:
                    # The device reports its exact (queue, service)
                    # split into this frame; the exclusive remainder is
                    # CPU-contention dilation.
                    spans.seg_begin("swap_read")
                psi = self.psi
                if psi is not None:
                    # Swap-in device wait (kernel swap_read_folio /
                    # psi_memstall around submit_bio + wait).
                    psi.stall_begin(cg)
                    yield from self.swap_device.read(page)
                    psi.stall_end(cg)
                    psi.note_refault(page)
                else:
                    yield from self.swap_device.read(page)
                if spans is not None:
                    spans.seg_end()
                shadow = self.swap.refault(page)
                if shadow is not None:
                    self.stats.refaults += 1
                    page.refault_count += 1
                    if _tp.mm_vmscan_refault is not None:
                        _tp.mm_vmscan_refault(
                            page.vpn,
                            engine._now - shadow.evict_time_ns,
                            page.refault_count,
                        )
            else:
                self.stats.minor_faults += 1
                if spans is not None:
                    spans.seg_begin("zero_fill")
                    yield Compute(self.costs.zero_fill_ns)
                    spans.seg_end()
                else:
                    yield Compute(self.costs.zero_fill_ns)
                shadow = None
            page.present = True
            page.frame = frame
            page.accessed = True
            if write:
                page.dirty = True
            self.rmap.insert(frame, page)
            self.policy.on_page_inserted(page, shadow)
            if major:
                if _tp.mm_fault_major is not None:
                    _tp.mm_fault_major(
                        page.vpn, engine._now - t0, int(write)
                    )
            elif _tp.mm_fault_minor is not None:
                _tp.mm_fault_minor(page.vpn, engine._now - t0, int(write))
            if _mx.fault_service is not None:
                _mx.fault_service(engine._now - t0, major)
        finally:
            if spans is not None:
                spans.release_fault(page)
            done = self._inflight_faults.pop(page)
            if done is not None:
                done.fire()
        if self.frames.below_low():
            self._kswapd_waker.wake()

    def _alloc_frame(self, memcg=None) -> Iterator[Any]:
        """Generator: obtain a free frame, entering direct reclaim when
        the allocator is at or below its min watermark.

        Direct reclaim is serialized: the first thread to hit the
        watermark walks the policy lists; threads that arrive while a
        round is in progress block on its completion and retry the
        allocation against the frames it freed.  One walker frees a
        whole triage block per round — enough for every waiter — so
        piling more walkers onto the same lists only multiplies scan
        machinery, not reclaim throughput.

        ``memcg``: the faulting page's cgroup.  A successful grant
        charges it atomically (``frames.alloc(charge=)``), and while
        this thread owns the serialized reclaim round the cgroup is
        published as ``_reclaim_requester`` so the memcg root policy
        can attribute cross-tenant steals."""
        retries = 0
        psi = self.psi
        spans = self.spans
        stalled = False
        while True:
            if not self.frames.below_min():
                frame = self.frames.alloc(charge=memcg)
                if frame is not None:
                    if stalled:
                        psi.stall_end(memcg)
                    return frame
            # Allocation stall begins here (kernel psi_memstall_enter in
            # try_to_free_pages): running direct reclaim *and* waiting
            # behind another thread's round both count.
            if psi is not None and not stalled:
                stalled = True
                psi.stall_begin(memcg)
            if self._direct_reclaim_active:
                if spans is not None:
                    spans.seg_begin(
                        "reclaim_wait",
                        instigator=spans.reclaim_instigator,
                    )
                    yield WaitEvent(self._direct_reclaim_done)
                    spans.seg_end()
                else:
                    yield WaitEvent(self._direct_reclaim_done)
                continue
            # Direct reclaim: the faulting thread pays for reclaim itself.
            start = self.engine.now
            self._direct_reclaim_active = True
            self._reclaim_requester = memcg
            if spans is not None:
                thread = self.engine.current_thread
                spans.reclaim_instigator = (
                    thread.name if thread is not None else "?"
                )
                spans.seg_begin("reclaim_run")
            try:
                reclaimed = yield from self.policy.reclaim(
                    RECLAIM_BATCH, direct=True
                )
            finally:
                if spans is not None:
                    spans.seg_end()
                    spans.reclaim_instigator = None
                self._direct_reclaim_active = False
                self._reclaim_requester = None
                done = self._direct_reclaim_done
                self._direct_reclaim_done = OneShotEvent(
                    "direct-reclaim-done"
                )
                done.fire()
            self.stats.direct_reclaims += reclaimed
            self.stats.direct_reclaim_stall_ns += self.engine.now - start
            if _tp.mm_vmscan_direct_stall is not None:
                _tp.mm_vmscan_direct_stall(
                    reclaimed, self.engine.now - start, retries
                )
            self._kswapd_waker.wake()
            if reclaimed == 0:
                retries += 1
                if retries >= MAX_DIRECT_RECLAIM_RETRIES:
                    if stalled:
                        psi.stall_end(memcg)
                    raise OutOfMemoryError(
                        f"direct reclaim made no progress after "
                        f"{retries} retries ({self.frames.n_free} free)"
                    )
                if self._evictions_in_flight:
                    # Other reclaimers have whole triage blocks in
                    # writeback; their frames free at batch completion.
                    # Wait for that instead of a blind backoff (the
                    # kernel's writeback throttling).
                    yield from self.wait_eviction_batch()
                elif spans is not None:
                    spans.seg_begin("backoff")
                    yield Sleep(100 * US)
                    spans.seg_end()
                else:
                    # Give kswapd / in-flight writeback a chance.
                    yield Sleep(100 * US)
            else:
                retries = 0
            frame = self.frames.alloc(charge=memcg)
            if frame is not None:
                if stalled:
                    psi.stall_end(memcg)
                return frame

    # ------------------------------------------------------------------
    # Eviction mechanics (called from policy reclaim generators)
    # ------------------------------------------------------------------

    def evict_page(self, page: Page) -> Iterator[Any]:
        """Generator: push *page* out to swap.  Returns True on success,
        False if the page was re-accessed during writeback (eviction
        aborted; the caller should reinsert it).

        The caller must have already detached the page from its policy
        lists; on abort the page is still resident and unlisted.  This is
        the single-page form of :meth:`evict_pages` — policies' triage
        blocks use the batched path directly.
        """
        evicted, _aborted = yield from self.evict_pages([page])
        return evicted == 1

    def evict_pages(
        self, pages: Sequence[Page], recheck_accessed: bool = False
    ) -> Iterator[Any]:
        """Generator: push a triage block of pages out to swap.

        Returns ``(n_evicted, aborted)`` where ``aborted`` lists the
        pages that were re-accessed during writeback (still resident and
        unlisted; the caller should reinsert them).

        Batch semantics (the reclaim fast lane): the per-victim
        bookkeeping cost is charged as one ``Compute`` for the whole
        block, clean pages with a valid swap copy are dropped first
        (no I/O), then every dirty/slotless page goes to the device in a
        single batched submission — one completion event, per-page
        service latencies identical to N serial submissions.  The PTE
        bits of every write page are cleared *before* the batch I/O
        starts, so the kernel-style re-check below still catches racing
        accesses to any page of the batch.

        ``recheck_accessed``: scanning policies triage a whole block
        against one accessed-bit snapshot, so a page can be re-touched
        between the snapshot and this call (the block's walk ``Compute``
        and any nearby scans yield in between).  With the flag set, such
        pages are handed back in ``aborted`` instead of evicted — the
        second chance a per-page scan would have given them.  FIFO-style
        policies evict regardless of the accessed bit and leave it off.
        """
        tp_evict = _tp.mm_vmscan_evict
        t0 = self.engine.now if tp_evict is not None else 0
        if _mx.evict_block is not None:
            _mx.evict_block(len(pages))
        spans = self.spans
        if spans is not None:
            spans.seg_begin("evict_triage")
            yield Compute(self.costs.reclaim_page_ns * len(pages))
            spans.seg_end()
        else:
            yield Compute(self.costs.reclaim_page_ns * len(pages))
        evicted = 0
        aborted = []
        drops: list[Page] = []
        writes: list[tuple[Page, bool]] = []
        if len(pages) > 1:
            # A multi-page block (re)builds the flat PTE mirror here, so
            # mirror rebuilds (and their trace events) keep their instant.
            self.address_space.page_table.flat_view()
        # Snapshot the block's PTE bits in one pass: processing one page
        # never touches another page's bits, so these reads see exactly
        # the values reads interleaved with the loop would.
        flags = [(p.accessed, p.dirty) for p in pages]
        for page, (young, was_dirty) in zip(pages, flags):
            assert page.present, "evicting a non-resident page"
            if recheck_accessed and young:
                self.stats.extra["aborted_evictions"] = (
                    self.stats.extra.get("aborted_evictions", 0) + 1
                )
                aborted.append(page)
                continue
            if was_dirty or page.swap_slot is None:
                if was_dirty and page.swap_slot is not None:
                    # Resident page was re-dirtied: the old copy is stale.
                    self.swap.release(page)
                    self.swap_device.discard(page)
                writes.append((page, was_dirty))
                # Clear both PTE bits before writeback starts (as the
                # kernel does) so a racing access during the device
                # write is caught by the re-check below.
                page.accessed = False
                page.dirty = False
            else:
                # Clean page with a valid swap copy: free drop, no I/O.
                self.swap.set_shadow(page, self.policy.make_shadow(page))
                drops.append(page)
        psi = self.psi
        if drops:
            if psi is not None:
                # Workingset shadow stamps, at the same instant as the
                # policy shadow store above (kernel workingset_eviction).
                for page in drops:
                    psi.note_eviction(page)
            self._finish_evictions(drops)
            evicted += len(drops)
            if tp_evict is not None:
                dt = self.engine.now - t0
                for page in drops:
                    tp_evict(page.vpn, dt, 0)
        if writes:
            finished: list[Page] = []
            self._evictions_in_flight += len(writes)
            if spans is not None:
                # Publish who submitted the in-flight batch so faults
                # waiting on its completion can name their instigator
                # (kswapd vs. a direct reclaimer).
                thread = self.engine.current_thread
                spans.eviction_instigator = (
                    thread.name if thread is not None else "?"
                )
                spans.seg_begin("evict_writeback")
            try:
                yield from self.swap_device.write_batch([p for p, _ in writes])
            finally:
                if spans is not None:
                    spans.seg_end()
                self._evictions_in_flight -= len(writes)
                if spans is not None and not self._evictions_in_flight:
                    spans.eviction_instigator = None
                done = self._eviction_batch_done
                self._eviction_batch_done = OneShotEvent(
                    "eviction-batch-done"
                )
                done.fire()
            for page, was_dirty in writes:
                if page.accessed or page.dirty:
                    # Touched during writeback: abort the eviction and
                    # drop the now-possibly-stale device copy so state
                    # stays canonical.
                    if page.swap_slot is None:
                        self.swap_device.discard(page)
                    page.accessed = True
                    page.dirty = page.dirty or was_dirty
                    self.stats.extra["aborted_evictions"] = (
                        self.stats.extra.get("aborted_evictions", 0) + 1
                    )
                    aborted.append(page)
                    continue
                if was_dirty:
                    self.stats.dirty_evictions += 1
                if page.swap_slot is None:
                    self.swap.store(page, self.policy.make_shadow(page))
                else:
                    self.swap.set_shadow(page, self.policy.make_shadow(page))
                finished.append(page)
            if finished:
                if psi is not None:
                    for page in finished:
                        psi.note_eviction(page)
                self._finish_evictions(finished)
                evicted += len(finished)
                if tp_evict is not None:
                    dt = self.engine.now - t0
                    for page in finished:
                        tp_evict(page.vpn, dt, 1)
        return evicted, aborted

    def wait_eviction_batch(self) -> Iterator[Any]:
        """Generator: block until the next in-flight eviction batch
        completes; a no-op when none is in flight.

        Reclaim contexts call this when they find nothing to scan while
        other reclaimers have triage blocks in writeback — the frames
        (or aborted pages) those blocks hold come back at completion, so
        waiting beats both spinning and forcing an aging walk against a
        transiently empty list.
        """
        if self._evictions_in_flight:
            spans = self.spans
            if spans is not None:
                spans.seg_begin(
                    "evict_wait", instigator=spans.eviction_instigator
                )
                yield WaitEvent(self._eviction_batch_done)
                spans.seg_end()
            else:
                yield WaitEvent(self._eviction_batch_done)

    def _finish_eviction(self, page: Page) -> None:
        """Unmap a victim and return its frame to the allocator (the
        page's cgroup, if any, uncharges atomically with the free)."""
        page.present = False
        frame = page.frame
        page.frame = None
        self.rmap.remove(frame)
        self.frames.free(frame, uncharge=page.memcg)
        self.stats.evictions += 1

    def _finish_evictions(self, pages: Sequence[Page]) -> None:
        """Batched :meth:`_finish_eviction`: per-page unmaps and frame
        frees, then one *grouped* ledger update per distinct cgroup.

        No yield separates the frees from the grouped uncharges, so the
        memcg invariant (sum of usage == frames used) still holds at
        every event boundary — only the per-page coupling of
        ``free(uncharge=...)`` is relaxed inside the batch.  (MemCgroup
        is an eq-bearing dataclass, hence unhashable: the group key is
        ``id(cg)``.)
        """
        frames = self.frames
        rmap = self.rmap
        ledger: dict[int, list] = {}
        for page in pages:
            page.present = False
            frame = page.frame
            page.frame = None
            rmap.remove(frame)
            frames.free(frame)
            cg = page.memcg
            if cg is not None:
                entry = ledger.get(id(cg))
                if entry is None:
                    ledger[id(cg)] = [cg, 1]
                else:
                    entry[1] += 1
        self.stats.evictions += len(pages)
        for cg, n in ledger.values():
            cg.uncharge(n)

    # ------------------------------------------------------------------
    # Background reclaim
    # ------------------------------------------------------------------

    def wake_kswapd(self) -> None:
        """Kick the background reclaim daemon."""
        self._kswapd_waker.wake()

    def _kswapd_loop(self) -> Iterator[Any]:
        while True:
            yield WaitWaker(self._kswapd_waker)
            while self.frames.below_high():
                deficit = self.frames.high_watermark - self.frames.n_free
                batch = max(1, min(RECLAIM_BATCH, deficit))
                reclaimed = yield from self.policy.reclaim(batch, direct=False)
                self.stats.background_reclaims += reclaimed
                if reclaimed == 0:
                    # Nothing reclaimable right now; back off briefly so
                    # we do not spin the simulated CPU.
                    yield Sleep(200 * US)
                    break
