"""One fleet trial: N tenants, one frame pool, per-tenant memcgs.

``run_fleet_trial`` is the fleet analogue of
:func:`repro.core.experiment.run_trial`: a completely fresh simulator
per (config, policy, seed), returning one JSON-safe *row* for the
:class:`~repro.fleet.sink.JsonlSink`.  Memory stays bounded regardless
of request count: per-tenant latency distributions are streaming log2
:class:`~repro.metrics.registry.Histogram`\\ s (64 integers each), never
per-request arrays.

Layout and traffic both come from named RNG streams, so serial and
``REPRO_JOBS`` executions of the same (config, policy, seed) cell are
bit-identical; dataset construction goes through
:func:`repro.workloads.datasets.get_dataset`, so a 500-tenant fleet
with a handful of distinct shapes builds each distinct working set
once per process (and shares it on disk across processes).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro._env import env_flag, env_int
from repro.core.config import SystemConfig
from repro.core.experiment import DATASET_SEED
from repro.fleet.config import FleetConfig, TenantShape, apportion_requests
from repro.memcg import MemCgroup, MemcgPolicy, audit_usage
from repro.metrics import hooks as _mx
from repro.metrics.registry import Histogram
from repro.mm.page import PageKind
from repro.mm.system import MemorySystem
from repro.policies import make_policy
from repro.psi import PsiConfig, PsiTracker, interval_overlap_ns
from repro.sim.engine import Engine
from repro.sim.events import Compute, Sleep
from repro.sim.rng import RngTree
from repro.spans import SpanRecorder, SpansConfig
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice
from repro.workloads import datasets
from repro.workloads.kvstore import KVStore
from repro.workloads.zipf import ZipfSampler

#: Row format tag (also the sink's header format).
ROW_FORMAT = "repro.fleet/v2"

#: Requests classified and accounted per batch inside a tenant thread
#: (the unit of ``LANE_STATS`` and the ``fleet_batch`` hook; matches the
#: YCSB workload's batching idiom).  The scalar lane also draws its keys
#: per batch.
KEY_BATCH = 256

#: Requests per draw window of the vectorized lane: a run of one
#: tenant's requests whose keys, ops and arrival instants each come
#: from one numpy call, then serve batch by batch.  A multiple of
#: ``KEY_BATCH``, so windows split into the scalar lane's batches.
#: Generators consume their streams value by value, so the draws do not
#: depend on the window size.
DRAW_WINDOW = 8 * KEY_BATCH


class _LaneStats:
    """Process-global fleet serving-lane telemetry.

    Always-on counters (two integer adds per KEY_BATCH), independent of
    the metrics plane; the ``fleet_batch``/``fleet_lane`` hooks feed the
    same numbers into a :class:`~repro.metrics.session.MetricsSession`
    registry as ``repro_fleet_*`` metrics.  Both serving lanes report
    identical request/residue counts for the same cell — only the
    fast/scalar trial counters differ — so surfacing them can never
    leak lane identity into sink rows or reports.
    """

    __slots__ = (
        "requests",
        "residue_requests",
        "batches",
        "fast_trials",
        "scalar_trials",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.residue_requests = 0
        self.batches = 0
        self.fast_trials = 0
        self.scalar_trials = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "residue_requests": self.residue_requests,
            "batches": self.batches,
            "fast_trials": self.fast_trials,
            "scalar_trials": self.scalar_trials,
        }


#: Serving-lane counters for this process (reset freely in tests).
LANE_STATS = _LaneStats()


def fast_fleet_enabled() -> bool:
    """The ``REPRO_FAST_FLEET`` env knob (on by default).

    Same contract as ``REPRO_FAST_ACCESS`` and ``REPRO_FAST_ENGINE``: both lanes
    emit identical command streams, so rows and reports are
    byte-identical either way; the toggle exists for A/B verification.
    """
    return env_flag("REPRO_FAST_FLEET", True)


def psi_enabled() -> bool:
    """The ``REPRO_PSI`` env knob (off by default).

    PSI is a pure observer: enabling it adds a ``psi`` section to rows
    and tenant entries but leaves every pre-existing field byte-
    identical, and PSI-off runs carry zero per-event cost (the stall
    sites gate on ``system.psi is None``).
    """
    return env_flag("REPRO_PSI", False)


def spans_enabled() -> bool:
    """The ``REPRO_SPANS`` env knob (off by default).

    Same observer contract as PSI: spans-on adds a ``spans`` section to
    rows and tenant entries, leaves every pre-existing field
    byte-identical, and spans-off runs pay only the ``is None`` gates.
    """
    return env_flag("REPRO_SPANS", False)


def spans_sample_env() -> int:
    """The ``REPRO_SPANS_SAMPLE`` head-sampling knob: an integer >= 1
    (default 1: keep every fault's full record; aggregates always cover
    all faults)."""
    return env_int("REPRO_SPANS_SAMPLE", 1, minimum=1)


# ----------------------------------------------------------------------
# Shared per-shape data (satellite: one build per distinct shape)
# ----------------------------------------------------------------------

def _shape_dataset(shape: TenantShape, shape_idx: int) -> Dict[str, Any]:
    """Item placement, rank permutation and Zipf CDF for one shape.

    Keyed by the shape's parameters through the content-hash dataset
    layer, so every tenant of the same shape — and every trial, and
    every pool worker via the disk cache — reuses one build.  The Zipf
    CDF rides along because its harmonic-sum construction is the only
    other O(n_items) step per tenant.
    """
    dataset_rng = RngTree(DATASET_SEED).subtree(
        "dataset", f"fleet-kv-{shape_idx}"
    )

    def build() -> Dict[str, np.ndarray]:
        store = KVStore(
            shape.n_items,
            shape.value_bytes,
            dataset_rng.stream("kv", "layout"),
        )
        sampler = ZipfSampler(shape.n_items, theta=shape.zipf_theta)
        return {
            "item_page": store._item_page,
            "rank_perm": dataset_rng.stream("kv", "rank-perm").permutation(
                shape.n_items
            ),
            "zipf_cdf": sampler.cdf,
        }

    spec = datasets.DatasetSpec(
        name=f"fleet-kv-{shape_idx}",
        params=repr(shape),
        seed=dataset_rng.seed,
        rng_path=dataset_rng._path,
    )
    data = datasets.get_dataset(spec, build)
    store = KVStore(
        shape.n_items, shape.value_bytes, item_page=data["item_page"]
    )
    sampler = ZipfSampler(
        shape.n_items,
        theta=shape.zipf_theta,
        permutation=data["rank_perm"],
        cdf=data["zipf_cdf"],
    )
    return {"store": store, "sampler": sampler}


def _ratio_pages(footprint: int, ratio: Optional[float]) -> Optional[int]:
    if ratio is None:
        return None
    return max(1, int(footprint * ratio))


class _Arrivals:
    """One tenant's open-loop Poisson arrival instants, drawn lazily.

    Successive :meth:`take` calls return the trace
    ``np.cumsum(rng.exponential(scale, size=n)).astype(np.int64)`` piece
    by piece, bit for bit: exponential draws consume the stream value by
    value and ``cumsum`` adds left to right, so folding the running sum
    into each piece's first gap reproduces the one-shot sums exactly.
    """

    __slots__ = ("_rng", "_scale", "_carry")

    def __init__(self, rng: np.random.Generator, scale: float) -> None:
        self._rng = rng
        self._scale = scale
        self._carry = 0.0

    def take(self, n: int) -> np.ndarray:
        """The next *n* (>= 1) arrival instants, in ns."""
        gaps = self._rng.exponential(scale=self._scale, size=n)
        gaps[0] += self._carry
        sums = np.cumsum(gaps)
        self._carry = float(sums[-1])
        return sums.astype(np.int64)


# ----------------------------------------------------------------------
# Tenant server thread
# ----------------------------------------------------------------------

class _TenantState:
    """Mutable per-tenant run state (histograms + counters)."""

    __slots__ = (
        "fault_hist",
        "request_hist",
        "requests_done",
        "slo_violations",
        "major_faults",
        "minor_faults",
        "viol_intervals",
    )

    def __init__(self) -> None:
        self.fault_hist = Histogram()
        self.request_hist = Histogram()
        self.requests_done = 0
        self.slo_violations = 0
        self.major_faults = 0
        self.minor_faults = 0
        #: Coalesced SLO-violation windows ``[deadline, completion]``
        #: (only populated while PSI is on; the attribution section
        #: overlaps them against the tenant's PSI stall intervals).
        self.viol_intervals: List[List[int]] = []


def _viol_add(intervals: List[List[int]], start: int, end: int) -> None:
    """Append one violation window, coalescing with the previous one.

    Windows arrive in arrival order with non-decreasing completion
    instants (every window ends at an ``engine.now`` flush point), so
    extend-or-append keeps the list sorted and disjoint without a merge
    pass.
    """
    if intervals and start <= intervals[-1][1]:
        if end > intervals[-1][1]:
            intervals[-1][1] = end
    elif end > start:
        intervals.append([start, end])


def _tenant_body(
    system: MemorySystem,
    tenant: int,
    shape: TenantShape,
    store: KVStore,
    sampler: ZipfSampler,
    arrivals: _Arrivals,
    n_mine: int,
    index_start: int,
    item_start: int,
    slo_ns: int,
    state: _TenantState,
    memcg: Optional[MemCgroup] = None,
) -> Iterator[Any]:
    """Open-loop server, scalar reference lane (``REPRO_FAST_FLEET=0``).

    **Burst semantics** (shared with :func:`_tenant_body_fast`, which
    must emit the *same command stream* for rows to be byte-identical):
    requests that have already arrived and hit resident pages accrue
    their per-request compute into ``pending_ns`` instead of yielding
    one ``Compute`` each; the accrued work flushes as a single
    ``Compute`` at the first *flush point* —

    - ``pending_ns`` reaches the CPU compute quantum,
    - the next request has not arrived yet (flush, re-check, sleep),
    - a request misses a page (the flush folds the fault's trap
      overhead, then ``handle_fault(..., charge_overhead=False)`` —
      the PR 3 compute-merging fast path), or
    - the tenant's request trace ends.

    A hit request completes at the flush of the burst containing its
    compute; its latency (completion minus *arrival*, queueing
    included) is what the SLO judges.  A faulting request completes
    when its last fault resolves.  Fault latency is still measured
    around each ``handle_fault`` alone.

    Between two flush points the thread never yields, so page presence
    observed at a burst's start instant holds for the whole burst —
    that frozen window is exactly what lets the fast lane classify a
    burst wholesale and is why both lanes serve identical requests at
    identical instants.
    """
    key_rng = system.rng.stream("fleet", "keys", tenant)
    op_rng = system.rng.stream("fleet", "ops", tenant)
    table = system.address_space.page_table
    engine = system.engine
    stats = system.stats
    quantum = system.compute_quantum_ns
    overhead = system.costs.fault_overhead_ns
    c = shape.request_compute_ns
    fault_hist = state.fault_hist
    request_hist = state.request_hist
    # PSI attribution wants the tenant's SLO-violation windows; the
    # tracker installs before the engine runs, so the slot is settled
    # by the time this generator first executes.
    viol = state.viol_intervals if system.psi is not None else None
    pending_ns = 0
    #: Arrivals of hit requests whose burst has not flushed yet.
    waiting: List[int] = []

    def flush_observe() -> None:
        now = engine.now
        vmin = -1
        for a in waiting:
            latency = now - a
            request_hist.observe(latency)
            if latency > slo_ns:
                state.slo_violations += 1
                if vmin < 0 or a < vmin:
                    vmin = a
        waiting.clear()
        if viol is not None and vmin >= 0:
            _viol_add(viol, vmin + slo_ns, now)

    issued = 0
    while issued < n_mine:
        batch = min(KEY_BATCH, n_mine - issued)
        keys = sampler.sample(key_rng, batch)
        is_read = op_rng.random(batch) < shape.read_fraction
        index_vpns = (index_start + store.index_pages(keys)).tolist()
        item_vpns = (item_start + store.item_pages(keys)).tolist()
        arr = arrivals.take(batch).tolist()
        n_residue = 0
        for i in range(batch):
            arrival = arr[i]
            if arrival > engine.now:
                if pending_ns:
                    yield Compute(pending_ns)
                    pending_ns = 0
                flush_observe()
                if arrival > engine.now:
                    yield Sleep(arrival - engine.now)
            write = not is_read[i]
            pending_ns += c
            faulted = False
            # Hash-index page, then the item page (YCSB access shape).
            page = table.lookup(index_vpns[i])
            if page.present:
                stats.hits += 1
                page.accessed = True
            else:
                yield Compute(pending_ns + overhead)
                pending_ns = 0
                flush_observe()
                major = page.swap_slot is not None
                t0 = engine.now
                yield from system.handle_fault(
                    page, False, charge_overhead=False
                )
                fault_hist.observe(engine.now - t0)
                if major:
                    state.major_faults += 1
                else:
                    state.minor_faults += 1
                faulted = True
            page = table.lookup(item_vpns[i])
            if page.present:
                stats.hits += 1
                page.accessed = True
                if write:
                    page.dirty = True
            else:
                yield Compute(pending_ns + overhead)
                pending_ns = 0
                flush_observe()
                major = page.swap_slot is not None
                t0 = engine.now
                yield from system.handle_fault(
                    page, write, charge_overhead=False
                )
                fault_hist.observe(engine.now - t0)
                if major:
                    state.major_faults += 1
                else:
                    state.minor_faults += 1
                faulted = True
            if faulted:
                n_residue += 1
                latency = engine.now - arrival
                request_hist.observe(latency)
                if latency > slo_ns:
                    state.slo_violations += 1
                    if viol is not None:
                        _viol_add(viol, arrival + slo_ns, engine.now)
            else:
                waiting.append(arrival)
                if c and pending_ns >= quantum:
                    yield Compute(pending_ns)
                    pending_ns = 0
                    flush_observe()
        issued += batch
        LANE_STATS.requests += batch
        LANE_STATS.residue_requests += n_residue
        LANE_STATS.batches += 1
        if _mx.fleet_batch is not None:
            _mx.fleet_batch(batch, n_residue)
    if pending_ns:
        yield Compute(pending_ns)
    flush_observe()
    state.requests_done = issued
    return issued


def _tenant_body_fast(
    system: MemorySystem,
    tenant: int,
    shape: TenantShape,
    store: KVStore,
    sampler: ZipfSampler,
    arrivals: _Arrivals,
    n_mine: int,
    index_start: int,
    item_start: int,
    slo_ns: int,
    state: _TenantState,
    memcg: Optional[MemCgroup] = None,
) -> Iterator[Any]:
    """Vectorized serving lane (``REPRO_FAST_FLEET=1``, the default).

    Emits exactly the command stream of :func:`_tenant_body`, computed
    wholesale.  Per burst-start instant the lane takes one numpy gather
    over the flat PTE mirror and serves the maximal run of requests
    bounded by three prefixes:

    - **arrival**: ``searchsorted`` over the (sorted) arrival times —
      requests that have not arrived yet end the burst (the scalar
      lane's flush-then-sleep);
    - **presence**: both the index and item page resident, classified
      at the burst-start instant — valid for the whole burst because
      neither lane yields inside one (a page another tenant's reclaim
      evicts cannot *become* present except through this thread's own
      fault path);
    - **quantum budget**: how many requests fit before ``pending_ns``
      reaches the compute quantum (the scalar lane's flush-after check).

    The run's accessed/dirty bits are three batched
    ``policy.on_batch_access`` stores (one hook call per segment rather
    than two per request), hit counters and latencies/SLO checks are
    vectorized (``Histogram.observe_many`` bins identically to scalar
    ``observe``), and only the faulting residue drops into the event
    engine through the same scalar fault path the reference lane uses.

    Two regimes, one classification: the batch-wide presence gather is
    cached and reused until the tenant cgroup's ``evict_epoch`` moves
    (every present->absent transition of a tenant page is an uncharge),
    and single-arrival runs — the *arrival-bound* regime, where numpy
    call overhead would exceed the scalar lane's dict lookups — serve
    through Python-list mirrors of the batch arrays instead of numpy
    scalar indexing.  Both produce the identical command stream; they
    only move the constant factor.
    """
    key_rng = system.rng.stream("fleet", "keys", tenant)
    op_rng = system.rng.stream("fleet", "ops", tenant)
    engine = system.engine
    stats = system.stats
    flat = system.address_space.page_table.flat_view()
    present = flat.present
    accessed = flat.accessed
    dirty = flat.dirty
    pages = flat.pages
    on_batch = system.policy.on_batch_access
    quantum = system.compute_quantum_ns
    overhead = system.costs.fault_overhead_ns
    c = shape.request_compute_ns
    fault_hist = state.fault_hist
    request_hist = state.request_hist
    viol = state.viol_intervals if system.psi is not None else None
    # Per-tenant flat-index maps, translated once: the tenant's layout
    # is static, so per-batch lookups reduce to one gather each.
    index_map = flat.translate(index_start + np.arange(store.n_index_pages))
    item_map = flat.translate(item_start + np.arange(store.n_item_pages))
    assert index_map is not None and item_map is not None, "vpn unmapped"
    pending_ns = 0
    #: Hit requests awaiting their burst flush: single arrivals from
    #: the scalar regime, arrival-slice chunks from vector serves.
    #: Histogram binning and the SLO count are order-independent sums,
    #: so observing the scalars before the chunks matches scalar-lane
    #: arrival order bin-for-bin.
    w_scalar: List[int] = []
    w_chunks: List[np.ndarray] = []

    def flush_observe() -> None:
        now = engine.now
        # All windows of one flush end at ``now``, so their union is
        # [min violating arrival + slo, now] regardless of the scalar/
        # chunk observation order.
        vmin = -1
        if w_scalar:
            for a in w_scalar:
                latency = now - a
                request_hist.observe(latency)
                if latency > slo_ns:
                    state.slo_violations += 1
                    if vmin < 0 or a < vmin:
                        vmin = a
            w_scalar.clear()
        if w_chunks:
            arr = (
                w_chunks[0]
                if len(w_chunks) == 1
                else np.concatenate(w_chunks)
            )
            latencies = now - arr
            request_hist.observe_many(latencies)
            nv = int((latencies > slo_ns).sum())
            state.slo_violations += nv
            if nv and viol is not None:
                m = int(arr[latencies > slo_ns].min())
                if vmin < 0 or m < vmin:
                    vmin = m
            w_chunks.clear()
        if viol is not None and vmin >= 0:
            _viol_add(viol, vmin + slo_ns, now)

    issued = 0
    w_start = w_end = 0
    while issued < n_mine:
        if issued == w_end:
            # Draw the next window; its batches below are views into it.
            window = min(DRAW_WINDOW, n_mine - issued)
            keys = sampler.sample(key_rng, window)
            w_write = op_rng.random(window) >= shape.read_fraction
            w_any_write = bool(w_write.any())
            w_iidx = index_map[store.index_pages(keys)]
            w_tidx = item_map[store.item_pages(keys)]
            w_arr = arrivals.take(window)
            w_start, w_end = issued, issued + window
        lo = issued - w_start
        batch = min(KEY_BATCH, w_end - issued)
        iidx = w_iidx[lo : lo + batch]
        tidx = w_tidx[lo : lo + batch]
        arr = w_arr[lo : lo + batch]
        write_mask = w_write[lo : lo + batch]
        any_write = w_any_write and bool(write_mask.any())
        # Once ``engine.now`` passes the batch's last arrival, every
        # request of the batch has arrived and the arrival checks below
        # are settled without reading the arrivals.
        arr_last = int(arr[-1])
        # Python-list mirrors for the scalar (arrival-bound) paths:
        # plain int indexing is several times cheaper than numpy scalar
        # indexing.  They materialize on first use, so a batch that has
        # wholly arrived and is fully vector-served never pays for them.
        arr_l: Optional[List[int]] = None
        iidx_l: Optional[List[int]] = None
        tidx_l: Optional[List[int]] = None
        wm_l: Optional[List[bool]] = None
        # One batch-wide classification, reused until this cgroup's
        # eviction epoch moves.  A cached True can only go stale through
        # an eviction (which bumps the epoch via uncharge); a cached
        # False can also go stale through this thread's *own* fault path
        # mapping the page back in — stale-False is safe because the
        # residue path re-reads live presence and serves the request as
        # a hit when both pages turn out resident.  ``pres_all`` (the
        # common steady-state: every page of the batch resident) elides
        # both the list mirror and the per-request run scan.
        pres_a = present[iidx] & present[tidx]
        n_pres = int(np.count_nonzero(pres_a))
        pres_all = n_pres == batch
        pres_l = None if pres_all else pres_a.tolist()
        pres_valid = True
        # Re-gathering after an invalidation only pays when the batch
        # is densely resident (long vector runs).  Sparse batches —
        # heavy-pressure cells where a classification serves only a
        # couple of requests before the next fault — serve scalar-style
        # off live reads instead.
        gather_ok = pres_all or n_pres * 10 >= batch * 9
        epoch = memcg.evict_epoch if memcg is not None else 0
        n_residue = 0
        pos = 0
        while pos < batch:
            now = engine.now
            if now < arr_last:
                if arr_l is None:
                    arr_l = arr.tolist()
                if arr_l[pos] > now:
                    # Next request not here yet: flush, re-check, sleep.
                    if pending_ns:
                        yield Compute(pending_ns)
                        pending_ns = 0
                    flush_observe()
                    arrival = arr_l[pos]
                    if arrival > engine.now:
                        yield Sleep(arrival - engine.now)
                    continue
            if (
                pres_valid
                and memcg is not None
                and memcg.evict_epoch != epoch
            ):
                # An eviction moved the epoch: just drop the cache.
                # Single pending requests serve off two live scalar
                # reads; a whole-batch re-gather waits for the next
                # multi-request run, where it amortizes — eviction-heavy
                # (arrival-bound) cells never have one and would
                # otherwise re-gather every few requests.
                pres_valid = False
            if not (pres_valid or gather_ok):
                # An invalidated sparse batch serves scalar-style, so
                # the exact burst length (a searchsorted per request)
                # is unused.
                k_arr = 1
            elif now >= arr_last:
                k_arr = batch - pos
            elif pos + 1 < batch and arr_l[pos + 1] <= now:
                k_arr = int(arr.searchsorted(now, side="right")) - pos
            else:
                k_arr = 1  # a single arrival
            if k_arr == 1 or (not pres_valid and k_arr <= 16):
                # Arrival-bound regime: one request pending (or a short
                # burst with the classification invalidated — serving
                # it request-by-request off live reads beats paying a
                # whole-batch re-gather for a handful of requests).
                # Scalar ops beat numpy call overhead on length-1
                # segments.
                if iidx_l is None:
                    if arr_l is None:
                        arr_l = arr.tolist()
                    iidx_l = iidx.tolist()
                    tidx_l = tidx.tolist()
                    wm_l = write_mask.tolist()
                if pres_valid:
                    hit = pres_all or pres_l[pos]
                else:
                    hit = bool(
                        present[iidx_l[pos]] and present[tidx_l[pos]]
                    )
                if hit:
                    t_j = tidx_l[pos]
                    accessed[iidx_l[pos]] = True
                    accessed[t_j] = True
                    if wm_l[pos]:
                        dirty[t_j] = True
                    stats.hits += 2
                    pending_ns += c
                    w_scalar.append(arr_l[pos])
                    pos += 1
                    if c and pending_ns >= quantum:
                        yield Compute(pending_ns)
                        pending_ns = 0
                        flush_observe()
                    continue
                k = 0
            else:
                k_max = k_arr
                if c:
                    k_q = -(-(quantum - pending_ns) // c)  # ceil
                    if k_q < k_max:
                        k_max = k_q
                if not pres_valid:
                    # A long run over a dense batch makes the re-gather
                    # pay off (gather_ok held, or we would not be here).
                    seg = present[iidx[pos:]] & present[tidx[pos:]]
                    pres_all = bool(seg.all())
                    if pres_all:
                        pres_l = None
                    else:
                        if pres_l is None:
                            pres_l = [True] * batch
                        pres_l[pos:] = seg.tolist()
                    gather_ok = (
                        pres_all
                        or int(seg.sum()) * 10 >= seg.shape[0] * 9
                    )
                    epoch = memcg.evict_epoch if memcg is not None else 0
                    pres_valid = True
                if pres_all:
                    k = k_max
                else:
                    k = 0
                    while k < k_max and pres_l[pos + k]:
                        k += 1
            if k > 0:
                seg_i = iidx[pos : pos + k]
                run_t = tidx[pos : pos + k]
                on_batch(flat, seg_i, False)
                if any_write:
                    wm = write_mask[pos : pos + k]
                    on_batch(flat, run_t[~wm], False)
                    on_batch(flat, run_t[wm], True)
                else:
                    on_batch(flat, run_t, False)
                stats.hits += 2 * k
                pending_ns += k * c
                if k <= 16:
                    # Tiny runs flush cheaper through the scalar
                    # waiting list than as numpy chunks (concatenate +
                    # observe_many overhead beats a short loop).  The
                    # aggregates are order-independent, so routing is
                    # bin-identical either way.
                    w_scalar.extend(
                        arr[pos : pos + k].tolist()
                        if arr_l is None
                        else arr_l[pos : pos + k]
                    )
                else:
                    w_chunks.append(arr[pos : pos + k])
                pos += k
                if c and pending_ns >= quantum:
                    yield Compute(pending_ns)
                    pending_ns = 0
                    flush_observe()
                    continue
                if k == k_arr or pos >= batch:
                    continue
            # Residue request at *pos*: arrived, under quantum budget,
            # classified non-resident (possibly stale-False) — the
            # scalar per-request path, verbatim, against live presence.
            if iidx_l is None:
                if arr_l is None:
                    arr_l = arr.tolist()
                iidx_l = iidx.tolist()
                tidx_l = tidx.tolist()
                wm_l = write_mask.tolist()
            arrival = arr_l[pos]
            write = wm_l[pos]
            pending_ns += c
            faulted = False
            i_j = iidx_l[pos]
            t_j = tidx_l[pos]
            if present[i_j]:
                stats.hits += 1
                accessed[i_j] = True
            else:
                yield Compute(pending_ns + overhead)
                pending_ns = 0
                flush_observe()
                page = pages[i_j]
                major = page.swap_slot is not None
                t0 = engine.now
                yield from system.handle_fault(
                    page, False, charge_overhead=False
                )
                fault_hist.observe(engine.now - t0)
                if major:
                    state.major_faults += 1
                else:
                    state.minor_faults += 1
                faulted = True
            # The item page is re-read *now*: an index fault above may
            # have yielded, and reclaim can evict (or the fault path
            # fill) it meanwhile — same re-check instant as scalar.
            if present[t_j]:
                stats.hits += 1
                accessed[t_j] = True
                if write:
                    dirty[t_j] = True
            else:
                yield Compute(pending_ns + overhead)
                pending_ns = 0
                flush_observe()
                page = pages[t_j]
                major = page.swap_slot is not None
                t0 = engine.now
                yield from system.handle_fault(
                    page, write, charge_overhead=False
                )
                fault_hist.observe(engine.now - t0)
                if major:
                    state.major_faults += 1
                else:
                    state.minor_faults += 1
                faulted = True
            if faulted:
                n_residue += 1
                latency = engine.now - arrival
                request_hist.observe(latency)
                if latency > slo_ns:
                    state.slo_violations += 1
                    if viol is not None:
                        _viol_add(viol, arrival + slo_ns, engine.now)
            else:
                # Stale-False: both pages live after all (this thread
                # faulted them in earlier in the batch) — a plain hit.
                w_scalar.append(arrival)
                if c and pending_ns >= quantum:
                    yield Compute(pending_ns)
                    pending_ns = 0
                    flush_observe()
            pos += 1
            # A stale-False residue means the cached classification is
            # actively lying — this thread's own faults flipped pages
            # False->True (the epoch guard only sees evictions).
            # Re-classify the rest of the batch so a cold stretch goes
            # back to vector serving instead of crawling
            # request-by-request.  A genuinely faulting residue skips
            # the refresh: its cache entry was *right*, and fault-heavy
            # (arrival-bound) cells would pay one gather per fault for
            # nothing.
            if not faulted and pos < batch:
                seg = present[iidx[pos:]] & present[tidx[pos:]]
                pres_all = bool(seg.all())
                if pres_all:
                    pres_l = None
                else:
                    if pres_l is None:
                        pres_l = [True] * batch
                    pres_l[pos:] = seg.tolist()
                gather_ok = (
                    pres_all or int(seg.sum()) * 10 >= seg.shape[0] * 9
                )
                epoch = memcg.evict_epoch if memcg is not None else 0
                pres_valid = True
        issued += batch
        LANE_STATS.requests += batch
        LANE_STATS.residue_requests += n_residue
        LANE_STATS.batches += 1
        if _mx.fleet_batch is not None:
            _mx.fleet_batch(batch, n_residue)
    if pending_ns:
        yield Compute(pending_ns)
    flush_observe()
    state.requests_done = issued
    return issued


# ----------------------------------------------------------------------
# The trial
# ----------------------------------------------------------------------

def run_fleet_trial(
    config: FleetConfig,
    policy_name: str,
    seed: int,
    fast_fleet: Optional[bool] = None,
    psi: Any = None,
    spans: Any = None,
) -> Dict[str, Any]:
    """One fleet execution on a fresh simulator; returns a sink row.

    ``fast_fleet`` selects the request-serving lane (vectorized vs
    scalar reference); ``None`` reads ``REPRO_FAST_FLEET`` (default
    on).  Both lanes emit identical command streams, so the returned
    row is byte-identical either way.

    ``psi`` opts the trial into kernel-style pressure-stall accounting:
    ``True`` (or a :class:`~repro.psi.PsiConfig`) installs a
    :class:`~repro.psi.PsiTracker` and adds a ``psi`` section to the
    row and to each tenant entry; ``False`` disables it; ``None`` reads
    ``REPRO_PSI`` (default off).  PSI is deliberately *not* part of
    :class:`FleetConfig` — it never changes simulation results, so the
    sink's config digest (and resumability) is independent of it.

    ``spans`` opts the trial into causal fault-span recording under the
    same contract: ``True`` (or a :class:`~repro.spans.SpansConfig`)
    installs a :class:`~repro.spans.SpanRecorder` and adds a ``spans``
    section to the row and to each tenant entry; ``False`` disables;
    ``None`` reads ``REPRO_SPANS`` (default off), with
    ``REPRO_SPANS_SAMPLE`` controlling head sampling of retained
    records.
    """
    if fast_fleet is None:
        fast_fleet = fast_fleet_enabled()
    if psi is None:
        psi = psi_enabled()
    psi_config: Optional[PsiConfig]
    if isinstance(psi, PsiConfig):
        psi_config = psi
    else:
        psi_config = PsiConfig() if psi else None
    if spans is None:
        spans = spans_enabled()
    spans_config: Optional[SpansConfig]
    if isinstance(spans, SpansConfig):
        spans_config = spans
    elif spans:
        spans_config = SpansConfig(sample_every=spans_sample_env())
    else:
        spans_config = None
    engine = Engine()
    rng = RngTree(seed)
    n = config.n_tenants

    # Shared per-shape data: one dataset build per *distinct* shape.
    shape_data = [
        _shape_dataset(shape, idx)
        for idx, shape in enumerate(config.shapes)
    ]

    # Per-tenant cgroup + inner policy instance (one lruvec each).
    cgroups: List[MemCgroup] = []
    footprints: List[int] = []
    total_footprint = 0
    for i in range(n):
        store: KVStore = shape_data[config.shape_index(i)]["store"]
        footprint = store.footprint_pages
        footprints.append(footprint)
        total_footprint += footprint
        cgroups.append(
            MemCgroup(
                name=f"t{i}",
                policy=make_policy(policy_name),
                limit_pages=_ratio_pages(footprint, config.limit_ratio),
                soft_limit_pages=_ratio_pages(
                    footprint, config.soft_limit_ratio
                ),
                low_pages=(
                    _ratio_pages(footprint, config.low_ratio)
                    if config.low_ratio
                    else 0
                ),
                min_pages=(
                    _ratio_pages(footprint, config.min_ratio)
                    if config.min_ratio
                    else 0
                ),
            )
        )
    root = MemcgPolicy(cgroups)

    capacity = max(64, int(total_footprint * config.capacity_ratio))
    sys_config = SystemConfig(
        policy=policy_name,
        swap=config.swap,
        capacity_ratio=config.capacity_ratio,
        n_cpus=config.n_cpus,
    )
    if config.swap == "ssd":
        device = SSDSwapDevice(
            engine, rng.stream("ssd"), sys_config.ssd_costs
        )
    else:
        device = ZRAMSwapDevice(rng.stream("zram"), sys_config.zram_costs)
    system = MemorySystem(
        engine,
        rng,
        root,
        device,
        capacity_frames=capacity,
        n_cpus=config.n_cpus,
        costs=sys_config.costs,
    )

    # Tenant layouts: region-aligned VMA pairs tagged with their memcg.
    starts: List[Any] = []
    for i, cg in enumerate(cgroups):
        store = shape_data[config.shape_index(i)]["store"]
        index = system.address_space.map_area(
            f"t{i}-kv-index",
            store.n_index_pages,
            PageKind.ANON,
            entropy=0.45,
            memcg=cg,
        )
        items = system.address_space.map_area(
            f"t{i}-kv-items",
            store.n_item_pages,
            PageKind.ANON,
            entropy=0.65,
            memcg=cg,
        )
        starts.append((index.start_vpn, items.start_vpn))
        # Multi-tenant MG-LRU walkers age only their own regions; the
        # solo case keeps the global walk (bit-identity with run_trial).
        inner = cg.policy
        if n > 1 and hasattr(inner, "regions_provider"):
            inner.regions_provider = (
                lambda _cg=cg: _cg.regions(system.address_space)
            )

    # Traffic: Zipf tenant popularity -> exact request shares -> per-
    # tenant Poisson arrivals at each tenant's share of the fleet rate.
    pop_rank = rng.stream("fleet", "popularity").permutation(n)
    weights = [
        1.0 / float(pop_rank[i] + 1) ** config.tenant_zipf_theta
        for i in range(n)
    ]
    shares = apportion_requests(config.n_requests_total, weights)
    states = [_TenantState() for _ in range(n)]
    w_sum = sum(weights)
    body = _tenant_body_fast if fast_fleet else _tenant_body
    if fast_fleet:
        LANE_STATS.fast_trials += 1
    else:
        LANE_STATS.scalar_trials += 1
    if _mx.fleet_lane is not None:
        _mx.fleet_lane(bool(fast_fleet))
    for i in range(n):
        if shares[i] == 0:
            continue
        rate_rps = config.arrival_rate_rps * weights[i] / w_sum
        arrivals = _Arrivals(
            rng.stream("fleet", "arrivals", i), 1e9 / rate_rps
        )
        shape = config.shape_of(i)
        data = shape_data[config.shape_index(i)]
        system.spawn_app_thread(
            body(
                system,
                i,
                shape,
                data["store"],
                data["sampler"],
                arrivals,
                shares[i],
                starts[i][0],
                starts[i][1],
                config.slo_ns,
                states[i],
                cgroups[i],
            ),
            f"tenant-{i}",
        )

    # PSI installs *before* the engine runs: a pure observer (two
    # ``None``-default slots on system/cpu plus a Sleep-only sampler
    # daemon), so PSI-on leaves every pre-existing row field
    # byte-identical to PSI-off.
    tracker: Optional[PsiTracker] = None
    if psi_config is not None:
        tracker = PsiTracker(engine, psi_config)
        for cg in cgroups:
            tracker.add_group(cg, record_intervals=True)
        tracker.install(system)
        engine.spawn(
            tracker.run_sampler(), name="psi-sampler", daemon=True
        )

    # Spans install under the identical observer contract: three
    # ``None``-default slots plus an optional Sleep-only profiler
    # daemon, so spans-on rows stay byte-identical in every
    # pre-existing field.
    recorder: Optional[SpanRecorder] = None
    if spans_config is not None:
        recorder = SpanRecorder(engine, spans_config)
        recorder.install(system)
        if spans_config.profile_interval_ns > 0:
            engine.spawn(
                recorder.run_profiler(), name="spans-profiler",
                daemon=True,
            )

    system.start()
    runtime_ns = engine.run()
    audit_usage(system)  # ledger invariant: sum(usage) == frames used
    if tracker is not None:
        tracker.finalize(runtime_ns)
    span_table = None
    if recorder is not None:
        span_table = recorder.finalize(runtime_ns)
        recorder.detach()

    stats = system.stats
    tenants = []
    for i, cg in enumerate(cgroups):
        state = states[i]
        entry = {
            "tenant": i,
            "shape": config.shape_index(i),
            "requests": state.requests_done,
            "footprint_pages": footprints[i],
            "usage_pages": cg.usage_pages,
            "limit_pages": cg.limit_pages,
            "fault_hist": state.fault_hist._to_obj(),
            "request_hist": state.request_hist._to_obj(),
            "slo_violations": state.slo_violations,
            "major_faults": state.major_faults,
            "minor_faults": state.minor_faults,
            "memcg": cg.stats.snapshot(),
        }
        if span_table is not None:
            # The tenant's exact critical-path decomposition: segment
            # sums over *all* of its faults.  ``total_ns`` equals the
            # tenant's measured fault-latency sum exactly (the root
            # span brackets the same ``handle_fault`` call the serving
            # lanes time) — the identity the spans tests pin.
            entry["spans"] = {
                "faults": span_table.group_faults.get(cg.name, 0),
                "total_ns": span_table.group_total_ns.get(cg.name, 0),
                "seg_ns": dict(
                    sorted(span_table.group_ns.get(cg.name, {}).items())
                ),
            }
        if tracker is not None:
            group = tracker.group_for(cg)
            assert group is not None
            # Both interval lists are sorted and disjoint by
            # construction, so the overlap is exact.  Tenant groups
            # track a single thread (full == some), so the some-side
            # stall intervals *are* the full-stall windows.
            viol_ivs = state.viol_intervals
            viol_ns = sum(e - s for s, e in viol_ivs)
            entry["psi"] = {
                "pressure": group.snapshot(),
                "stall_ns": int(group.some_total_ns),
                "viol_ns": int(viol_ns),
                "viol_stall_ns": int(
                    interval_overlap_ns(viol_ivs, group.stall_intervals)
                ),
            }
        tenants.append(entry)
    row: Dict[str, Any] = {
        "kind": "trial",
        "format": ROW_FORMAT,
        "policy": policy_name,
        "seed": seed,
        "runtime_ns": int(runtime_ns),
        "slo_ns": config.slo_ns,
        "capacity_frames": capacity,
        "total_footprint_pages": total_footprint,
        "totals": {
            "major_faults": int(stats.major_faults),
            "minor_faults": int(stats.minor_faults),
            "evictions": int(stats.evictions),
            "swap_reads": int(system.swap_device.stats.reads),
            "swap_writes": int(system.swap_device.stats.writes),
        },
        "tenants": tenants,
    }
    if span_table is not None:
        # Full table dump: mergeable across rows/policies with
        # ``SpanTable.from_obj(...).merge(...)``; JSON-safe for the
        # sink.  Retained-record volume is bounded by ``max_spans``
        # and the ``REPRO_SPANS_SAMPLE`` head sampling.
        row["spans"] = span_table.to_obj()
    if tracker is not None:
        row["psi"] = {
            "system": tracker.system.snapshot(),
            "samples": [
                [int(t), int(s), int(f), round(a10, 6), round(b10, 6)]
                for t, s, f, a10, b10 in tracker.samples
            ],
            # Steal matrix as sorted (requester, victim, pages) triples:
            # order-independent to aggregate, deterministic to render.
            "steals": [
                [r, v, pages]
                for (r, v), pages in sorted(tracker.steals.items())
            ],
        }
    return row


# ----------------------------------------------------------------------
# Solo-memcg trial (the equivalence harness)
# ----------------------------------------------------------------------

def run_memcg_trial(
    workload_name: str, system_config: SystemConfig, seed: int
):
    """``run_trial`` with the whole workload inside one unlimited memcg.

    The memcg layer's zero-cost contract says this is bit-identical to
    the plain trial: a single unlimited cgroup delegates reclaim
    verbatim, scopes no RNG streams, and keeps the global MG-LRU walk.
    The equivalence test asserts exactly that.
    """
    from repro.core.results import TrialResult
    from repro.workloads import make_workload

    engine = Engine()
    rng = RngTree(seed)
    workload = make_workload(workload_name)
    dataset_rng = RngTree(DATASET_SEED).subtree("dataset", workload_name)
    footprint = workload.prepare(dataset_rng)
    capacity = max(64, int(footprint * system_config.capacity_ratio))
    inner = make_policy(system_config.policy)
    cg = MemCgroup(name="solo", policy=inner)
    root = MemcgPolicy([cg])
    if system_config.swap == "ssd":
        device = SSDSwapDevice(
            engine, rng.stream("ssd"), system_config.ssd_costs
        )
    else:
        device = ZRAMSwapDevice(
            rng.stream("zram"), system_config.zram_costs
        )
    system = MemorySystem(
        engine,
        rng,
        root,
        device,
        capacity_frames=capacity,
        n_cpus=system_config.n_cpus,
        costs=system_config.costs,
    )
    workload.setup(system)
    cg.adopt(system.address_space)
    system.start()
    workload.spawn(system)
    runtime_ns = engine.run()
    audit_usage(system)
    stats = system.stats
    stats.rmap_walks = system.rmap.walk_count
    wl_result = workload.result()
    counters = stats.snapshot()
    counters["swap_reads"] = system.swap_device.stats.reads
    counters["swap_writes"] = system.swap_device.stats.writes
    counters["cpu_utilization"] = system.cpu.utilization()
    return TrialResult(
        workload=workload_name,
        policy=system_config.policy,
        swap=system_config.swap,
        capacity_ratio=system_config.capacity_ratio,
        seed=seed,
        runtime_ns=runtime_ns,
        major_faults=stats.major_faults,
        minor_faults=stats.minor_faults,
        counters=counters,
        metrics=wl_result.metrics,
        latencies_ns=wl_result.latencies_ns,
        footprint_pages=footprint,
        capacity_frames=capacity,
    )
