"""One fleet trial: N tenants, one frame pool, per-tenant memcgs.

``run_fleet_trial`` is the fleet analogue of
:func:`repro.core.experiment.run_trial`: a completely fresh simulator
per (config, policy, seed), returning one JSON-safe *row* for the
:class:`~repro.fleet.sink.JsonlSink`.  Memory stays bounded regardless
of request count: per-tenant latency distributions are streaming log2
:class:`~repro.histogram.Histogram`\\ s (64 integers each), never
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

from repro.core.config import SystemConfig
from repro.core.experiment import DATASET_SEED, build_system
from repro.fleet.config import FleetConfig, TenantShape, apportion_requests
from repro.memcg import MemCgroup, MemcgPolicy, audit_usage
from repro.histogram import Histogram
from repro.mm.page import PageKind
from repro.mm.system import MemorySystem
from repro.policies import make_policy
from repro.psi import PsiConfig, PsiTracker, interval_overlap_ns
from repro.sim.engine import Engine
from repro.sim.events import Compute, Sleep
from repro.sim.rng import RngTree
from repro.spans import SpanRecorder, SpansConfig
from repro.trace import tracepoints as _tp
from repro.workloads import datasets
from repro.workloads.kvstore import KVStore
from repro.workloads.zipf import ZipfSampler

#: Row format tag (also the sink's header format).
ROW_FORMAT = "repro.fleet/v2"

#: Requests served and accounted per batch inside a tenant thread
#: (matches the YCSB workload's batching idiom).  It stays the unit of
#: ``LANE_STATS`` and the ``fleet_batch`` hook when a window run serves
#: several batches at once: the run accounts each one it covers.
KEY_BATCH = 256

#: Requests per draw window: a run of one tenant's requests whose keys,
#: ops and arrival instants each come from one numpy call, then serve
#: batch by batch, or the rest of the window as one window run.  A
#: multiple of ``KEY_BATCH``, so windows split into whole batches.
#: Generators consume their streams value by value, so the draws do not
#: depend on the window size.
DRAW_WINDOW = 8 * KEY_BATCH


class _LaneStats:
    """Process-global fleet serving-loop telemetry.

    Always-on counters (two integer adds per KEY_BATCH), independent of
    the metrics plane; the ``fleet_batch``/``fleet_lane`` events feed the
    same numbers into a :class:`~repro.metrics.session.MetricsSession`
    registry as ``repro_fleet_*`` metrics.  The loop reports identical
    request/residue counts for the same cell with its window runs on
    or off — only the fast/scalar trial counters tell the modes apart —
    so surfacing them can never leak the mode into sink rows or reports.
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


#: Serving-loop counters for this process (reset freely in tests).
LANE_STATS = _LaneStats()


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
        #: Coalesced SLO-violation windows ``[deadline, completion]``,
        #: a list only while PSI is on (the attribution section overlaps
        #: them against the tenant's PSI stall intervals).
        self.viol_intervals: Optional[List[List[int]]] = None


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
    shortcut: bool = True,
) -> Iterator[Any]:
    """Open-loop server for one tenant.

    **Burst semantics** (the loop's contract, which it obeys with its
    shortcut on or off, so rows are byte-identical either way):
    requests that have already arrived and hit resident pages accrue
    their per-request compute into ``pending_ns`` instead of yielding
    one ``Compute`` each; the accrued work flushes as a single
    ``Compute`` at the first *flush point* —

    - ``pending_ns`` reaches the CPU compute quantum,
    - the next request has not arrived yet (flush, re-check, sleep),
    - a request misses a page (the flush folds the fault's trap
      overhead, then ``handle_fault(..., charge_overhead=False)``), or
    - the tenant's request trace ends.

    A hit request completes at the flush of the burst containing its
    compute; its latency (completion minus *arrival*, queueing
    included) is what the SLO judges.  A faulting request completes
    when its last fault resolves.  Fault latency is still measured
    around each ``handle_fault`` alone.

    **Two serving paths.**  The per-request path serves a
    ``KEY_BATCH`` one request at a time through Python-list mirrors of
    the batch (plain int indexing is several times cheaper than numpy
    scalar indexing), reading live presence: a hit sets its PTE bits
    and waits for the burst's flush, and a miss takes the fault path.

    With ``shortcut=True``, a batch boundary may instead start a
    *window run*.  When the rest of the draw window has arrived, fits
    the remaining compute quantum (its last request may reach the
    quantum and flush) and finds both pages of every request resident
    in one gather over the flat PTE mirror, the per-request path would
    serve it as back-to-back hits without yielding (between two flush
    points no other thread runs, so no page can leave), and one run
    does the same stores: three batched ``policy.on_batch_access``
    calls for the accessed and dirty bits, one hit-counter add, and the
    run's arrivals as one chunk for the burst's flush.  It accounts
    ``LANE_STATS`` and one ``fleet_batch`` event per covered
    ``KEY_BATCH``, the last one after any quantum flush the run ends
    on, as the per-request path does.  Window indices come straight
    from the drawn Zipf ranks through per-tenant rank -> PTE index
    maps composed once.

    A burst's flush records its hits from their arrivals alone.  For a
    window run's chunk, ``Histogram.observe_elapsed`` searches the
    sorted arrivals for the bucket edges (binning identically to scalar
    ``observe``), one ``searchsorted`` counts the SLO violators, and
    the earliest arrival opens the PSI violation window, so no
    per-request latency array is built.
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
    viol = state.viol_intervals
    # Per-tenant rank -> flat PTE index maps, composed once from the
    # rank permutation, the KV layout and the PTE translation: the
    # tenant's layout is static, so a window's index and item pages are
    # one gather each from its drawn Zipf ranks.
    index_map = flat.translate(index_start + np.arange(store.n_index_pages))
    item_map = flat.translate(item_start + np.arange(store.n_item_pages))
    assert index_map is not None and item_map is not None, "vpn unmapped"
    items = sampler.item_of_rank
    rank_iidx = index_map[store.index_pages(items)]
    rank_tidx = item_map[store.item_pages(items)]
    # ``random()`` lies in [0, 1): at read_fraction 1.0 (0.0) every op
    # is a read (a write), so windows take a constant mask instead of an
    # op draw.  The op stream feeds nothing else.
    fixed_write = shape.read_fraction == 0.0
    fixed_mask: Optional[np.ndarray] = (
        np.full(DRAW_WINDOW, fixed_write)
        if shape.read_fraction in (0.0, 1.0)
        else None
    )
    pending_ns = 0
    #: Hit requests awaiting their burst flush: single arrivals from
    #: the per-request path, arrival-slice chunks from window runs.
    #: Histogram binning and the SLO count are order-independent sums,
    #: so observing the scalars before the chunks matches arrival order
    #: bin-for-bin.
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
            # Chunks are arrival slices appended in serving order, so
            # their concatenation is non-decreasing: the histogram
            # searches it, and the SLO violators (arrival before
            # ``now - slo_ns``) are a prefix led by ``arr[0]``.
            arr = (
                w_chunks[0]
                if len(w_chunks) == 1
                else np.concatenate(w_chunks)
            )
            request_hist.observe_elapsed(now, arr)
            nv = int(arr.searchsorted(now - slo_ns, side="left"))
            if nv:
                state.slo_violations += nv
                m = int(arr[0])
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
            ranks = sampler.sample_ranks(key_rng, window)
            if fixed_mask is None:
                w_write = op_rng.random(window) >= shape.read_fraction
                w_any_write = bool(w_write.any())
            else:
                w_write = fixed_mask[:window]
                w_any_write = fixed_write
            w_iidx = rank_iidx[ranks]
            w_tidx = rank_tidx[ranks]
            w_arr = arrivals.take(window)
            w_arr_last = int(w_arr[-1])
            w_start, w_end = issued, issued + window
        lo = issued - w_start
        if shortcut and engine.now >= w_arr_last:
            # The rest of the window has arrived: a window run if it
            # fits the remaining quantum and is wholly resident.
            rest = w_end - issued
            if not c or rest <= -(-(quantum - pending_ns) // c):
                rest_i = w_iidx[lo:]
                rest_t = w_tidx[lo:]
                if (present[rest_i] & present[rest_t]).all():
                    on_batch(flat, rest_i, False)
                    if w_any_write:
                        rest_w = w_write[lo:]
                        on_batch(flat, rest_t[~rest_w], False)
                        on_batch(flat, rest_t[rest_w], True)
                    else:
                        on_batch(flat, rest_t, False)
                    stats.hits += 2 * rest
                    pending_ns += rest * c
                    w_chunks.append(w_arr[lo:])
                    # Account each covered KEY_BATCH as the per-request
                    # path does, the last one after the run's flush.
                    n_before = (rest - 1) // KEY_BATCH
                    issued = w_end
                    LANE_STATS.requests += rest
                    LANE_STATS.batches += n_before + 1
                    if _tp.fleet_batch is not None:
                        for _ in range(n_before):
                            _tp.fleet_batch(KEY_BATCH, 0)
                    if c and pending_ns >= quantum:
                        yield Compute(pending_ns)
                        pending_ns = 0
                        flush_observe()
                    if _tp.fleet_batch is not None:
                        _tp.fleet_batch(rest - n_before * KEY_BATCH, 0)
                    continue
        batch = min(KEY_BATCH, w_end - issued)
        hi = lo + batch
        n_residue = 0
        for arrival, i_j, t_j, write in zip(
            w_arr[lo:hi].tolist(),
            w_iidx[lo:hi].tolist(),
            w_tidx[lo:hi].tolist(),
            w_write[lo:hi].tolist(),
        ):
            if arrival > engine.now:
                # Next request not here yet: flush, re-check, sleep.
                if pending_ns:
                    yield Compute(pending_ns)
                    pending_ns = 0
                flush_observe()
                if arrival > engine.now:
                    yield Sleep(arrival - engine.now)
            pending_ns += c
            if present[i_j] and present[t_j]:
                accessed[i_j] = True
                accessed[t_j] = True
                if write:
                    dirty[t_j] = True
                stats.hits += 2
                w_scalar.append(arrival)
                if c and pending_ns >= quantum:
                    yield Compute(pending_ns)
                    pending_ns = 0
                    flush_observe()
                continue
            # A miss: the per-request fault path.
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
            # The item page is re-read *now*: an index fault above may
            # have yielded, and reclaim can evict (or the fault path
            # fill) it meanwhile.
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
            n_residue += 1
            latency = engine.now - arrival
            request_hist.observe(latency)
            if latency > slo_ns:
                state.slo_violations += 1
                if viol is not None:
                    _viol_add(viol, arrival + slo_ns, engine.now)
        issued += batch
        LANE_STATS.requests += batch
        LANE_STATS.residue_requests += n_residue
        LANE_STATS.batches += 1
        if _tp.fleet_batch is not None:
            _tp.fleet_batch(batch, n_residue)
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
    fast_fleet: bool = True,
    psi: Any = False,
    spans: Any = False,
) -> Dict[str, Any]:
    """One fleet execution on a fresh simulator; returns a sink row.

    ``fast_fleet`` turns the serving loop's window runs on (the
    default) or off (every request served one at a time).  Both modes
    emit identical command streams, so the returned row is
    byte-identical either way.

    ``psi`` opts the trial into kernel-style pressure-stall accounting:
    ``True`` (or a :class:`~repro.psi.PsiConfig`) installs a
    :class:`~repro.psi.PsiTracker` and adds a ``psi`` section to the
    row and to each tenant entry; a false value (the default) leaves
    it off.  PSI is deliberately *not* part of :class:`FleetConfig` —
    it never changes simulation results, so the sink's config digest
    (and resumability) is independent of it.

    ``spans`` opts the trial into causal fault-span recording under the
    same contract: ``True`` (or a :class:`~repro.spans.SpansConfig`,
    whose ``sample_every`` head-samples retained records) installs a
    :class:`~repro.spans.SpanRecorder` and adds a ``spans`` section to
    the row and to each tenant entry; a false value (the default)
    leaves it off.
    """
    psi_config: Optional[PsiConfig]
    if isinstance(psi, PsiConfig):
        psi_config = psi
    else:
        psi_config = PsiConfig() if psi else None
    spans_config: Optional[SpansConfig]
    if isinstance(spans, SpansConfig):
        spans_config = spans
    elif spans:
        spans_config = SpansConfig()
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
    system = build_system(engine, rng, sys_config, capacity, root)

    try:
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
        if psi_config is not None:
            for state in states:
                state.viol_intervals = []
        w_sum = sum(weights)
        if fast_fleet:
            LANE_STATS.fast_trials += 1
        else:
            LANE_STATS.scalar_trials += 1
        if _tp.fleet_lane is not None:
            _tp.fleet_lane(bool(fast_fleet))
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
                _tenant_body(
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
                    fast_fleet,
                ),
                f"tenant-{i}",
            )

        # PSI and spans attach to the observer bus *before* the engine
        # runs: pure observers (probes plus a Sleep-only sampler or
        # profiler daemon), so PSI-on and spans-on rows stay byte-identical
        # in every pre-existing field.
        tracker: Optional[PsiTracker] = None
        if psi_config is not None:
            tracker = PsiTracker(engine, psi_config)
            for cg in cgroups:
                tracker.add_group(cg, record_intervals=True)
            engine.spawn(
                tracker.run_sampler(), name="psi-sampler", daemon=True
            )
        recorder: Optional[SpanRecorder] = None
        if spans_config is not None:
            recorder = SpanRecorder(engine, spans_config)
            if spans_config.profile_interval_ns > 0:
                engine.spawn(
                    recorder.run_profiler(), name="spans-profiler",
                    daemon=True,
                )
        try:
            if tracker is not None:
                tracker.install(system)
            if recorder is not None:
                recorder.install(system)
            system.start()
            runtime_ns = engine.run()
        finally:
            # Probes are process-global; detach even on error paths so a
            # failed trial cannot leak them into the next one.
            if tracker is not None:
                tracker.detach()
            if recorder is not None:
                recorder.detach()
        audit_usage(system)  # ledger invariant: sum(usage) == frames used
        if tracker is not None:
            tracker.finalize(runtime_ns)
        span_table = None
        if recorder is not None:
            span_table = recorder.finalize(runtime_ns)

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
                # loop times) — the identity the spans tests pin.
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
            # and the ``sample_every`` head sampling.
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
    finally:
        system.release()


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
    system = build_system(engine, rng, system_config, capacity, root)
    try:
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
    finally:
        system.release()
