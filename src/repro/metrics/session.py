"""Per-trial metrics wiring: recorders, registry, finalize.

A :class:`MetricsSession` is the metrics plane's analogue of
:class:`~repro.trace.session.TraceSession`: created for one trial from
a :class:`~repro.metrics.config.MetricsConfig` and the trial's
``MemorySystem``, it

- builds a fresh :class:`~repro.metrics.registry.MetricsRegistry`,
- attaches one passive recorder closure per event it meters
  (:mod:`repro.trace.tracepoints`, :meth:`start`), each pre-bound to
  the child metric it feeds, and
- at teardown (:meth:`finalize`) detaches every recorder, imports the
  authoritative trial-end counter table, and returns the picklable
  registry that travels back from ``REPRO_JOBS`` workers on
  ``TrialResult.metrics_registry``.

Recorders only read the simulated clock and accumulate into plain
Python/numpy aggregates; they never touch simulator state or RNG
streams, so a metered trial is bit-identical to an unmetered one.

The high-frequency histogram recorders (faults, swap I/O, rmap walks)
do not bin on the hot path: they append raw observations to Python
lists and :meth:`finalize` flushes each buffer with one vectorized
``observe_many``.  A list append costs ~10x less than a scalar
histogram update, which keeps the metered/unmetered throughput ratio
inside the reclaim benchmark's 5% gate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.config import MetricsConfig
from repro.metrics.registry import MetricsRegistry
from repro.psi import tracker as psi_tracker
from repro.trace import tracepoints

#: ``MMStats`` / derived counters exported as ``repro_mm_<name>_total``
#: at finalize.  The list lives in :mod:`repro.trace.vmstat` so the
#: trace and metrics planes can never disagree about counter names.
from repro.trace.vmstat import DERIVED_COUNTERS, GAUGES, MM_COUNTERS


class MetricsSession:
    """Owns one trial's recorders and registry from start to finalize."""

    def __init__(
        self,
        config: MetricsConfig,
        system: Any,
        cache_baseline: Optional[Dict[str, int]] = None,
    ) -> None:
        """``cache_baseline``: a :meth:`snapshot_cache_stats` taken at
        trial start.  Datasets are prepared *before* the system (and so
        this session) exists, so the caller must capture the baseline
        first for the trial's own dataset traffic to show in the delta;
        when omitted, construction time is the baseline."""
        self.config = config
        self.system = system
        self.registry = MetricsRegistry()
        self._recorders: List[Tuple[str, Callable[..., None]]] = []
        self._flushers: List[Callable[[], None]] = []
        self._attached = False
        self._finalized = False
        self._cache_baseline = (
            cache_baseline
            if cache_baseline is not None
            else self.snapshot_cache_stats()
        )
        self._build_recorders()

    @staticmethod
    def snapshot_cache_stats() -> Dict[str, int]:
        """Current dataset-cache counters (tracecache + process memo).

        The session keeps a baseline from construction time and imports
        only the *delta* at finalize, so per-trial registries report the
        cache traffic of that trial alone even though the underlying
        counters are process-global.  Imported lazily:
        ``repro.workloads`` pulls in the mm stack, and importing it at
        module scope would create a cycle through ``repro.metrics``.
        """
        from repro.core import tracecache
        from repro.workloads import datasets

        snap = {
            f"tracecache_{k}": v for k, v in tracecache.STATS.snapshot().items()
        }
        memo = datasets.MEMO_STATS.snapshot()
        snap["dataset_memo_hits"] = memo["hits"]
        snap["dataset_memo_misses"] = memo["misses"]
        return snap

    def _buffer_scalars(self, hist: Any) -> List[int]:
        """A raw-observation buffer flushed into *hist* at finalize."""
        buf: List[int] = []

        def flush(_h=hist, _b=buf):
            if _b:
                _h.observe_many(np.asarray(_b, dtype=np.int64))
                _b.clear()

        self._flushers.append(flush)
        return buf

    def _buffer_chunks(self, hist: Any) -> List[Any]:
        """A buffer of array/list chunks, concatenated at finalize."""
        chunks: List[Any] = []

        def flush(_h=hist, _c=chunks):
            if _c:
                _h.observe_many(
                    np.concatenate(
                        [np.asarray(c, dtype=np.int64) for c in _c]
                    )
                )
                _c.clear()

        self._flushers.append(flush)
        return chunks

    # ------------------------------------------------------------------
    # Recorder construction
    # ------------------------------------------------------------------

    def _build_recorders(self) -> None:
        reg = self.registry
        engine = self.system.engine
        device_name = self.system.swap_device.name

        # -- fault path -------------------------------------------------
        fault = reg.histogram(
            "repro_fault_service_ns",
            help="End-to-end fault service time as seen by the faulting "
            "thread, from fault entry to page mapped.",
            unit="nanoseconds",
            labelnames=("kind",),
        )
        maj_buf = self._buffer_scalars(fault.labels(kind="major"))
        min_buf = self._buffer_scalars(fault.labels(kind="minor"))

        def on_major(vpn, latency_ns, write, _b=maj_buf.append):
            _b(latency_ns)

        def on_minor(vpn, latency_ns, write, _b=min_buf.append):
            _b(latency_ns)

        self._recorders.append(("mm_fault_major", on_major))
        self._recorders.append(("mm_fault_minor", on_minor))

        # -- reclaim ----------------------------------------------------
        rmap_chunks = self._buffer_chunks(
            reg.histogram(
                "repro_rmap_walk_ns",
                help="Per-page reverse-map walk cost during eviction triage.",
                unit="nanoseconds",
            ).labels()
        )
        self._recorders.append(("rmap_walk_block", rmap_chunks.append))

        scanned = reg.counter(
            "repro_reclaim_scanned_total",
            help="Pages triaged by reclaim scans.",
            unit="pages",
        ).labels()
        young = reg.counter(
            "repro_reclaim_young_total",
            help="Triaged pages found accessed (rescued from eviction).",
            unit="pages",
        ).labels()

        def on_scan(pages, flags, list_id, _s=scanned, _y=young):
            # ``flags`` None: the policy never reads the accessed bit,
            # so every triaged page counts as scanned, none as young.
            _s.inc(len(pages))
            _y.inc(sum(flags) if flags is not None else 0)

        self._recorders.append(("mm_vmscan_scan", on_scan))

        evict_buf = self._buffer_scalars(
            reg.histogram(
                "repro_evict_block_pages",
                help="Eviction block size (pages handed to evict_pages "
                "per batch).",
                unit="pages",
            ).labels()
        )

        def on_wait(kind, memcg, memstall, subject, _b=evict_buf.append):
            if kind == "evict_triage":  # an eviction block starts
                _b(len(subject))

        self._recorders.append(("wait_begin", on_wait))

        # -- swap I/O ---------------------------------------------------
        swap = reg.histogram(
            "repro_swap_io_ns",
            help="Swap device I/O latency (queueing + service) per page.",
            unit="nanoseconds",
            labelnames=("device", "op"),
        )
        read_buf = self._buffer_scalars(
            swap.labels(device=device_name, op="read")
        )
        write_buf = self._buffer_scalars(
            swap.labels(device=device_name, op="write")
        )
        read_chunks = self._buffer_chunks(
            swap.labels(device=device_name, op="read")
        )
        write_chunks = self._buffer_chunks(
            swap.labels(device=device_name, op="write")
        )

        def on_swap_io(
            vpn, latency_ns, is_write, _r=read_buf.append, _w=write_buf.append
        ):
            (_w if is_write else _r)(latency_ns)

        def on_swap_batch(
            pages, latencies, is_write, _r=read_chunks.append, _w=write_chunks.append
        ):
            (_w if is_write else _r)(latencies)

        self._recorders.append(("swap_io_done", on_swap_io))
        self._recorders.append(("swap_io_batch", on_swap_batch))

        # -- MG-LRU generation ages ------------------------------------
        gen_age = reg.histogram(
            "repro_mglru_gen_age_ns",
            help="Simulated age of an MG-LRU generation when it is "
            "retired (min_seq advances past it).",
            unit="nanoseconds",
        ).labels()
        births: Dict[int, int] = {0: 0}  # gen 0 exists from t=0

        def on_gen_step(min_seq, max_seq, created, _b=births, _e=engine, _h=gen_age):
            if created:
                _b[max_seq] = _e._now
            else:  # min_seq advanced past the retired generation
                _h.observe(_e._now - _b.pop(min_seq - 1, 0))

        self._recorders.append(("mglru_gen_step", on_gen_step))

        # -- engine / threads ------------------------------------------
        events = reg.counter(
            "repro_engine_events_total",
            help="Events dispatched by the simulation engine, by queue "
            "(zero-delay immediate deque vs time-ordered heap).  The "
            "CPU timer slot's fires and CPU run-aheads count as heap "
            "dispatches; a re-armed slot timer leaves no superseded "
            "event to dispatch.",
            unit="events",
            labelnames=("queue",),
        )
        ev_imm = events.labels(queue="imm")
        ev_heap = events.labels(queue="heap")

        def on_engine_events(n_imm, n_heap, _i=ev_imm, _h=ev_heap):
            _i.inc(n_imm)
            _h.inc(n_heap)

        self._recorders.append(("engine_events", on_engine_events))

        compute_buf = self._buffer_scalars(
            reg.histogram(
                "repro_thread_compute_ns",
                help="Compute time requested by each simulated thread over "
                "its lifetime, observed at thread exit.",
                unit="nanoseconds",
            ).labels()
        )
        self._recorders.append(("thread_done", compute_buf.append))

        # -- fleet serving lane ----------------------------------------
        fleet_reqs = reg.counter(
            "repro_fleet_batch_requests_total",
            help="Requests served through fleet tenant key batches.",
            unit="requests",
        ).labels()
        fleet_residue = reg.counter(
            "repro_fleet_residue_requests_total",
            help="Fleet batch requests that faulted (left the batched "
            "hit path for the scalar fault path).",
            unit="requests",
        ).labels()
        residue_buf = self._buffer_scalars(
            reg.histogram(
                "repro_fleet_residue_per_batch",
                help="Faulting (residue) requests per fleet key batch — "
                "the fast lane's vectorization quality: 0 means the "
                "whole batch served from resident pages.",
                unit="requests",
            ).labels()
        )

        def on_fleet_batch(
            n_requests,
            n_residue,
            _r=fleet_reqs,
            _f=fleet_residue,
            _b=residue_buf.append,
        ):
            _r.inc(n_requests)
            _f.inc(n_residue)
            _b(n_residue)

        self._recorders.append(("fleet_batch", on_fleet_batch))

        fleet_trials = reg.counter(
            "repro_fleet_trials_total",
            help="Fleet trials by serving mode (fast = batch shortcut "
            "on, scalar = shortcut off, every request served alone).",
            unit="trials",
            labelnames=("lane",),
        )
        lane_fast = fleet_trials.labels(lane="fast")
        lane_scalar = fleet_trials.labels(lane="scalar")

        def on_fleet_lane(fast, _f=lane_fast, _s=lane_scalar):
            (_f if fast else _s).inc()

        self._recorders.append(("fleet_lane", on_fleet_lane))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Attach every recorder to its event (idempotent)."""
        if self._attached:
            return
        for name, recorder in self._recorders:
            tracepoints.attach(name, recorder)
        self._attached = True

    def detach(self) -> None:
        """Detach every recorder (idempotent; safe on error paths)."""
        if not self._attached:
            return
        for name, recorder in self._recorders:
            tracepoints.detach(name, recorder)
        self._attached = False

    def finalize(
        self,
        runtime_ns: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> MetricsRegistry:
        """Detach, import trial-end aggregates, return the registry.

        Runs after the caller's post-run counter fixups (the same
        ordering contract as ``TraceSession.finalize``), so the
        imported ``repro_mm_*`` totals equal the trial's authoritative
        aggregate counters.
        """
        self.detach()
        if not self._finalized:
            self._finalized = True
            for flush in self._flushers:
                flush()
            reg = self.registry
            reg.counter(
                "repro_trials_total",
                help="Trials aggregated into this registry.",
                unit="trials",
            ).inc()
            reg.counter(
                "repro_sim_runtime_ns_total",
                help="Simulated runtime summed over aggregated trials.",
                unit="nanoseconds",
            ).inc(int(runtime_ns))
            if self.config.import_counters:
                self._import_final_counters()
                self._import_cache_counters()
                self._import_psi_counters()
            if meta:
                reg.meta.update(meta)
            reg.meta["runtime_ns"] = int(runtime_ns)
        return self.registry

    def _import_final_counters(self) -> None:
        """Copy the trial-end counter/gauge table into the registry.

        Reads the same authoritative sources as
        :meth:`repro.trace.vmstat.VmStatSampler.sample`, so the
        imported totals match the final vmstat row of a traced trial.
        """
        reg = self.registry
        system = self.system
        stats = system.stats
        values: Dict[str, int] = {
            name: int(getattr(stats, name)) for name in MM_COUNTERS
        }
        values["rmap_walks"] = int(system.rmap.walk_count)
        dev = system.swap_device.stats
        values["swap_reads"] = int(dev.reads)
        values["swap_writes"] = int(dev.writes)
        values["swap_slot_stores"] = int(system.swap.stores)
        values["swap_slot_loads"] = int(system.swap.loads)
        for name in MM_COUNTERS + DERIVED_COUNTERS:
            reg.counter(
                f"repro_mm_{name}_total",
                help=f"Trial-end MM counter '{name}' "
                "(see repro.trace.vmstat).",
                unit="nanoseconds" if name.endswith("_ns") else "",
            ).inc(values[name])
        gauges: Dict[str, int] = {
            "free_frames": int(system.frames.n_free),
            "resident_pages": int(system.policy.resident_count()),
            "swap_slots_used": int(system.swap.n_used),
            "cpu_runnable": int(system.cpu.n_runnable),
        }
        for name in GAUGES:
            reg.gauge(
                f"repro_mm_{name}",
                help=f"Trial-end MM gauge '{name}' "
                "(merge keeps the max across trials).",
            ).set(gauges[name])

    _CACHE_COUNTER_HELP = {
        "tracecache_hits": "Disk trace-cache loads served from cache.",
        "tracecache_misses": "Disk trace-cache lookups that missed.",
        "tracecache_stores": "Datasets written to the disk trace cache.",
        "tracecache_evictions": "Trace-cache entries evicted by the "
        "size-budget sweep.",
        "tracecache_errors": "Trace-cache I/O errors (cache degraded "
        "to pass-through).",
        "dataset_memo_hits": "get_dataset calls served from the "
        "process memo.",
        "dataset_memo_misses": "get_dataset calls that fell through "
        "the process memo (to the disk cache or a rebuild).",
    }

    def _import_cache_counters(self) -> None:
        """Import the trial's dataset-cache deltas (satellite of the
        cross-trial fast lane: cache behavior belongs in reports, not
        only in bench assertions)."""
        reg = self.registry
        current = self.snapshot_cache_stats()
        for name, value in current.items():
            delta = value - self._cache_baseline.get(name, 0)
            reg.counter(
                f"repro_cache_{name}_total",
                help=self._CACHE_COUNTER_HELP.get(name, name),
                unit="",
            ).inc(max(0, int(delta)))

    def _import_psi_counters(self) -> None:
        """Import trial-end PSI group totals when a tracker is
        installed (:func:`repro.psi.tracker.installed`); a no-op
        otherwise, so metrics-on PSI-off registries are unchanged."""
        tracker = psi_tracker.installed()
        if tracker is None:
            return
        reg = self.registry
        stall = reg.counter(
            "repro_psi_memory_stall_us_total",
            help="Memory pressure stall time per PSI group "
            "(some = >=1 task stalled; full = stalled with no "
            "productive task running).",
            unit="microseconds",
            labelnames=("group", "kind"),
        )
        ws = reg.counter(
            "repro_workingset_total",
            help="Workingset refault/activate/restore counters per "
            "PSI group (shadow-entry refault distances).",
            unit="pages",
            labelnames=("group", "event"),
        )
        groups = [tracker.system] + list(tracker.groups)
        for group in groups:
            stall.labels(group=group.name, kind="some").inc(
                group.some_total_ns // 1000
            )
            stall.labels(group=group.name, kind="full").inc(
                group.full_total_ns // 1000
            )
            ws.labels(group=group.name, event="refault").inc(
                group.ws_refault
            )
            ws.labels(group=group.name, event="activate").inc(
                group.ws_activate
            )
            ws.labels(group=group.name, event="restore").inc(
                group.ws_restore
            )
