"""The observer bus: one registry of named events, near-zero cost idle.

Linux exposes its reclaim machinery through *static tracepoints*
(``trace_mm_vmscan_direct_reclaim_begin``, ``trace_mm_vmscan_lru_isolate``
and friends) that compile down to a test-and-branch while no probe is
attached.  This module reproduces that shape in Python: every event is
a module-level name that is ``None`` while nothing listens, so an
instrumented hot path pays exactly one module-attribute load plus an
``is not None`` test::

    from repro.trace import tracepoints as _tp
    ...
    if _tp.mm_vmscan_refault is not None:
        _tp.mm_vmscan_refault(page.vpn, distance_ns, page.refault_count)

All four observability planes consume this one table: the trace
session records the sixteen :data:`TRACEPOINTS` into its ring buffer,
the metrics session folds events into its registry, and the PSI tracker
and the span recorder derive stalls and critical paths from them.  Each
instrumented moment emits *one* event that carries what every consumer
reads.  A wait in particular is one ``wait_begin``/``wait_end`` pair
naming its kind, the cgroup it stalls, whether it is a memory stall
(kernel ``psi_memstall_enter`` semantics) and the subject a consumer
needs (the faulting page of an ``inflight_wait``, the block of an
``evict_triage``).  Each end of a wait tests its own slot, so a
consumer may attach either end alone.

Simulator generators never emit from a ``finally`` block: a suspended
generator that is closed after its trial ended (kswapd mid-writeback,
say) must not reach the consumers of the next trial in the same
process.

Probes must be *passive*: they may record, but must not mutate
simulator state, draw random numbers, or raise — the contract that
keeps observed runs bit-identical to bare ones.

Multiple probes may attach to one event (a multicast shim fans the call
out in attach order), matching the kernel's probe lists.  Probes are
process-global, like the kernel's: one trial is observed at a time per
process, which is exactly the shape of the ``REPRO_JOBS`` worker pool.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError

#: Every event, with the labels of its payload.  The first sixteen are
#: the recorded tracepoints (see :data:`TRACEPOINTS`), in event-id order.
EVENTS: Dict[str, Tuple[str, ...]] = {
    # -- fault path ----------------------------------------------------
    "mm_fault_minor": ("vpn", "latency_ns", "write"),
    "mm_fault_major": ("vpn", "latency_ns", "write"),
    "mm_vmscan_refault": ("vpn", "inter_refault_ns", "refault_count"),
    # -- reclaim (per triage block; ``young`` is None when the policy
    # never reads the accessed bit) -------------------------------------
    "mm_vmscan_scan": ("pages", "young", "list_id"),
    "mm_vmscan_evict": ("pages", "latency_ns", "wrote_back"),
    "mm_vmscan_direct_stall": ("reclaimed", "latency_ns", "retry"),
    "mm_watermark": ("level", "free_frames", "capacity"),
    "mm_pte_flat_rebuild": ("n_pages", "n_runs"),
    # -- swap ----------------------------------------------------------
    "swap_io_done": ("vpn", "latency_ns", "is_write"),
    "swap_slot_state": ("slots_used", "n_slots"),
    # -- MG-LRU --------------------------------------------------------
    "mglru_age": ("max_seq", "latency_ns", "regions_scanned"),
    "mglru_gen_step": ("min_seq", "max_seq", "created"),
    "mglru_tier_promote": ("vpn", "tier"),
    # -- scheduler: a job starts (``started``) or jobs end -------------
    "sched_runnable": ("n_runnable", "started", "finished"),
    # -- PSI -----------------------------------------------------------
    "psi_sample": ("group", "some_avg10_pct_x100", "full_avg10_pct_x100"),
    "psi_trigger": ("group", "is_full", "stall_us"),
    # -- unrecorded events ---------------------------------------------
    "wait_begin": ("kind", "memcg", "memstall", "subject"),
    "wait_end": ("kind", "memcg", "memstall"),
    "fault_begin": ("page",),
    "fault_end": ("page",),
    "swap_io_submit": ("queue_ns", "service_ns"),
    "swap_io_batch": ("pages", "latencies_ns", "is_write"),
    "rmap_walk_block": ("costs_ns",),
    "memcg_steal": ("requester", "victim", "pages"),
    "engine_events": ("n_imm", "n_heap"),
    "thread_done": ("compute_requested_ns",),
    "fleet_batch": ("n_requests", "n_residue"),
    "fleet_lane": ("fast",),
}

#: The recorded tracepoints, with the meaning of each ring-buffer
#: record's (a, b, c) integers.  The order here fixes the numeric event
#: ids stored in ring buffers.  The per-block events record one entry
#: per page, and ``swap_io_batch`` records as ``swap_io_done``.
TRACEPOINTS: Dict[str, Tuple[str, str, str]] = {
    # -- fault path ----------------------------------------------------
    "mm_fault_minor": ("vpn", "latency_ns", "write"),
    "mm_fault_major": ("vpn", "latency_ns", "write"),
    "mm_vmscan_refault": ("vpn", "inter_refault_ns", "refault_count"),
    # -- reclaim -------------------------------------------------------
    "mm_vmscan_scan": ("vpn", "young", "list_id"),
    "mm_vmscan_evict": ("vpn", "latency_ns", "wrote_back"),
    "mm_vmscan_direct_stall": ("reclaimed", "latency_ns", "retry"),
    "mm_watermark": ("level", "free_frames", "capacity"),
    "mm_pte_flat_rebuild": ("n_pages", "n_runs", "unused"),
    # -- swap ----------------------------------------------------------
    "swap_io_done": ("vpn", "latency_ns", "is_write"),
    "swap_slot_state": ("slots_used", "n_slots", "unused"),
    # -- MG-LRU --------------------------------------------------------
    "mglru_age": ("max_seq", "latency_ns", "regions_scanned"),
    "mglru_gen_step": ("min_seq", "max_seq", "unused"),
    "mglru_tier_promote": ("vpn", "tier", "unused"),
    # -- scheduler -----------------------------------------------------
    "sched_runnable": ("n_runnable", "unused", "unused"),
    # -- PSI (appended: EVENT_IDS are order-dependent) -------------------
    "psi_sample": ("group", "some_avg10_pct_x100", "full_avg10_pct_x100"),
    "psi_trigger": ("group", "is_full", "stall_us"),
}

#: Numeric event ids for ring-buffer storage (0 is reserved: empty slot).
EVENT_IDS: Dict[str, int] = {
    name: i + 1 for i, name in enumerate(TRACEPOINTS)
}
#: Reverse map, id → tracepoint name.
EVENT_NAMES: Dict[int, str] = {i: name for name, i in EVENT_IDS.items()}

Probe = Callable[..., None]

#: Attached probes per event, in attach order.
_probes: Dict[str, List[Probe]] = {name: [] for name in EVENTS}

# Module-level slots — one per event, None while nothing listens.
# (Assigned dynamically below so the table above stays the single source
# of truth; static readers: the names are exactly EVENTS' keys.)
for _name in EVENTS:
    globals()[_name] = None
del _name


class _Multicast:
    """Fan one event out to several probes, in attach order."""

    __slots__ = ("probes",)

    def __init__(self, probes: List[Probe]) -> None:
        self.probes = probes

    def __call__(self, *args) -> None:
        for probe in self.probes:
            probe(*args)


def _check_name(name: str) -> None:
    if name not in EVENTS:
        raise ConfigError(
            f"unknown event {name!r}; known: {', '.join(EVENTS)}"
        )


def _refresh(name: str) -> None:
    """Recompute the module-level slot for *name* from its probe list."""
    probes = _probes[name]
    if not probes:
        slot: Optional[Probe] = None
    elif len(probes) == 1:
        slot = probes[0]
    else:
        slot = _Multicast(list(probes))
    globals()[name] = slot


def attach(name: str, probe: Probe) -> None:
    """Attach *probe* to event *name* (enables the hook point)."""
    _check_name(name)
    _probes[name].append(probe)
    _refresh(name)


def detach(name: str, probe: Probe) -> None:
    """Detach one previously attached probe (no-op if not attached)."""
    _check_name(name)
    try:
        _probes[name].remove(probe)
    except ValueError:
        return
    _refresh(name)


def detach_all() -> None:
    """Detach every probe from every event (test/trial teardown)."""
    for name in EVENTS:
        _probes[name].clear()
        globals()[name] = None


def active() -> Tuple[str, ...]:
    """Names of events that currently have at least one probe."""
    return tuple(name for name in EVENTS if _probes[name])
