"""Per-trial trace wiring: probes, ring buffer, vmstat daemon, capture.

A :class:`TraceSession` is created for one trial from a
:class:`~repro.trace.config.TraceConfig` and the trial's
:class:`~repro.mm.system.MemorySystem`.  It

- attaches ring-buffer-recording probes to the events behind each
  selected tracepoint (:meth:`start`), stamping records with the engine
  clock,
- spawns the vmstat sampler as a daemon thread, and
- at teardown (:meth:`finalize`) detaches every probe and freezes the
  buffers into a picklable :class:`TraceCapture` that travels back from
  ``REPRO_JOBS`` worker processes inside the trial result.

Probes only read the simulated clock and write into preallocated numpy
columns; they never touch simulator state or RNG streams, so a traced
trial is bit-identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.trace import tracepoints
from repro.trace.config import TraceConfig
from repro.trace.ringbuf import TraceRingBuffer
from repro.trace.vmstat import VmStatSampler, VmStatSeries


@dataclass
class TraceCapture:
    """Everything captured for one trial (picklable)."""

    config: TraceConfig
    #: Structured event records (``repro.trace.ringbuf.EVENT_DTYPE``),
    #: oldest → newest; the *newest* window if the ring wrapped.
    events: np.ndarray
    #: Lifetime emitted events (``total_events - len(events)`` dropped).
    total_events: int
    #: Events overwritten by ring wrap-around.
    dropped_events: int
    vmstat: VmStatSeries
    #: Trial identity plus the cost/device constants analyses need
    #: (workload, policy, seed, runtime_ns, pte_scan_ns, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """Events retained in the capture."""
        return int(self.events.shape[0])

    def events_named(self, name: str) -> np.ndarray:
        """The subset of records for one tracepoint name."""
        ev_id = tracepoints.EVENT_IDS[name]
        return self.events[self.events["ev"] == ev_id]


def _ring_probes(name: str, append: Any, engine: Any) -> List[Tuple[str, Any]]:
    """``(event, probe)`` pairs that record tracepoint *name* into a ring.

    Most tracepoints record the leading fields of their own event.  The
    per-block reclaim events record one entry per page, and the batched
    swap write records per page as ``swap_io_done``.  ``engine._now``:
    the public ``now`` property costs a descriptor call per event;
    probes are package-internal.
    """
    ev = tracepoints.EVENT_IDS[name]
    if name == "mm_vmscan_scan":

        def scan(pages, young, list_id, _a=append, _e=engine, _ev=ev):
            if young is not None:  # None: the policy never reads the bit
                now = _e._now
                for page, y in zip(pages, young):
                    _a(now, _ev, page.vpn, int(y), list_id)

        return [(name, scan)]
    if name == "mm_vmscan_evict":

        def evict(pages, latency_ns, wrote_back, _a=append, _e=engine, _ev=ev):
            now = _e._now
            for page in pages:
                _a(now, _ev, page.vpn, latency_ns, wrote_back)

        return [(name, evict)]
    # Recorded events carry at most three fields; ``unused`` ones (a
    # consumer's extra payload, such as sched_runnable's threads) record
    # as zero.
    n_fields = sum(label != "unused" for label in tracepoints.TRACEPOINTS[name])
    if n_fields == 1:

        def probe(a, b=0, c=0, _a=append, _e=engine, _ev=ev):
            _a(_e._now, _ev, a, 0, 0)

    elif n_fields == 2:

        def probe(a, b, c=0, _a=append, _e=engine, _ev=ev):
            _a(_e._now, _ev, a, b, 0)

    else:

        def probe(a, b, c, _a=append, _e=engine, _ev=ev):
            _a(_e._now, _ev, a, b, c)

    probes = [(name, probe)]
    if name == "swap_io_done":

        def batch(pages, latencies, is_write, _a=append, _e=engine, _ev=ev):
            now = _e._now
            for page, latency in zip(pages, latencies):
                _a(now, _ev, page.vpn, latency, is_write)

        probes.append(("swap_io_batch", batch))
    return probes


class TraceSession:
    """Owns one trial's probes and buffers from start to finalize."""

    def __init__(self, config: TraceConfig, system: Any) -> None:
        self.config = config
        self.system = system
        self.ring = TraceRingBuffer(config.ringbuf_capacity)
        self.sampler = VmStatSampler(
            system, config.vmstat_interval_ns, config.vmstat_max_samples
        )
        self._probes: List[Tuple[str, Any]] = []
        for name in config.event_names():
            self._probes.extend(_ring_probes(name, self.ring.append, system.engine))
        self._attached = False
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Attach probes, take the t=0 baseline row, spawn the sampler."""
        if self._attached:
            return
        for name, probe in self._probes:
            tracepoints.attach(name, probe)
        self._attached = True
        self.sampler.sample()
        self.system.engine.spawn(
            self.sampler.run(), name="vmstat-sampler", daemon=True
        )

    def detach(self) -> None:
        """Detach every probe (idempotent; safe on error paths)."""
        if not self._attached:
            return
        for name, probe in self._probes:
            tracepoints.detach(name, probe)
        self._attached = False

    def finalize(
        self,
        runtime_ns: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> TraceCapture:
        """Detach, take the trial-end snapshot, freeze the capture.

        The final vmstat row is sampled here — after the run, after any
        post-run counter fixups the caller performs — which is what
        guarantees it equals the trial's aggregate counters.
        """
        self.detach()
        if not self._finalized:
            self.sampler.sample()
            self._finalized = True
        full_meta: Dict[str, Any] = {"runtime_ns": runtime_ns}
        if meta:
            full_meta.update(meta)
        return TraceCapture(
            config=self.config,
            events=self.ring.records(),
            total_events=self.ring.total,
            dropped_events=self.ring.dropped,
            vmstat=self.sampler.series(),
            meta=full_meta,
        )
