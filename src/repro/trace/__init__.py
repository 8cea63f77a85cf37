"""``repro.trace`` — kernel-style tracing and vmstat observability.

The subsystem mirrors the three observability layers Linux MM work
leans on, scaled to the simulator:

- **Tracepoints** (:mod:`repro.trace.tracepoints`) — the recorded
  events of the observer bus that all four observability planes
  consume, named after kernel tracepoints (``mm_vmscan_scan``,
  ``mm_fault_major``, ``swap_io_done``, ``mglru_age``, ...).  An idle
  event is a single ``is not None`` test at the call site, so tracing
  off costs nothing measurable and changes nothing (traced trials are
  bit-identical to untraced ones).
- **Ring-buffer event capture** (:mod:`repro.trace.ringbuf`,
  :mod:`repro.trace.session`) — ftrace-style bounded buffer with
  overflow accounting.
- **vmstat sampling** (:mod:`repro.trace.vmstat`) — periodic snapshots
  of the live counter table, the ``/proc/vmstat`` analogue.

Captures export to Chrome trace-event JSON (Perfetto-loadable), CSV
and raw ``.npz`` (:mod:`repro.trace.export`); :mod:`repro.trace.analyze`
derives refault-distance histograms, reclaim cost breakdowns and
timeline summaries.  ``python -m repro.trace`` drives both ends.
"""

from repro.trace import tracepoints  # noqa: F401  (import order matters)
from repro.trace.analyze import (
    cost_breakdown,
    refault_distance_histogram,
    summarize,
    timeline_summary,
)
from repro.trace.config import TraceConfig
from repro.trace.export import (
    chrome_trace,
    load_capture,
    load_capture_registry,
    save_capture,
    validate_chrome_trace,
    write_capture,
    write_chrome_trace,
    write_events_csv,
    write_vmstat_csv,
)
from repro.trace.ringbuf import EVENT_DTYPE, TraceRingBuffer
from repro.trace.session import TraceCapture, TraceSession
from repro.trace.tracepoints import TRACEPOINTS, attach, detach, detach_all
from repro.trace.vmstat import VmStatSampler, VmStatSeries

__all__ = [
    "TRACEPOINTS",
    "EVENT_DTYPE",
    "TraceCapture",
    "TraceConfig",
    "TraceRingBuffer",
    "TraceSession",
    "VmStatSampler",
    "VmStatSeries",
    "attach",
    "chrome_trace",
    "cost_breakdown",
    "detach",
    "detach_all",
    "load_capture",
    "load_capture_registry",
    "refault_distance_histogram",
    "save_capture",
    "summarize",
    "timeline_summary",
    "tracepoints",
    "validate_chrome_trace",
    "write_capture",
    "write_chrome_trace",
    "write_events_csv",
    "write_vmstat_csv",
]
