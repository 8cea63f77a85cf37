"""``repro.spans`` — causal fault-span tracing and critical-path
attribution, the fourth observability plane.

The other three planes answer *what happened* (``repro.trace`` events),
*how much* (``repro.metrics`` counters) and *how squeezed* (``repro.psi``
pressure).  Spans answer *why this fault was slow*: every demand fault
opens a root span whose children are the real sim-time segments it
traversed — reclaim run/wait, eviction triage and write-back, swap
device queueing vs. service, blocked-behind-inflight-fault — with
cross-thread links naming the instigating thread.  Sim time is
deterministic, so the decomposition is exact to the nanosecond: per
fault, the segment sums equal the measured end-to-end latency.

The recorder consumes the observer bus (:mod:`repro.trace.tracepoints`)
like the other three planes; spans-off is the absence of its probes, so
disabled runs are bit-identical.
"""

from repro.spans.config import SpansConfig
from repro.spans.recorder import SpanRecorder, SpanTable

__all__ = ["SpansConfig", "SpanRecorder", "SpanTable"]
