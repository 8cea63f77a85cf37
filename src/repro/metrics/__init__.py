"""``repro.metrics`` — live metrics plane for the simulator.

A Prometheus-style registry (counters, gauges, log2 histograms) fed by
near-zero-cost events on the MM/policy/swap/engine hot paths (the
observer bus, :mod:`repro.trace.tracepoints`),
aggregated across ``REPRO_JOBS`` workers by :class:`GridTelemetry`,
and consumed by the ``python -m repro.metrics`` CLI (``run`` /
``report`` / ``compare``).

Metering is opt-in per trial via :class:`MetricsConfig` on
``ExperimentConfig`` / ``run_trial``; with metering off (the default)
every instrumented call site pays one ``is not None`` test and trials
are bit-identical to pre-metrics builds.

Note on imports: only the dependency-free leaves (:mod:`config`,
:mod:`registry`) load eagerly; the session/telemetry/report layers —
which reach back into ``repro.trace``, ``repro.psi`` and ``repro.core``
— resolve lazily on first attribute access.
"""

from typing import TYPE_CHECKING

from repro.metrics.config import MetricsConfig
from repro.metrics.registry import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prom_text,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.metrics.session import MetricsSession
    from repro.metrics.telemetry import GridTelemetry

_LAZY = {
    "MetricsSession": ("repro.metrics.session", "MetricsSession"),
    "GridTelemetry": ("repro.metrics.telemetry", "GridTelemetry"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target[0]), target[1])


__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "GridTelemetry",
    "Histogram",
    "MetricsConfig",
    "MetricsRegistry",
    "MetricsSession",
    "parse_prom_text",
]
