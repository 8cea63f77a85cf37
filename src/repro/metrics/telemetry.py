"""Grid-level telemetry: per-worker registry aggregation + live view.

The telemetry channel is deliberately simple: every trial's registry
already travels back from its ``REPRO_JOBS`` worker inside the pickled
``TrialResult``, so the grid-level aggregator is just a consumer of
completed trials.  :class:`GridTelemetry` plugs into
``ExperimentRunner(telemetry=...)`` and is fed once per finished trial
— as the serial loop runs it, or when a pooled cell is first read
(``run_many`` reads every cell it runs) — merging each snapshot into a
per-cell and a grid-wide registry and (on a TTY) redrawing a one-line
health view:

    [3/12 cells · 14/48 trials · 1.8M acc/s] clock/ssd@50% fault p50 8.2us p99 1.3ms

At the end, :meth:`render` produces the per-cell health table and
:meth:`save` writes the merged ``.prom`` exposition plus a JSON dump
(format ``repro.metrics.grid/v1``) that ``python -m repro.metrics
report``/``compare`` consume.

Wall-clock attribution uses ``time.perf_counter`` deltas between
observations — host-side code only; nothing here runs inside the
simulator.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, Optional, Tuple

from repro.core.report import render_table
from repro.metrics.registry import MetricsRegistry

#: Serialization format tag for :meth:`GridTelemetry.to_dict`.
GRID_FORMAT = "repro.metrics.grid/v1"


def _fmt_ns(value: float) -> str:
    """Human nanoseconds: 8.2us, 1.3ms, 2.1s."""
    if value <= 0:
        return "-"
    for scale, suffix in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if value >= scale:
            return f"{value / scale:.1f}{suffix}"
    return f"{value:.0f}ns"


def _fmt_count(value: float) -> str:
    """Human counts: 1.8M, 42.3k, 997."""
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= scale:
            return f"{value / scale:.1f}{suffix}"
    return f"{value:.0f}"


class _CellStats:
    """Mutable per-cell accumulator."""

    __slots__ = ("registry", "trials", "accesses", "wall_s")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.trials = 0
        self.accesses = 0
        self.wall_s = 0.0


class GridTelemetry:
    """Aggregates per-trial registries across an experiment grid."""

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        live: Optional[bool] = None,
    ) -> None:
        """``stream`` defaults to stderr; ``live`` (the in-place TTY
        line) defaults to ``stream.isatty()``."""
        self.stream = sys.stderr if stream is None else stream
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        #: Merged registry across every observed trial.
        self.merged = MetricsRegistry()
        self._cells: Dict[str, _CellStats] = {}
        self.n_trials = 0
        self._t_last = time.perf_counter()
        self._line_open = False

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_trial(self, label: str, trial: Any) -> None:
        """Fold one finished trial into the grid aggregates.

        ``trial`` is a ``TrialResult``; its ``metrics_registry`` (if
        the trial was metered) merges into the cell and grid
        registries.  Wall time since the previous observation is
        attributed to this cell — exact in the serial loop, a queueing
        approximation under ``REPRO_JOBS``.
        """
        now = time.perf_counter()
        delta = now - self._t_last
        self._t_last = now
        cell = self._cells.get(label)
        if cell is None:
            cell = self._cells[label] = _CellStats()
        cell.trials += 1
        cell.wall_s += delta
        self.n_trials += 1
        counters = getattr(trial, "counters", None) or {}
        accesses = int(
            counters.get("hits", 0)
            + getattr(trial, "major_faults", 0)
            + getattr(trial, "minor_faults", 0)
        )
        cell.accesses += accesses
        registry = getattr(trial, "metrics_registry", None)
        if registry is not None:
            cell.registry.merge(registry)
            self.merged.merge(registry)
        self._draw(label, cell)

    # ------------------------------------------------------------------
    # Live view
    # ------------------------------------------------------------------

    def _fault_tail(self, registry: MetricsRegistry) -> Tuple[float, float]:
        family = registry.get("repro_fault_service_ns")
        if family is None or not family.children:
            return (0.0, 0.0)
        hist = family.aggregate()
        return (hist.percentile(50), hist.percentile(99))

    def _draw(self, label: str, cell: _CellStats) -> None:
        total_wall = sum(c.wall_s for c in self._cells.values())
        total_acc = sum(c.accesses for c in self._cells.values())
        acc_s = total_acc / total_wall if total_wall > 0 else 0.0
        p50, p99 = self._fault_tail(cell.registry)
        line = (
            f"[{len(self._cells)} cells · {self.n_trials} trials · "
            f"{_fmt_count(acc_s)} acc/s] {label} "
            f"trial {cell.trials} fault p50 {_fmt_ns(p50)} "
            f"p99 {_fmt_ns(p99)}"
        )
        if self.live:
            self.stream.write("\x1b[2K\r" + line)
            self.stream.flush()
            self._line_open = True
        else:
            self.stream.write(line + "\n")

    def finish_live(self) -> None:
        """Terminate the in-place live line (no-op when not live)."""
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # ------------------------------------------------------------------
    # Reporting / persistence
    # ------------------------------------------------------------------

    def cell_rows(self) -> list:
        """Per-cell health rows for :meth:`render` (and reports)."""
        rows = []
        for label in sorted(self._cells):
            cell = self._cells[label]
            p50, p99 = self._fault_tail(cell.registry)
            acc_s = cell.accesses / cell.wall_s if cell.wall_s > 0 else 0.0
            rows.append(
                [
                    label,
                    cell.trials,
                    _fmt_count(cell.accesses),
                    _fmt_count(acc_s),
                    _fmt_ns(p50),
                    _fmt_ns(p99),
                ]
            )
        return rows

    def render(self) -> str:
        """The end-of-grid health table."""
        return render_table(
            ["cell", "trials", "accesses", "acc/s", "fault p50", "fault p99"],
            self.cell_rows(),
            title=f"grid telemetry · {self.n_trials} trials",
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable grid dump (format :data:`GRID_FORMAT`)."""
        return {
            "format": GRID_FORMAT,
            "meta": {
                "n_trials": self.n_trials,
                "wall_s": sum(c.wall_s for c in self._cells.values()),
            },
            "cells": {
                label: {
                    "trials": cell.trials,
                    "accesses": cell.accesses,
                    "wall_s": cell.wall_s,
                    "registry": cell.registry.to_dict(),
                }
                for label, cell in sorted(self._cells.items())
            },
            "merged": self.merged.to_dict(),
        }

    def save(
        self, out_dir: str, prefix: str = "grid"
    ) -> Dict[str, str]:
        """Write ``<prefix>.prom`` + ``<prefix>.json`` into *out_dir*.

        Returns ``{"prom": path, "json": path}``.
        """
        self.finish_live()
        os.makedirs(out_dir, exist_ok=True)
        prom_path = os.path.join(out_dir, f"{prefix}.prom")
        json_path = os.path.join(out_dir, f"{prefix}.json")
        with open(prom_path, "w") as fh:
            fh.write(self.merged.to_prom_text())
        with open(json_path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return {"prom": prom_path, "json": json_path}
