"""A Prometheus-style metrics registry: counters, gauges, histograms.

The registry is the aggregation substrate of ``repro.metrics``: event
recorders (:mod:`repro.metrics.session`) feed these objects during a
trial, the finished registry pickles back from ``REPRO_JOBS`` worker
processes inside the trial result, and grid-level registries are built
by :meth:`MetricsRegistry.merge`.

Design points:

- **Histograms are log2-bucketed** (:class:`repro.histogram.Histogram`,
  shared with the fleet's per-tenant result histograms): 64 integer
  buckets covering twelve decades of nanosecond latencies.
- **Merging is exact**: counters and histogram buckets are plain
  integers, so merging per-worker snapshots is associative and a
  parallel grid's merged counter totals equal the serial run's.
- **Exposition is Prometheus text format** (:meth:`to_prom_text`),
  with cumulative ``_bucket{le=...}`` semantics; a strict
  :func:`parse_prom_text` is provided so smoke tests (and CI) can
  assert the output round-trips.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.histogram import BUCKET_BOUNDS, N_BUCKETS, Histogram

#: Serialization format tag for :meth:`MetricsRegistry.to_dict`.
FORMAT = "repro.metrics/v1"

class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0; unchecked on the hot path)."""
        self.value += amount

    def _merge(self, other: "Counter") -> None:
        self.value += other.value

    def _to_obj(self) -> Any:
        return int(self.value)

    def _from_obj(self, obj: Any) -> None:
        self.value = int(obj)


class Gauge:
    """An instantaneous value (set, not accumulated).

    Merging registries keeps the *maximum* — for the per-trial gauges
    exported here (pool peaks, slot occupancy) the high-water mark is
    the meaningful cross-trial aggregate.
    """

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def _merge(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value

    def _to_obj(self) -> Any:
        v = self.value
        return int(v) if isinstance(v, (int, np.integer)) else float(v)

    def _from_obj(self, obj: Any) -> None:
        self.value = obj


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labeled children.

    A family with empty ``labelnames`` has a single anonymous child;
    the convenience methods (:meth:`inc`, :meth:`set`, :meth:`observe`,
    :meth:`observe_many`) address it directly.  Recorders on hot paths
    should grab the child once via :meth:`labels` and call it straight.
    """

    __slots__ = ("name", "help", "unit", "kind", "labelnames", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        if kind not in _KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        #: label-value tuple → Counter | Gauge | Histogram
        self.children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: Any) -> Any:
        """The child metric for the given label values (auto-created)."""
        if set(labelvalues) != set(self.labelnames):
            raise ConfigError(
                f"{self.name}: labels {sorted(labelvalues)} do not match "
                f"labelnames {sorted(self.labelnames)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = _KINDS[self.kind]()
        return child

    # -- anonymous-child conveniences ---------------------------------

    def inc(self, amount: int = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self.labels().observe_many(values)

    def aggregate(self) -> Any:
        """One metric object merging every child (histograms/counters
        sum; gauges take the max) — the family-level view reports use."""
        out = _KINDS[self.kind]()
        for child in self.children.values():
            out._merge(child)
        return out

    def _signature(self) -> Tuple[str, str, str, Tuple[str, ...]]:
        return (self.kind, self.help, self.unit, self.labelnames)


class MetricsRegistry:
    """A named collection of metric families (picklable, mergeable)."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        #: Free-form provenance (trial identity, runtime, ...).
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Family registration / access
    # ------------------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        unit: str,
        labelnames: Sequence[str],
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, kind, help=help, unit=unit, labelnames=labelnames
            )
            return family
        if family.kind != kind or family.labelnames != tuple(labelnames):
            raise ConfigError(
                f"metric {name!r} re-registered with a different "
                f"kind/labelnames"
            )
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help, unit, labelnames)

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, unit, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        """Get or create a histogram family."""
        return self._family(name, "histogram", help, unit, labelnames)

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under *name*, or ``None``."""
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        """All families, sorted by name (stable exposition order)."""
        return (self._families[n] for n in sorted(self._families))

    def __len__(self) -> int:
        return len(self._families)

    def counter_totals(self) -> Dict[str, int]:
        """Every counter family's value summed over its children —
        the quantity the parallel-equals-serial acceptance test pins."""
        return {
            f.name: int(f.aggregate().value)
            for f in self.families()
            if f.kind == "counter"
        }

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry (exact for counters and
        histogram buckets; gauges keep the max).  Returns self."""
        for theirs in other.families():
            mine = self._family(
                theirs.name,
                theirs.kind,
                theirs.help,
                theirs.unit,
                theirs.labelnames,
            )
            for key, child in theirs.children.items():
                target = mine.children.get(key)
                if target is None:
                    target = mine.children[key] = _KINDS[mine.kind]()
                target._merge(child)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump (format :data:`FORMAT`)."""
        return {
            "format": FORMAT,
            "meta": dict(self.meta),
            "metrics": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    "help": f.help,
                    "unit": f.unit,
                    "labelnames": list(f.labelnames),
                    "series": [
                        {"labels": list(key), "value": child._to_obj()}
                        for key, child in sorted(f.children.items())
                    ],
                }
                for f in self.families()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            raise ConfigError(
                f"not a {FORMAT} dump (format={data.get('format')!r})"
                if isinstance(data, dict)
                else "not a metrics registry dump"
            )
        reg = cls()
        reg.meta = dict(data.get("meta", {}))
        for fam in data.get("metrics", []):
            family = reg._family(
                fam["name"],
                fam["kind"],
                fam.get("help", ""),
                fam.get("unit", ""),
                tuple(fam.get("labelnames", ())),
            )
            for series in fam.get("series", []):
                key = tuple(str(v) for v in series["labels"])
                child = _KINDS[family.kind]()
                child._from_obj(series["value"])
                family.children[key] = child
        return reg

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------

    def to_prom_text(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            name = family.name
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            if family.unit:
                lines.append(f"# UNIT {name} {family.unit}")
            for key, child in sorted(family.children.items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    cum = 0
                    for i, c in enumerate(child.buckets):
                        cum += c
                        le = (
                            "+Inf"
                            if i == N_BUCKETS - 1
                            else str(BUCKET_BOUNDS[i])
                        )
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels({**labels, 'le': le})} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_render_value(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_render_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


def _render_value(value: Any) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Exposition parsing (round-trip validation for smoke tests / CI)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{(.*)\})?"  # optional label block
    r"\s+(\S+)$"  # value
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prom_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs.  Raises
    :class:`~repro.errors.ConfigError` on any malformed line — this is
    the validator the CI metrics smoke job runs against ``.prom``
    artifacts.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ConfigError(f"malformed exposition line {lineno}: {raw!r}")
        name, label_block, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_block:
            consumed = 0
            for lmatch in _LABEL_RE.finditer(label_block):
                labels[lmatch.group(1)] = _unescape_label_value(
                    lmatch.group(2)
                )
                consumed += len(lmatch.group(0))
            stripped = re.sub(r"[,\s]", "", label_block)
            matched = re.sub(
                r"[,\s]", "", "".join(
                    m.group(0) for m in _LABEL_RE.finditer(label_block)
                )
            )
            if stripped != matched:
                raise ConfigError(
                    f"malformed label block on line {lineno}: {raw!r}"
                )
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ConfigError(
                    f"non-numeric value on line {lineno}: {raw!r}"
                ) from None
        samples[(name, tuple(sorted(labels.items())))] = value
    return samples
