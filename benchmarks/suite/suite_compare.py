"""Summary statistics and parent-vs-change verdicts for suite records.

A record holds, for every (workload, end-to-end metric), the per-run
samples plus their median, min, max, q1, q3 and n; the bounds come
from ``BENCHMARK.json`` and travel inside the record.  ``compare``
applies the benchmark rules:

- *unresolved* when either side's spread (IQR / median) exceeds the
  bound, unless every change run beats every parent run;
- *improved* when the change wins at least 9 of every 10 index-paired
  runs and its median beats the parent's by more than the parent's IQR;
- *regressed* when the change's median is worse than the parent's by
  more than ``bound`` × the parent's median;
- otherwise *unchanged*.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence

SCHEMA = "repro-bench-suite/1"
STAT_KEYS = ("median", "min", "max", "q1", "q3", "n")


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, extremes and quartiles (``statistics.quantiles`` with
    ``n=4``; a single sample is its own quartiles)."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(stats: Dict[str, float]) -> float:
    """IQR as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else math.inf


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """Verdict for one (workload, metric) pair; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = summarize(parent), summarize(change)
    if better == "higher":
        all_beat = min(change) > max(parent)
    else:
        all_beat = max(change) < min(parent)
    gap = sign * (c["median"] - p["median"])  # > 0: change is better
    if max(spread(p), spread(c)) > bound and not all_beat:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for pv, cv in pairs if sign * (cv - pv) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gap > p["q3"] - p["q1"]:
        return "improved"
    if -gap > bound * abs(p["median"]):
        return "regressed"
    return "unchanged"


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both records,
    judged with the parent record's bounds."""
    rows = []
    for name, p_wl in parent["workloads"].items():
        c_wl = change["workloads"].get(name)
        if c_wl is None:
            continue
        for metric, p_m in p_wl["end_to_end"].items():
            c_m = c_wl["end_to_end"].get(metric)
            if c_m is None:
                continue
            bound = parent["bounds"][metric]
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": p_m["unit"],
                "parent": p_m["median"],
                "change": c_m["median"],
                "bound": bound,
                "verdict": verdict(p_m["samples"], c_m["samples"], bound, p_m["better"]),
            })
    return rows


def validate_record(record: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Problems with *record* against the ``BENCHMARK.json`` *spec*
    (an empty list means the record is well formed)."""
    problems = []
    for key in ("schema", "rev", "dirty", "host", "nproc", "python", "numpy",
                "env", "repeats", "seconds", "seed", "bounds", "workloads"):
        if key not in record:
            problems.append(f"missing key {key!r}")
    if record.get("schema") != SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, expected {SCHEMA!r}")
    for name, wl in record.get("workloads", {}).items():
        for m in spec["end_to_end"]:
            entry = wl.get("end_to_end", {}).get(m["name"])
            if entry is None:
                problems.append(f"{name}: no end-to-end metric {m['name']}")
                continue
            for key in STAT_KEYS:
                if not _finite(entry.get(key)):
                    problems.append(f"{name}.{m['name']}: bad {key} {entry.get(key)!r}")
            if len(entry.get("samples", [])) != entry.get("n"):
                problems.append(f"{name}.{m['name']}: sample count != n")
        for m in spec["per_layer"]:
            if not _finite(wl.get("per_layer", {}).get(m["name"])):
                problems.append(f"{name}: bad per-layer metric {m['name']}")
        for key in ("attempted", "failed", "digests", "shm_teardown_errors"):
            if key not in wl:
                problems.append(f"{name}: missing {key!r}")
    return problems


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)
