"""Golden digests of three full trials with trace, metrics and spans on.

Each cell is a full-size SSD trial whose app threads often compute
alone on an idle CPU, so the digests pin the event engine's dispatch
order end to end: results, every trace event, the metrics registry
(less its help text) and the span table.
``tests/data/engine_golden.json`` holds one SHA-256 per cell.  A change
that is *meant* to alter simulated results re-records it with::

    PYTHONPATH=src python -m tests.core.test_engine_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.core import experiment
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.metrics import MetricsConfig, MetricsRegistry
from repro.metrics.registry import MetricFamily
from repro.sim.engine import Engine
from repro.spans import SpansConfig
from repro.trace import TraceConfig

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "data" / "engine_golden.json"

SEED = 10_004

#: (workload, policy, swap, capacity ratio).
CELLS: List[Tuple[str, str, str, float]] = [
    ("ycsb-a", "clock", "ssd", 0.9),
    ("pagerank", "mglru", "ssd", 0.75),
    ("ycsb-b", "mglru", "ssd", 0.75),
]

#: Registry families that count dataset-cache traffic: they depend on
#: how warm the process memo and disk cache are, not on the simulation.
_CACHE_FAMILY_PREFIX = "repro_cache_"


def cell_id(cell: Tuple[str, str, str, float]) -> str:
    workload, policy, swap, ratio = cell
    return f"{workload}/{policy}/{swap}/{ratio}"


def registry_obj(registry: MetricsRegistry) -> Dict[str, Any]:
    """The part of a metrics registry a digest hashes.

    Every family's name, kind, unit, label names and series, less the
    dataset-cache families and the help text: help strings document a
    metric, so rewording one must not move a digest.
    """
    data: Dict[str, Any] = registry.to_dict()
    data["metrics"] = [
        {key: value for key, value in family.items() if key != "help"}
        for family in data["metrics"]
        if not family["name"].startswith(_CACHE_FAMILY_PREFIX)
    ]
    return data


def trial_digest(cell: Tuple[str, str, str, float]) -> str:
    """SHA-256 over one planes-on trial's simulated outputs."""
    workload, policy, swap, ratio = cell
    result = run_trial(
        workload,
        SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio),
        SEED,
        trace=TraceConfig(),
        metrics=MetricsConfig(),
        spans=SpansConfig(),
    )
    h = hashlib.sha256()

    def feed(obj: Any) -> None:
        h.update(json.dumps(obj, sort_keys=True).encode())
        h.update(b"\n")

    feed(
        {
            "runtime_ns": result.runtime_ns,
            "major_faults": result.major_faults,
            "minor_faults": result.minor_faults,
            "counters": result.counters,
        }
    )
    for name in sorted(result.latencies_ns):
        lat = np.ascontiguousarray(result.latencies_ns[name])
        feed([name, lat.dtype.str, list(lat.shape)])
        h.update(lat.tobytes())
    capture = result.trace
    assert capture is not None
    h.update(np.ascontiguousarray(capture.events).tobytes())
    feed([capture.total_events, capture.dropped_events])
    assert result.metrics_registry is not None
    feed(registry_obj(result.metrics_registry))
    assert result.spans is not None
    feed(result.spans.to_obj())
    return h.hexdigest()


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_planes_on_trial_matches_golden(cell):
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    assert trial_digest(cell) == golden["digests"][cell_id(cell)]


def test_rewording_help_text_leaves_digest_unchanged(monkeypatch):
    """Help strings are documentation: rewording every family's help
    leaves a trial's digest equal to the recorded one."""
    init = MetricFamily.__init__

    def reworded(self, name, kind, help="", unit="", labelnames=()):
        init(self, name, kind, help + " (reworded)", unit, labelnames)

    monkeypatch.setattr(MetricFamily, "__init__", reworded)
    golden = json.loads(GOLDEN.read_text())
    cell = CELLS[0]
    assert trial_digest(cell) == golden["digests"][cell_id(cell)]


def test_run_ahead_fires_on_every_cell(monkeypatch):
    """The cells pin CPU run-ahead: jobs there do complete inline."""
    engines: List[Engine] = []

    class RecordingEngine(Engine):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setenv("REPRO_FAST_ENGINE", "1")
    monkeypatch.setattr(experiment, "Engine", RecordingEngine)
    for workload, policy, swap, ratio in CELLS:
        run_trial(
            workload,
            SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio),
            SEED,
        )
        assert engines[-1]._n_ahead > 0


def main() -> None:
    digests = {cell_id(cell): trial_digest(cell) for cell in CELLS}
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "digests": digests}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
