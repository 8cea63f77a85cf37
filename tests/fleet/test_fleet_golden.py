"""Golden digests of the fleet serving loop, in both ``fast_fleet`` modes.

The rows are the serving-lane matrix: five policies on SSD and ZRAM,
with and without a hard limit at 70% of each tenant's footprint; a
serving-bound cell (every request pending at once, zero compute); a
cell under soft limits and low/min protection; and the two draw-window
cells (arrival-bound and serving-bound, 5,000 requests, spanning
several draw windows with ragged ends); and a PSI-on serving-bound
cell whose tight SLO nearly every request violates.  Each row is hashed
as sorted JSON, and both ``fast_fleet=True`` and ``fast_fleet=False``
must give the recorded digest.  A hypothesis property adds random
small fleets, PSI on or off, whose rows must be byte-identical in both
modes.

``tests/data/fleet_golden.json`` holds one SHA-256 per row.  A change
that is *meant* to alter simulated results re-records it with::

    PYTHONPATH=src python -m tests.fleet.test_fleet_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.fleet.trial import KEY_BATCH
from repro.histogram import Histogram
from repro.memcg import MemcgPolicy
from repro.trace import tracepoints

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "data" / "fleet_golden.json"
SEED = 7
POLICIES = ("clock", "mglru", "fifo", "random", "opt")


def small_config(**overrides: Any) -> FleetConfig:
    """Three tenants in two shapes at half capacity, arrival-bound."""
    base: Dict[str, Any] = dict(
        n_tenants=3,
        shapes=(TenantShape(n_items=40), TenantShape(n_items=80)),
        capacity_ratio=0.5,
        n_requests_total=1200,
        arrival_rate_rps=60_000.0,
        slo_ns=2_000_000,
        n_cpus=2,
    )
    base.update(overrides)
    return FleetConfig(**base)


#: Compressed arrivals and zero per-request compute: the whole trace is
#: pending at t~0, so the loop serves long window runs.
SERVING_BOUND: Dict[str, Any] = dict(
    shapes=(TenantShape(n_items=60, read_fraction=1.0, request_compute_ns=0),),
    capacity_ratio=0.95,
    arrival_rate_rps=1e10,
)
#: Soft limits and low/min protection drive the memcg policy's
#: multi-pass reclaim ordering.
PROTECTION_RINGS: Dict[str, Any] = dict(
    capacity_ratio=0.4,
    limit_ratio=0.8,
    soft_limit_ratio=0.5,
    low_ratio=0.2,
    min_ratio=0.1,
)
#: The draw-window cells: every tenant's request count is a
#: non-multiple of ``KEY_BATCH`` and spans several windows.
DRAW_WINDOW_CELLS: Dict[str, Dict[str, Any]] = {
    "arrival-bound": dict(n_requests_total=5_000),
    "serving-bound": dict(n_requests_total=5_000, **SERVING_BOUND),
}
#: PSI on and an SLO that nearly every request misses: most requests
#: are recorded through window-run chunk flushes, so the row's
#: ``psi.viol_ns`` pins the flush's SLO count and violation windows.
PSI_VIOLATIONS: Dict[str, Any] = dict(
    n_requests_total=5_000, slo_ns=50_000, **SERVING_BOUND
)
#: Serving-bound tenants that write: half and 5% of their requests are
#: writes, so the window runs' dirty-bit stores decide which evictions
#: write back, and so the row.
SERVING_WRITES: Dict[str, Any] = dict(
    n_tenants=6,
    n_requests_total=20_000,
    shapes=(
        TenantShape(n_items=60, read_fraction=0.5, request_compute_ns=0),
        TenantShape(n_items=120, read_fraction=0.95, request_compute_ns=0),
    ),
    capacity_ratio=0.8,
    arrival_rate_rps=1e10,
)


def _cells() -> Dict[str, Tuple[FleetConfig, str]]:
    cells: Dict[str, Tuple[FleetConfig, str]] = {}
    for swap in ("ssd", "zram"):
        for policy in POLICIES:
            cells[f"{policy}/{swap}"] = (small_config(swap=swap), policy)
            cells[f"{policy}/{swap}/limit0.7"] = (
                small_config(swap=swap, limit_ratio=0.7),
                policy,
            )
    cells["serving-bound/mglru"] = (small_config(**SERVING_BOUND), "mglru")
    cells["protection-rings/mglru"] = (
        small_config(**PROTECTION_RINGS),
        "mglru",
    )
    for name, overrides in DRAW_WINDOW_CELLS.items():
        cells[f"draw-window/{name}/mglru"] = (
            small_config(**overrides),
            "mglru",
        )
    cells["psi-violations/mglru"] = (small_config(**PSI_VIOLATIONS), "mglru")
    cells["serving-writes/mglru"] = (small_config(**SERVING_WRITES), "mglru")
    return cells


CELLS = _cells()
#: The cells whose trials run with PSI on.
PSI_CELLS = frozenset({"psi-violations/mglru"})


def row_digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def cell_row(cell_id: str, fast_fleet: bool) -> Dict[str, Any]:
    config, policy = CELLS[cell_id]
    psi = cell_id in PSI_CELLS
    return run_fleet_trial(config, policy, SEED, fast_fleet=fast_fleet, psi=psi)


def row_and_batch_events(
    config: FleetConfig, policy: str, seed: int, **kwargs: Any
) -> Tuple[Dict[str, Any], list]:
    """A trial's row and its sequence of ``fleet_batch`` events."""
    events: list = []

    def on_batch(n_requests, n_residue):
        events.append((n_requests, n_residue))

    tracepoints.attach("fleet_batch", on_batch)
    try:
        row = run_fleet_trial(config, policy, seed, **kwargs)
    finally:
        tracepoints.detach("fleet_batch", on_batch)
    return row, events


def cell_digest(cell_id: str, fast_fleet: bool) -> str:
    return row_digest(cell_row(cell_id, fast_fleet))


def golden() -> Dict[str, str]:
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["seed"] == SEED
    return recorded["digests"]


@pytest.mark.parametrize("fast_fleet", [True, False], ids=["fast", "shortcut-off"])
@pytest.mark.parametrize("cell_id", list(CELLS))
def test_row_matches_golden(cell_id, fast_fleet):
    assert cell_digest(cell_id, fast_fleet) == golden()[cell_id]


def test_psi_cell_covers_violation_windows():
    """The PSI-on cell keeps reaching the flush's violation windows."""
    tenants = cell_row("psi-violations/mglru", True)["tenants"]
    assert sum(t["slo_violations"] for t in tenants) > 0
    assert sum(t["psi"]["viol_ns"] for t in tenants) > 0


@pytest.mark.parametrize(
    "cell_id",
    [
        "serving-bound/mglru",
        "draw-window/serving-bound/mglru",
        "psi-violations/mglru",
        "serving-writes/mglru",
    ],
)
def test_serving_bound_cells_take_window_runs(monkeypatch, cell_id):
    """The serving-bound cells keep reaching the window run.

    Only a window run stores more than one KEY_BATCH of pages at once;
    in the cell with writes, its dirty-bit stores are that long too.
    """
    stores = []
    on_batch_access = MemcgPolicy.on_batch_access

    def record(self, flat, idx, write):
        stores.append((len(idx), write))
        on_batch_access(self, flat, idx, write)

    monkeypatch.setattr(MemcgPolicy, "on_batch_access", record)
    cell_row(cell_id, True)
    assert max(n for n, _ in stores) > KEY_BATCH
    if cell_id == "serving-writes/mglru":
        assert max(n for n, write in stores if write) > KEY_BATCH


def property_config(
    swap: str,
    n_tenants: int,
    n_requests: int,
    capacity_ratio: float,
    limit: bool,
    read_fraction: float,
    compute_ns: int,
    serving_bound: bool,
    slo_ns: int,
) -> FleetConfig:
    """The fleet of the random-small-fleets property: two shapes, the
    first one's read fraction drawn."""
    return FleetConfig(
        n_tenants=n_tenants,
        shapes=(
            TenantShape(
                n_items=60,
                read_fraction=read_fraction,
                request_compute_ns=compute_ns,
            ),
            TenantShape(n_items=120, request_compute_ns=compute_ns),
        ),
        swap=swap,
        capacity_ratio=capacity_ratio,
        limit_ratio=0.7 if limit else None,
        n_requests_total=n_requests,
        arrival_rate_rps=1e10 if serving_bound else 60_000.0,
        slo_ns=slo_ns,
        n_cpus=2,
    )


#: Multi-window serving-bound tenants at 20 ns a request, PSI on and a
#: 50 us SLO: every flush that carries a window run's chunk also
#: carries SLO violators, from the chunk and from per-request hits, so
#: the PSI violation windows must open at the same arrival in both
#: modes.  At this seed one window run (tenant 1's last, ragged window
#: of 1,416 requests) ends exactly at such a quantum flush.
WINDOW_RUN_VIOLATIONS: Dict[str, Any] = dict(
    policy="clock", swap="ssd", n_tenants=3, n_requests=12_000,
    capacity_ratio=0.5, limit=False, read_fraction=0.5, compute_ns=20,
    serving_bound=True, slo_ns=50_000, psi=True, seed=14,
)


def test_window_run_violations_example_reaches_violating_chunk_flush(
    monkeypatch,
):
    """The example above keeps reaching a window-run chunk flush whose
    arrivals include SLO violators, PSI on."""
    flushes = []
    observe = Histogram.observe_elapsed

    def capture(self, now, starts):
        flushes.append((now, int(starts[0])))
        observe(self, now, starts)

    kw = dict(WINDOW_RUN_VIOLATIONS)
    policy, seed, psi = kw.pop("policy"), kw.pop("seed"), kw.pop("psi")
    config = property_config(**kw)
    monkeypatch.setattr(Histogram, "observe_elapsed", capture)
    row = run_fleet_trial(config, policy, seed, fast_fleet=True, psi=psi)
    monkeypatch.undo()
    assert any(first < now - config.slo_ns for now, first in flushes)
    assert sum(t["psi"]["viol_ns"] for t in row["tenants"]) > 0


@settings(max_examples=30, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    swap=st.sampled_from(("ssd", "zram")),
    n_tenants=st.integers(1, 4),
    n_requests=st.integers(1, 2_000),
    capacity_ratio=st.floats(0.2, 1.0),
    limit=st.booleans(),
    read_fraction=st.sampled_from((0.0, 0.5, 0.95, 1.0)),
    compute_ns=st.sampled_from((0, 20, 2_000)),
    serving_bound=st.booleans(),
    slo_ns=st.sampled_from((50_000, 2_000_000)),
    psi=st.booleans(),
    seed=st.integers(0, 1_000),
)
@example(**WINDOW_RUN_VIOLATIONS)
# Multi-window tenants at 20 ns a request: a quantum holds 3,200
# requests, so a window run fits a fresh quantum and the next window
# does not, and the per-request path's quantum flushes alternate with
# window runs.  At this seed one window run (tenant 1's eighth window)
# ends exactly at a quantum flush.
@example(
    policy="clock", swap="ssd", n_tenants=2, n_requests=26_000,
    capacity_ratio=0.5, limit=False, read_fraction=0.5, compute_ns=20,
    serving_bound=True, slo_ns=2_000_000, psi=False, seed=508,
)
def test_random_small_fleets_identical_in_both_modes(
    policy, swap, n_tenants, n_requests, capacity_ratio, limit,
    read_fraction, compute_ns, serving_bound, slo_ns, psi, seed,
):
    config = property_config(
        swap, n_tenants, n_requests, capacity_ratio, limit, read_fraction,
        compute_ns, serving_bound, slo_ns,
    )
    fast, fast_events = row_and_batch_events(
        config, policy, seed, fast_fleet=True, psi=psi
    )
    off, off_events = row_and_batch_events(
        config, policy, seed, fast_fleet=False, psi=psi
    )
    assert json.dumps(fast, sort_keys=True) == json.dumps(off, sort_keys=True)
    assert fast_events == off_events


def main() -> None:
    digests = {cell_id: cell_digest(cell_id, True) for cell_id in CELLS}
    GOLDEN.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
