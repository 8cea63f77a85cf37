"""Golden digests of the reclaim path: five planes-on trials, six memcg
fleet trials and one two-tenant stall-site system.

The trials cover every eviction-triage helper (Clock's rmap walks and
accessed-bit snapshots, MG-LRU's eviction blocks, FIFO, Random and
OPT), both swap devices' batched writes, and many reverse-map and SSD
jitter-pool refills that land in the middle of a triage block.  They
are hashed with :func:`tests.core.test_engine_golden.trial_digest`:
results, every trace event, the metrics registry (less its help text)
and the span table.

The fleet trials run the proportional global reclaimer over 40 tenants
in two shapes at 25% capacity, where most reclaim shares are one page
per lruvec; each row is hashed as sorted JSON, PSI and spans included.
Four more rows run the CI observe-smoke cell (8 tenants under a hard
limit at 80% of their footprint), so the charge loop's PSI stall and
its ``memcg_run``/``backoff``/``evict_wait`` segments are pinned too.

The stall-site system drives two hard-limited cgroups with three
threads each, two sweeping in step, so faults block behind each other's
swap-ins (PSI's thrashing wait) and the charge loop queues behind its
own cgroup's reclaim (``memcg_wait``).  No fleet row reaches either
site: fleet tenants are single-threaded.  It is hashed over the PSI
totals, the tenants' stall intervals and the span table.

``tests/data/reclaim_golden.json`` holds one SHA-256 per trial.  A
change that is *meant* to alter simulated results re-records it with::

    PYTHONPATH=src python -m tests.core.test_reclaim_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import List, Tuple

import pytest

import numpy as np

from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.psi import PsiConfig, PsiTracker
from repro.spans import SpanRecorder, SpansConfig
from tests.memcg.test_invariants import _two_tenant_system
from tests.core.test_engine_golden import SEED, cell_id, trial_digest

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "data" / "reclaim_golden.json"

#: (workload, policy, swap, capacity ratio).
CELLS: List[Tuple[str, str, str, float]] = [
    ("pagerank", "clock", "zram", 0.5),
    ("pagerank", "opt", "ssd", 0.5),
    ("tpch", "fifo", "zram", 0.5),
    ("tpch", "random", "ssd", 0.5),
    ("tpch", "mglru-gen14", "ssd", 0.5),
]

#: The fleet-pressure tenant mix, shrunk to 40 tenants and 20k requests.
FLEET = FleetConfig(
    n_tenants=40,
    shapes=(
        TenantShape(n_items=300),
        TenantShape(n_items=600, read_fraction=0.5),
    ),
    capacity_ratio=0.25,
    n_requests_total=20_000,
    arrival_rate_rps=400_000.0,
    slo_ns=2_000_000,
    n_cpus=8,
)
FLEET_POLICIES = ("clock", "mglru")

#: The CI observe-smoke cell: ``repro.fleet run --tenants 8 --items
#: 300 --requests 1200 --capacity-ratio 0.5 --limit-ratio 0.8``.
LIMIT_FLEET = FleetConfig(
    n_tenants=8,
    shapes=(TenantShape(n_items=300),),
    capacity_ratio=0.5,
    limit_ratio=0.8,
    n_requests_total=1_200,
)
#: (policy, seed) rows of the CI cell (``--seeds 2``).
LIMIT_ROWS: List[Tuple[str, int]] = [
    (policy, seed) for policy in FLEET_POLICIES for seed in (10_000, 10_001)
]


def fleet_id(policy: str) -> str:
    return f"fleet/{policy}"


def limit_id(row: Tuple[str, int]) -> str:
    policy, seed = row
    return f"fleet-limit/{policy}/{seed}"


def _row_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def fleet_digest(policy: str) -> str:
    """SHA-256 over one memcg fleet trial's sink row."""
    return _row_digest(
        run_fleet_trial(
            FLEET, policy, SEED, psi=PsiConfig(), spans=SpansConfig()
        )
    )


def limit_digest(row: Tuple[str, int]) -> str:
    """SHA-256 over one row of the hard-limited CI fleet cell."""
    policy, seed = row
    return _row_digest(
        run_fleet_trial(
            LIMIT_FLEET, policy, seed, psi=PsiConfig(), spans=SpansConfig()
        )
    )


STALL_ID = "stall-sites/clock"


def stall_sites() -> dict:
    """Run the stall-site system; return its PSI and span outputs."""
    engine, system, _root, cgroups, vmas = _two_tenant_system(
        "clock", capacity=96, pages_per_tenant=128, limit_pages=48
    )
    tracker = PsiTracker(engine, PsiConfig())
    for cg in cgroups:
        tracker.add_group(cg, record_intervals=True)
    recorder = SpanRecorder(engine, SpansConfig())

    def sweeps(vpns):
        for _ in range(3):
            yield from system.access_run(
                vpns, write=True, compute_ns_per_access=200
            )

    try:
        tracker.install(system)
        recorder.install(system)
        system.start()
        for i, vma in enumerate(vmas):
            vpns = np.arange(vma.start_vpn, vma.end_vpn)
            for j, order in enumerate((vpns, vpns, np.roll(vpns, -64))):
                system.spawn_app_thread(sweeps(order), f"t{i}.{j}")
        runtime_ns = engine.run()
    finally:
        recorder.detach()
        tracker.detach()
    tracker.finalize(runtime_ns)
    return {
        "runtime_ns": runtime_ns,
        "system": [tracker.system.some_total_ns, tracker.system.full_total_ns],
        "groups": {
            group.name: {
                "some_ns": group.some_total_ns,
                "full_ns": group.full_total_ns,
                "intervals": group.stall_intervals,
            }
            for group in tracker.groups
        },
        "spans": recorder.finalize(runtime_ns).to_obj(),
    }


def stall_digest() -> str:
    return _row_digest(stall_sites())


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    return golden["digests"]


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_planes_on_trial_matches_golden(cell):
    assert trial_digest(cell) == _golden()[cell_id(cell)]


@pytest.mark.parametrize("policy", FLEET_POLICIES)
def test_fleet_row_matches_golden(policy):
    assert fleet_digest(policy) == _golden()[fleet_id(policy)]


@pytest.mark.parametrize("row", LIMIT_ROWS, ids=[limit_id(r) for r in LIMIT_ROWS])
def test_limit_fleet_row_matches_golden(row):
    assert limit_digest(row) == _golden()[limit_id(row)]


def test_stall_sites_reached_and_match_golden():
    out = stall_sites()
    counts = out["spans"]["seg_counts"]
    # Both sites only this system reaches, and the PSI stall they carry.
    assert counts["inflight_wait"] > 0
    assert counts["memcg_wait"] > 0
    assert all(g["intervals"] for g in out["groups"].values())
    assert _row_digest(out) == _golden()[STALL_ID]


def main() -> None:
    digests = {cell_id(cell): trial_digest(cell) for cell in CELLS}
    for policy in FLEET_POLICIES:
        digests[fleet_id(policy)] = fleet_digest(policy)
    for row in LIMIT_ROWS:
        digests[limit_id(row)] = limit_digest(row)
    digests[STALL_ID] = stall_digest()
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "digests": digests}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
