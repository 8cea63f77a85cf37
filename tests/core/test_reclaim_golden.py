"""Golden digests of the reclaim path: five planes-on trials and two
memcg fleet trials.

The trials cover every eviction-triage helper (Clock's rmap walks and
accessed-bit snapshots, MG-LRU's eviction blocks, FIFO, Random and
OPT), both swap devices' batched writes, and many reverse-map and SSD
jitter-pool refills that land in the middle of a triage block.  They
are hashed with :func:`tests.core.test_engine_golden.trial_digest`:
results, every trace event, the metrics registry and the span table.

The fleet trials run the proportional global reclaimer over 40 tenants
in two shapes at 25% capacity, where most reclaim shares are one page
per lruvec; each row is hashed as sorted JSON, PSI and spans included.

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

from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.psi import PsiConfig
from repro.spans import SpansConfig
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


def fleet_id(policy: str) -> str:
    return f"fleet/{policy}"


def fleet_digest(policy: str) -> str:
    """SHA-256 over one memcg fleet trial's sink row."""
    row = run_fleet_trial(
        FLEET, policy, SEED, psi=PsiConfig(), spans=SpansConfig()
    )
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


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


def main() -> None:
    digests = {cell_id(cell): trial_digest(cell) for cell in CELLS}
    for policy in FLEET_POLICIES:
        digests[fleet_id(policy)] = fleet_digest(policy)
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "digests": digests}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
