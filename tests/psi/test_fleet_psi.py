"""PSI through the fleet: purity, lane identity, attribution,
determinism, and the report/registry surfaces.

The load-bearing contract: PSI is a pure observer.  A PSI-off trial
carries no ``psi`` keys and is byte-identical to the same trial with
PSI on once the ``psi`` sections are stripped — on both serving lanes,
serially, under ``REPRO_JOBS`` pools, and across interrupt+resume.
"""

from __future__ import annotations

import json

import pytest

from repro._units import MS
from repro.fleet import FleetConfig, JsonlSink, TenantShape, run_fleet_trial
from repro.fleet.report import build_registry, render_markdown
from repro.fleet.runner import run_sweep
from repro.fleet.sink import load_rows
from repro.psi import PsiConfig


def pressured_config(**overrides) -> FleetConfig:
    """Small but genuinely memory-pressured: evictions, steals, and a
    real chance of SLO violations, so the psi sections are non-trivial."""
    base = dict(
        n_tenants=3,
        shapes=(TenantShape(n_items=200),),
        capacity_ratio=0.4,
        n_requests_total=900,
        arrival_rate_rps=120_000.0,
        slo_ns=1_000_000,
        n_cpus=2,
    )
    base.update(overrides)
    return FleetConfig(**base)


def _strip_psi(row: dict) -> dict:
    out = {k: v for k, v in row.items() if k != "psi"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "psi"} for t in row["tenants"]
    ]
    return out


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ----------------------------------------------------------------------
# purity: PSI never changes what a trial computes
# ----------------------------------------------------------------------

def test_psi_off_rows_carry_no_psi_keys():
    row = run_fleet_trial(pressured_config(), "mglru", 7, psi=False)
    assert "psi" not in row
    assert all("psi" not in t for t in row["tenants"])


@pytest.mark.parametrize("policy", ["clock", "mglru"])
def test_psi_on_row_minus_psi_equals_psi_off(policy):
    config = pressured_config()
    off = run_fleet_trial(config, policy, 7, psi=False)
    on = run_fleet_trial(config, policy, 7, psi=True)
    assert "psi" in on
    assert _dumps(_strip_psi(on)) == _dumps(off)


def test_psi_on_lanes_byte_identical():
    """Fast and scalar serving lanes agree on the psi sections too
    (violation windows, stall intervals, steal matrix — everything)."""
    config = pressured_config()
    scalar = run_fleet_trial(config, "mglru", 7, fast_fleet=False, psi=True)
    fast = run_fleet_trial(config, "mglru", 7, fast_fleet=True, psi=True)
    assert _dumps(scalar) == _dumps(fast)


def test_psi_accepts_a_config_instance():
    config = pressured_config()
    psi_config = PsiConfig(sample_interval_ns=5 * MS)
    row = run_fleet_trial(config, "mglru", 7, psi=psi_config)
    samples = row["psi"]["samples"]
    assert len(samples) >= 2
    assert samples[1][0] - samples[0][0] == 5 * MS


# ----------------------------------------------------------------------
# invariants on the recorded pressure
# ----------------------------------------------------------------------

def test_psi_sample_series_invariants():
    """The observe-smoke PSI invariants: totals monotone, full <= some,
    averages are percentages."""
    row = run_fleet_trial(pressured_config(), "mglru", 7, psi=True)
    samples = row["psi"]["samples"]
    assert samples, "pressured cell must produce sampler ticks"
    prev_t = prev_some = prev_full = -1
    for t, some_ns, full_ns, avg10, favg10 in samples:
        assert t > prev_t
        assert some_ns >= prev_some and full_ns >= prev_full
        assert full_ns <= some_ns
        assert 0.0 <= avg10 <= 100.0 and 0.0 <= favg10 <= 100.0
        prev_t, prev_some, prev_full = t, some_ns, full_ns
    system = row["psi"]["system"]
    assert system["some_total_us"] > 0
    assert system["full_total_us"] <= system["some_total_us"]
    assert system["workingset_refault"] >= system["workingset_activate"]
    assert system["workingset_activate"] >= system["workingset_restore"]


def test_tenant_psi_attribution_fields_are_consistent():
    row = run_fleet_trial(pressured_config(), "mglru", 7, psi=True)
    saw_violation = False
    for t in row["tenants"]:
        psi = t["psi"]
        # Single-task cgroup: full == some.
        pressure = psi["pressure"]
        assert pressure["full_total_us"] == pressure["some_total_us"]
        # Overlap can't exceed either of its operands.
        assert 0 <= psi["viol_stall_ns"] <= psi["viol_ns"]
        assert psi["viol_stall_ns"] <= psi["stall_ns"]
        if t["slo_violations"]:
            assert psi["viol_ns"] > 0
            saw_violation = True
        else:
            assert psi["viol_ns"] == 0
    assert saw_violation, "pressured cell should breach the 1 ms SLO"
    # The contended cell reclaims globally: the steal matrix shows it.
    assert row["psi"]["steals"], "expected global-reclaim steals"
    for requester, victim, pages in row["psi"]["steals"]:
        assert pages > 0


# ----------------------------------------------------------------------
# determinism: serial == jobs == resume, attribution included
# ----------------------------------------------------------------------

def test_psi_sweep_serial_jobs_resume_identical(tmp_path):
    config = pressured_config()
    policies = ["clock", "mglru"]
    seeds = [100]

    serial_path = str(tmp_path / "serial.jsonl")
    with JsonlSink(serial_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, psi=True)

    parallel_path = str(tmp_path / "parallel.jsonl")
    with JsonlSink(parallel_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=2, psi=True)

    resumed_path = str(tmp_path / "resumed.jsonl")
    with JsonlSink(resumed_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, max_trials=1,
                  psi=True)
    with JsonlSink(resumed_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, psi=True)

    sh, srows = load_rows(serial_path)
    ph, prows = load_rows(parallel_path)
    rh, rrows = load_rows(resumed_path)
    key = lambda r: (r["policy"], r["seed"])  # noqa: E731
    assert _dumps(sorted(srows, key=key)) == _dumps(sorted(prows, key=key))
    assert _dumps(sorted(srows, key=key)) == _dumps(sorted(rrows, key=key))
    # Reports (attribution section included) are order-independent.
    report = render_markdown(sh, srows)
    assert report == render_markdown(ph, prows)
    assert report == render_markdown(rh, rrows)
    assert "## SLO-violation attribution (PSI)" in report


# ----------------------------------------------------------------------
# report + registry surfaces
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def psi_rows():
    config = pressured_config()
    return [
        run_fleet_trial(config, policy, seed, psi=True)
        for policy in ("clock", "mglru")
        for seed in (5, 6)
    ]


def test_attribution_section_renders_per_policy(psi_rows):
    config = pressured_config()
    text = render_markdown({"config": config.to_dict()}, psi_rows)
    assert "## SLO-violation attribution (PSI)" in text
    assert "under full stall" in text
    # Tenant labels and a steal-derived instigator column appear.
    assert "| t" in text


def test_attribution_absent_without_psi():
    config = pressured_config()
    rows = [run_fleet_trial(config, "mglru", 5, psi=False)]
    text = render_markdown({"config": config.to_dict()}, rows)
    assert "SLO-violation attribution" not in text


def test_serving_lanes_section_is_opt_in(psi_rows):
    header = {"config": pressured_config().to_dict()}
    lane_stats = {
        "requests": 1000,
        "residue_requests": 40,
        "batches": 4,
        "fast_trials": 2,
        "scalar_trials": 1,
    }
    with_lanes = render_markdown(header, psi_rows, lane_stats=lane_stats)
    assert "## Serving lanes" in with_lanes
    assert "| 1000 | 40 | 4.00% | 4 | 2 | 1 |" in with_lanes
    assert "## Serving lanes" not in render_markdown(header, psi_rows)


def test_registry_exports_psi_metrics(psi_rows):
    dump = build_registry(psi_rows).to_dict()
    by_name = {m["name"]: m for m in dump["metrics"]}
    stall = by_name["repro_psi_memory_stall_us_total"]
    assert set(stall["labelnames"]) == {"policy", "tenant", "kind"}
    kinds = {
        dict(zip(stall["labelnames"], s["labels"]))["kind"]
        for s in stall["series"]
    }
    assert {"some", "full"} <= kinds
    ws = by_name["repro_workingset_total"]
    events = {
        dict(zip(ws["labelnames"], s["labels"]))["event"]
        for s in ws["series"]
    }
    assert events == {"refault", "activate", "restore"}


def test_registry_omits_psi_metrics_when_off():
    rows = [run_fleet_trial(pressured_config(), "mglru", 5, psi=False)]
    dump = build_registry(rows).to_dict()
    names = {m["name"] for m in dump["metrics"]}
    assert "repro_psi_memory_stall_us_total" not in names
    assert "repro_workingset_total" not in names
