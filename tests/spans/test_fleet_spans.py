"""Spans through the fleet: purity, per-tenant exactness, lane and
pool identity, the CLI's sampling flag, and the report surface.

The headline acceptance property: each tenant's span-table fault time
equals the *sum of that tenant's measured fault latencies* — the exact
integer the tenant's fault histogram accumulated — to the nanosecond.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import FleetConfig, JsonlSink, TenantShape, run_fleet_trial
from repro.fleet.__main__ import main
from repro.fleet.report import aggregate_spans, render_markdown
from repro.fleet.runner import run_sweep
from repro.fleet.sink import load_rows
from repro.spans import SpansConfig, SpanTable


def pressured_config(**overrides) -> FleetConfig:
    """Small but genuinely memory-pressured (the PSI suite's shape)."""
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


def _strip_spans(row: dict) -> dict:
    out = {k: v for k, v in row.items() if k != "spans"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "spans"}
        for t in row["tenants"]
    ]
    return out


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ----------------------------------------------------------------------
# purity
# ----------------------------------------------------------------------

def test_spans_off_rows_carry_no_spans_keys():
    row = run_fleet_trial(pressured_config(), "mglru", 7, spans=False)
    assert "spans" not in row
    assert all("spans" not in t for t in row["tenants"])


@pytest.mark.parametrize("policy", ["clock", "mglru"])
def test_spans_on_row_minus_spans_equals_spans_off(policy):
    config = pressured_config()
    off = run_fleet_trial(config, policy, 7, spans=False)
    on = run_fleet_trial(config, policy, 7, spans=True)
    assert "spans" in on
    assert _dumps(_strip_spans(on)) == _dumps(off)


def test_spans_on_lanes_byte_identical():
    config = pressured_config()
    scalar = run_fleet_trial(
        config, "mglru", 7, fast_fleet=False, spans=True
    )
    fast = run_fleet_trial(config, "mglru", 7, fast_fleet=True, spans=True)
    assert _dumps(scalar) == _dumps(fast)


# ----------------------------------------------------------------------
# exactness: span time == histogram-measured fault time, per tenant
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def spanned_row():
    return run_fleet_trial(pressured_config(), "mglru", 7, spans=True)


def test_tenant_span_time_equals_fault_hist_sum_exactly(spanned_row):
    """Nanosecond-exact: the recorder's root span brackets precisely
    the window each tenant times around ``handle_fault``, so the span
    table's per-group total is the same integer as the histogram sum."""
    saw_faults = False
    for t in spanned_row["tenants"]:
        spans = t["spans"]
        assert spans["total_ns"] == t["fault_hist"]["sum"]
        assert spans["faults"] == t["fault_hist"]["count"]
        assert sum(spans["seg_ns"].values()) == spans["total_ns"]
        saw_faults = saw_faults or spans["faults"] > 0
    assert saw_faults, "pressured cell must fault"


def test_row_table_aggregates_tenant_sections(spanned_row):
    table = SpanTable.from_obj(spanned_row["spans"])
    for t in spanned_row["tenants"]:
        name = f"t{t['tenant']}"
        assert table.group_total_ns.get(name, 0) == t["spans"]["total_ns"]
        assert table.group_faults.get(name, 0) == t["spans"]["faults"]
    for record in table.records:
        assert sum(record["segs"].values()) == record["total_ns"]


def test_spans_accepts_a_config_instance():
    row = run_fleet_trial(
        pressured_config(), "mglru", 7, spans=SpansConfig(sample_every=5)
    )
    table = SpanTable.from_obj(row["spans"])
    assert table.sample_every == 5
    assert table.n_retained < table.n_faults


# ----------------------------------------------------------------------
# CLI: ``--spans-sample`` is honoured or refused
# ----------------------------------------------------------------------

def _cli_run(out, *flags):
    return main([
        "run", "--tenants", "3", "--items", "200", "--policies", "mglru",
        "--seeds", "1", "--requests", "900", "--capacity-ratio", "0.4",
        "--out", str(out), *flags,
    ])


def test_cli_spans_sample_sets_head_sampling(tmp_path):
    out = tmp_path / "fleet.jsonl"
    assert _cli_run(out, "--spans", "--spans-sample", "3") == 0
    _, rows = load_rows(str(out))
    table = SpanTable.from_obj(rows[0]["spans"])
    assert table.sample_every == 3
    assert table.n_retained < table.n_faults


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--spans-sample", "3"), "--spans-sample needs --spans"),
        (("--spans", "--spans-sample", "0"), "--spans-sample must be at least 1"),
    ],
    ids=["without-spans", "below-one"],
)
def test_cli_refuses_spans_sample(tmp_path, capsys, flags, message):
    out = tmp_path / "fleet.jsonl"
    with pytest.raises(SystemExit) as exc:
        _cli_run(out, *flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# determinism: serial == jobs == resume
# ----------------------------------------------------------------------

def test_spans_sweep_serial_jobs_resume_identical(tmp_path):
    config = pressured_config()
    policies = ["clock", "mglru"]
    seeds = [100]

    serial_path = str(tmp_path / "serial.jsonl")
    with JsonlSink(serial_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, spans=True)

    parallel_path = str(tmp_path / "parallel.jsonl")
    with JsonlSink(parallel_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=2, spans=True)

    resumed_path = str(tmp_path / "resumed.jsonl")
    with JsonlSink(resumed_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, max_trials=1,
                  spans=True)
    with JsonlSink(resumed_path, config.to_dict()) as sink:
        run_sweep(config, policies, seeds, sink, jobs=1, spans=True)

    sh, srows = load_rows(serial_path)
    ph, prows = load_rows(parallel_path)
    rh, rrows = load_rows(resumed_path)
    key = lambda r: (r["policy"], r["seed"])  # noqa: E731
    assert _dumps(sorted(srows, key=key)) == _dumps(sorted(prows, key=key))
    assert _dumps(sorted(srows, key=key)) == _dumps(sorted(rrows, key=key))
    # Reports (critical-path section included) are order-independent.
    report = render_markdown(sh, srows)
    assert report == render_markdown(ph, prows)
    assert report == render_markdown(rh, rrows)
    assert "## Critical path (spans)" in report


# ----------------------------------------------------------------------
# report surface
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def spans_rows():
    config = pressured_config()
    return [
        run_fleet_trial(config, policy, seed, spans=True)
        for policy in ("clock", "mglru")
        for seed in (5, 6)
    ]


def test_aggregate_spans_merges_per_policy(spans_rows):
    tables = aggregate_spans(spans_rows)
    assert set(tables) == {"clock", "mglru"}
    for policy in tables:
        table = tables[policy]
        per_policy = [
            r for r in spans_rows if r["policy"] == policy
        ]
        assert table.n_faults == sum(
            r["spans"]["n_faults"] for r in per_policy
        )
        tags = {rec["trial"] for rec in table.records}
        assert tags <= {"seed5", "seed6"}


def test_report_section_renders_per_policy(spans_rows):
    config = pressured_config()
    text = render_markdown({"config": config.to_dict()}, spans_rows)
    assert "## Critical path (spans)" in text
    assert "### clock:" in text and "### mglru:" in text
    assert "| segment | time | share | faults | mean/fault |" in text
    assert "dominant segment" in text


def test_report_section_absent_without_spans():
    config = pressured_config()
    rows = [run_fleet_trial(config, "mglru", 5, spans=False)]
    text = render_markdown({"config": config.to_dict()}, rows)
    assert "Critical path (spans)" not in text
