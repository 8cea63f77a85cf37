"""The vectorized fleet serving lane: fast == scalar, bit for bit.

The contract under test (see ``_tenant_body_fast``): with
``REPRO_FAST_FLEET`` on, every fleet trial must emit the *same command
stream* as the scalar reference lane, so sink rows, reports, and lane
telemetry are byte-identical across lanes — the toggle may only move
wall-clock time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, JsonlSink, TenantShape, run_fleet_trial
from repro.fleet import trial as fleet_trial
from repro.fleet.report import build_registry, render_markdown
from repro.fleet.runner import WINDOW_PER_JOB, run_sweep
from repro.fleet.sink import load_rows
from repro.fleet.trial import KEY_BATCH, LANE_STATS, fast_fleet_enabled
from repro.trace import tracepoints


def small_config(**overrides) -> FleetConfig:
    base = dict(
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


def _rows_identical(config: FleetConfig, policy: str, seed: int = 7) -> None:
    scalar = run_fleet_trial(config, policy, seed, fast_fleet=False)
    fast = run_fleet_trial(config, policy, seed, fast_fleet=True)
    assert json.dumps(scalar, sort_keys=True) == json.dumps(
        fast, sort_keys=True
    )


@pytest.mark.parametrize("swap", ["ssd", "zram"])
@pytest.mark.parametrize(
    "policy", ["clock", "mglru", "fifo", "random", "opt"]
)
def test_fast_lane_rows_byte_identical(policy, swap):
    _rows_identical(small_config(swap=swap), policy)


@pytest.mark.parametrize("swap", ["ssd", "zram"])
@pytest.mark.parametrize(
    "policy", ["clock", "mglru", "fifo", "random", "opt"]
)
def test_fast_lane_rows_byte_identical_with_limits(policy, swap):
    _rows_identical(small_config(swap=swap, limit_ratio=0.7), policy)


def test_fast_lane_serving_bound_regime_identical():
    # Compressed arrivals + zero per-request compute: the whole trace is
    # pending at t~0, driving the fast lane's long vector runs (the
    # regime the fleet bench gates on) instead of the arrival-bound
    # request-at-a-time paths above.
    config = small_config(
        shapes=(
            TenantShape(
                n_items=60,
                read_fraction=1.0,
                request_compute_ns=0,
            ),
        ),
        capacity_ratio=0.95,
        arrival_rate_rps=1e10,
    )
    _rows_identical(config, "mglru")


@pytest.mark.parametrize("window_batches", [1, 3])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "shapes": (
                TenantShape(
                    n_items=60, read_fraction=1.0, request_compute_ns=0
                ),
            ),
            "capacity_ratio": 0.95,
            "arrival_rate_rps": 1e10,
        },
    ],
    ids=["arrival-bound", "serving-bound"],
)
def test_fast_lane_draw_windows_identical(monkeypatch, window_batches, overrides):
    # Draw windows of one and of three batches: the vectorized lane's
    # keys, ops and arrivals come from one numpy call per window, and
    # must still match the scalar lane's per-batch draws.  Every
    # tenant's request count is a non-multiple of KEY_BATCH, so windows
    # and batches both end ragged, and spans several windows.
    monkeypatch.setattr(fleet_trial, "DRAW_WINDOW", window_batches * KEY_BATCH)
    config = small_config(n_requests_total=5_000, **overrides)
    scalar = run_fleet_trial(config, "mglru", 7, fast_fleet=False)
    counts = [t["requests"] for t in scalar["tenants"]]
    assert all(count % KEY_BATCH for count in counts)
    assert max(counts) > 3 * KEY_BATCH * window_batches
    fast = run_fleet_trial(config, "mglru", 7, fast_fleet=True)
    assert json.dumps(scalar, sort_keys=True) == json.dumps(
        fast, sort_keys=True
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_arrivals_match_one_shot_trace(seed):
    scale, n = 1e9 / 37_000.0, 5_000
    expected = np.cumsum(
        np.random.default_rng(seed).exponential(scale, size=n)
    ).astype(np.int64)
    splits = np.random.default_rng(seed + 100).integers(1, 700, size=n)
    arrivals = fleet_trial._Arrivals(np.random.default_rng(seed), scale)
    pieces, taken = [], 0
    for size in splits:
        size = int(min(size, n - taken))
        if size == 0:
            break
        pieces.append(arrivals.take(size))
        taken += size
    got = np.concatenate(pieces)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def test_fast_lane_protection_rings_identical():
    # Soft limits + low/min protection drive the memcg policy's
    # multi-pass reclaim ordering; the lanes must agree there too.
    config = small_config(
        capacity_ratio=0.4,
        limit_ratio=0.8,
        soft_limit_ratio=0.5,
        low_ratio=0.2,
        min_ratio=0.1,
    )
    _rows_identical(config, "mglru")


def test_fast_lane_report_and_registry_identical():
    config = small_config(swap="zram", limit_ratio=0.7)
    header = {"format": "repro.fleet/v2", "config": config.to_dict()}
    by_lane = {}
    for lane, fast in (("scalar", False), ("fast", True)):
        rows = [
            run_fleet_trial(config, policy, 7, fast_fleet=fast)
            for policy in ("clock", "mglru")
        ]
        by_lane[lane] = (
            render_markdown(header, rows),
            build_registry(rows).to_dict(),
        )
    assert by_lane["scalar"][0] == by_lane["fast"][0]
    assert json.dumps(by_lane["scalar"][1], sort_keys=True) == json.dumps(
        by_lane["fast"][1], sort_keys=True
    )


def test_fast_fleet_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_FAST_FLEET", raising=False)
    assert fast_fleet_enabled()
    monkeypatch.setenv("REPRO_FAST_FLEET", "0")
    assert not fast_fleet_enabled()
    monkeypatch.setenv("REPRO_FAST_FLEET", "1")
    assert fast_fleet_enabled()


def test_lane_stats_and_metrics_hooks(monkeypatch):
    counts = {"requests": 0, "residue": 0, "lanes": []}

    def on_batch(n_requests, n_residue):
        counts["requests"] += n_requests
        counts["residue"] += n_residue

    def on_lane(fast):
        counts["lanes"].append(bool(fast))

    config = small_config(n_requests_total=600)
    tracepoints.attach("fleet_batch", on_batch)
    tracepoints.attach("fleet_lane", on_lane)
    try:
        LANE_STATS.reset()
        run_fleet_trial(config, "clock", 7, fast_fleet=True)
        run_fleet_trial(config, "clock", 7, fast_fleet=False)
    finally:
        tracepoints.detach("fleet_batch", on_batch)
        tracepoints.detach("fleet_lane", on_lane)
    # Both lanes classify the same requests as residue (the counters
    # are lane-independent by construction), and the env-independent
    # LANE_STATS mirror matches the hook-fed totals.
    assert counts["requests"] == 2 * config.n_requests_total
    assert counts["lanes"] == [True, False]
    assert LANE_STATS.requests == counts["requests"]
    assert LANE_STATS.residue_requests == counts["residue"]
    assert LANE_STATS.fast_trials == 1
    assert LANE_STATS.scalar_trials == 1
    snap = LANE_STATS.snapshot()
    assert snap["batches"] > 0
    # Default lane resolution follows the env knob.
    monkeypatch.setenv("REPRO_FAST_FLEET", "0")
    LANE_STATS.reset()
    run_fleet_trial(config, "clock", 7)
    assert LANE_STATS.scalar_trials == 1 and LANE_STATS.fast_trials == 0


def test_sweep_window_refill_matches_serial(tmp_path):
    # More trials than the in-flight window (jobs * WINDOW_PER_JOB) so
    # the sliding refill path runs; rows must match a serial sweep
    # exactly, regardless of completion order.
    config = small_config(n_requests_total=300)
    policies = ["clock", "fifo", "random"]
    seeds = [1, 2, 3, 4]
    assert len(policies) * len(seeds) > 2 * WINDOW_PER_JOB

    serial_path = tmp_path / "serial.jsonl"
    with JsonlSink(serial_path, config.to_dict()) as sink:
        ran = run_sweep(config, policies, seeds, sink, jobs=1)
    assert ran == 12

    parallel_path = tmp_path / "parallel.jsonl"
    with JsonlSink(parallel_path, config.to_dict()) as sink:
        ran = run_sweep(config, policies, seeds, sink, jobs=2)
    assert ran == 12

    def keyed(path):
        _, rows = load_rows(path)
        return {
            (row["policy"], row["seed"]): json.dumps(row, sort_keys=True)
            for row in rows
        }

    assert keyed(serial_path) == keyed(parallel_path)
