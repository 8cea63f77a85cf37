"""The fleet serving loop's window runs: on == off, bit for bit.

The contract under test (see ``_tenant_body``): with window runs on
(``run_fleet_trial(fast_fleet=True)``, the default), every fleet trial
must emit the *same command stream* as with them off, when every
request is served one at a time, so sink rows, reports, and lane
telemetry are byte-identical in both modes — window runs may only move
wall-clock time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, JsonlSink, run_fleet_trial
from repro.fleet import trial as fleet_trial
from repro.fleet.report import build_registry, render_markdown
from repro.fleet.runner import WINDOW_PER_JOB, run_sweep
from repro.fleet.sink import load_rows
from repro.fleet.trial import KEY_BATCH, LANE_STATS
from repro.histogram import Histogram
from repro.trace import tracepoints
from tests.fleet.test_fleet_golden import (
    DRAW_WINDOW_CELLS,
    PROTECTION_RINGS,
    SEED,
    SERVING_BOUND,
    SERVING_WRITES,
    golden,
    row_and_batch_events,
    row_digest,
    small_config,
)


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
    # The whole trace is pending at t~0, driving long window runs (the
    # regime the fleet bench gates on) instead of the arrival-bound
    # request-at-a-time path above.
    _rows_identical(small_config(**SERVING_BOUND), "mglru")


def test_slo_deadline_arrival_is_no_violation(monkeypatch):
    # A request whose latency is exactly ``slo_ns`` meets its SLO.  A
    # flush counts a window run's violators by searching its sorted
    # arrivals, so pick the SLO that puts one chunk arrival exactly on
    # a flush's deadline; the shortcut-off loop judges it per request.
    flushes = []
    observe = Histogram.observe_elapsed

    def capture(self, now, starts):
        flushes.append((now, np.array(starts)))
        observe(self, now, starts)

    cell = DRAW_WINDOW_CELLS["serving-bound"]
    monkeypatch.setattr(Histogram, "observe_elapsed", capture)
    run_fleet_trial(small_config(**cell), "mglru", SEED)
    monkeypatch.undo()
    now, arr = max(flushes, key=lambda flush: len(np.unique(flush[1])))
    slo_ns = now - int(np.unique(arr)[1])
    assert slo_ns > 0
    _rows_identical(small_config(slo_ns=slo_ns, **cell), "mglru")


@pytest.mark.parametrize("window_batches", [1, 3])
@pytest.mark.parametrize("cell", list(DRAW_WINDOW_CELLS))
def test_fast_lane_draw_windows_identical(monkeypatch, window_batches, cell):
    # Draw windows of one and of three batches: keys, ops and arrivals
    # come from one numpy call per window, so both modes must still
    # reproduce the golden rows, drawn at the default window.  Every
    # tenant's request count is a non-multiple of KEY_BATCH, so windows
    # and batches both end ragged, and spans several windows.
    monkeypatch.setattr(fleet_trial, "DRAW_WINDOW", window_batches * KEY_BATCH)
    config = small_config(**DRAW_WINDOW_CELLS[cell])
    expected = golden()[f"draw-window/{cell}/mglru"]
    for fast in (True, False):
        row = run_fleet_trial(config, "mglru", SEED, fast_fleet=fast)
        counts = [t["requests"] for t in row["tenants"]]
        assert all(count % KEY_BATCH for count in counts)
        assert max(counts) > 3 * KEY_BATCH * window_batches
        assert row_digest(row) == expected


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
    # multi-pass reclaim ordering; the modes must agree there too.
    _rows_identical(small_config(**PROTECTION_RINGS), "mglru")


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


def test_lane_stats_and_metrics_hooks():
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
    # Both modes count the same requests as residue (the counters are
    # mode-independent by construction), and the LANE_STATS mirror
    # matches the hook-fed totals.
    assert counts["requests"] == 2 * config.n_requests_total
    assert counts["lanes"] == [True, False]
    assert LANE_STATS.requests == counts["requests"]
    assert LANE_STATS.residue_requests == counts["residue"]
    assert LANE_STATS.fast_trials == 1
    assert LANE_STATS.scalar_trials == 1
    snap = LANE_STATS.snapshot()
    assert snap["batches"] > 0
    LANE_STATS.reset()
    run_fleet_trial(config, "clock", 7, fast_fleet=False)
    assert LANE_STATS.scalar_trials == 1 and LANE_STATS.fast_trials == 0


#: Arrival-bound and serving-bound cells, with and without writes.
BATCH_EVENT_CELLS = {
    "arrival-bound": {},
    "serving-bound": SERVING_BOUND,
    "serving-writes": SERVING_WRITES,
    **{f"draw-window/{k}": v for k, v in DRAW_WINDOW_CELLS.items()},
}


@pytest.mark.parametrize("cell", list(BATCH_EVENT_CELLS))
def test_fleet_batch_event_sequence_identical(cell):
    # Not only the totals: every tenant emits one ``fleet_batch`` per
    # KEY_BATCH, in the same interleaving with the other tenants, so
    # per-event consumers (the metrics plane's residue histogram) see
    # the same stream in both modes.
    config = small_config(**BATCH_EVENT_CELLS[cell])
    _, fast = row_and_batch_events(config, "mglru", SEED, fast_fleet=True)
    _, off = row_and_batch_events(config, "mglru", SEED, fast_fleet=False)
    assert sum(n for n, _ in fast) == config.n_requests_total
    assert fast == off


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
