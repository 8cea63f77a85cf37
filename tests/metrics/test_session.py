"""MetricsSession integration: bit-identity, counter import, cleanup."""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.metrics import MetricsConfig, parse_prom_text
from repro.trace import tracepoints


def test_metered_trial_is_bit_identical(metered_trial):
    off, on = metered_trial
    # TrialResult equality excludes trace/metrics_registry, so this is
    # the full counters/metrics/latencies/runtime comparison.
    assert off == on
    assert off.runtime_ns == on.runtime_ns
    assert off.counters == on.counters


def test_registry_counters_match_trial_counters(metered_trial):
    _, on = metered_trial
    totals = on.metrics_registry.counter_totals()
    assert totals["repro_mm_major_faults_total"] == on.major_faults
    assert totals["repro_mm_minor_faults_total"] == on.minor_faults
    assert totals["repro_trials_total"] == 1
    assert totals["repro_sim_runtime_ns_total"] == on.runtime_ns


def test_fault_histogram_count_matches_faults(metered_trial):
    _, on = metered_trial
    fam = on.metrics_registry.get("repro_fault_service_ns")
    assert fam is not None
    major = fam.labels(kind="major")
    minor = fam.labels(kind="minor")
    assert major.count == on.major_faults
    assert minor.count == on.minor_faults
    assert major.sum > 0


def test_swap_device_label(metered_trial):
    _, on = metered_trial
    fam = on.metrics_registry.get("repro_swap_io_ns")
    dev_idx = fam.labelnames.index("device")
    devices = {key[dev_idx] for key in fam.children}
    assert devices == {"ssd"}


def test_hooks_detached_after_trial(metered_trial):
    assert tracepoints.active() == ()


def test_registry_meta_and_exposition(metered_trial):
    _, on = metered_trial
    reg = on.metrics_registry
    assert reg.meta["policy"] == "mglru"
    assert reg.meta["swap"] == "ssd"
    samples = parse_prom_text(reg.to_prom_text())
    assert samples  # non-empty and well-formed


def test_disabled_config_attaches_nothing(tiny_workload):
    config = SystemConfig(policy="clock", swap="zram", capacity_ratio=0.9)
    result = run_trial(
        tiny_workload,
        config,
        7,
        metrics=replace(MetricsConfig(), enabled=False),
    )
    assert result.metrics_registry is None
    assert tracepoints.active() == ()


def test_import_counters_off_skips_mm_totals(tiny_workload):
    config = SystemConfig(policy="clock", swap="zram", capacity_ratio=0.9)
    result = run_trial(
        tiny_workload,
        config,
        7,
        metrics=MetricsConfig(import_counters=False),
    )
    totals = result.metrics_registry.counter_totals()
    assert "repro_mm_major_faults_total" not in totals
    assert totals["repro_trials_total"] == 1
