"""Trial runner: determinism, cell caching, counters plumbing.

Uses tiny workload parameter overrides via the registry so each trial
runs in well under a second.
"""

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, build_system, run_trial
from repro.policies import make_policy
from repro.sim.engine import Engine
from repro.sim.rng import RngTree
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice
from repro.workloads.tpch import TPCHParams, TPCHWorkload


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "tpch",
        lambda: TPCHWorkload(
            TPCHParams(
                table_pages=96, hash_pages=96, shuffle_pages=64,
                n_threads=4, n_queries=1,
            )
        ),
    )


def zram_config(policy="mglru"):
    return SystemConfig(policy=policy, swap="zram", capacity_ratio=0.5)


class TestBuildSystem:
    @pytest.mark.parametrize(
        "swap, device", [("ssd", SSDSwapDevice), ("zram", ZRAMSwapDevice)]
    )
    def test_given_policy_over_configured_device(self, swap, device):
        """The caller's policy runs, not the one the config names (the
        fleet passes its memcg root), on the config's device and CPUs."""
        config = SystemConfig(policy="clock", swap=swap, n_cpus=2)
        policy = make_policy("fifo")
        system = build_system(Engine(), RngTree(1), config, 128, policy)
        assert system.policy is policy
        assert type(system.swap_device) is device
        assert system.cpu.n_cpus == 2
        assert system.costs is config.costs


class TestRunTrial:
    def test_trial_fields_populated(self):
        trial = run_trial("tpch", zram_config(), seed=1)
        assert trial.workload == "tpch"
        assert trial.policy == "mglru"
        assert trial.runtime_ns > 0
        assert trial.major_faults > 0
        assert trial.footprint_pages == 96 + 96 + 64
        assert trial.capacity_frames == trial.footprint_pages // 2
        assert "cpu_utilization" in trial.counters
        assert trial.counters["swap_reads"] > 0

    def test_same_seed_same_trial(self):
        a = run_trial("tpch", zram_config(), seed=9)
        b = run_trial("tpch", zram_config(), seed=9)
        assert a.runtime_ns == b.runtime_ns
        assert a.major_faults == b.major_faults

    def test_different_seeds_differ(self):
        a = run_trial("tpch", zram_config(), seed=1)
        b = run_trial("tpch", zram_config(), seed=2)
        assert (a.runtime_ns, a.major_faults) != (b.runtime_ns, b.major_faults)

    def test_capacity_scales_with_ratio(self):
        low = run_trial("tpch", zram_config().with_(capacity_ratio=0.5), 1)
        high = run_trial("tpch", zram_config().with_(capacity_ratio=0.9), 1)
        assert high.capacity_frames > low.capacity_frames
        assert high.major_faults < low.major_faults


class TestRunner:
    def test_runs_all_trials(self):
        runner = ExperimentRunner()
        config = ExperimentConfig(
            workload="tpch", system=zram_config(), n_trials=3, base_seed=100
        )
        result = runner.run(config)
        assert result.n_trials == 3
        assert [t.seed for t in result.trials] == [100, 101, 102]

    def test_cell_caching(self):
        runner = ExperimentRunner()
        config = ExperimentConfig(
            workload="tpch", system=zram_config(), n_trials=2, base_seed=100
        )
        first = runner.run(config)
        second = runner.run(config)
        assert first is second  # cached object, no re-execution

    def test_progress_callback(self):
        notes = []
        runner = ExperimentRunner(progress=notes.append)
        config = ExperimentConfig(
            workload="tpch", system=zram_config(), n_trials=2, base_seed=1
        )
        runner.run(config)
        assert len(notes) == 2

    def test_grid_shape(self):
        runner = ExperimentRunner()
        results = runner.run_grid(
            ["tpch"], ["clock", "mglru"], swap="zram", n_trials=1
        )
        assert len(results) == 2
        assert {r.policy for r in results} == {"clock", "mglru"}
