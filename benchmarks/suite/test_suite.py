"""Tests of the benchmark harness: verdicts, the file-to-layer mapping,
folded output, digest equality across pool sizes, and the smoke run.

Run with ``PYTHONPATH=src pytest benchmarks/suite``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import suite_compare
import suite_trace

HERE = pathlib.Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.0, 10.05]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([10.02, 9.98, 10.1, 10.0, 9.95], "lower", "unchanged"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "lower", "regressed"),
        ([8.0, 8.1, 7.9, 8.0, 8.05], "lower", "improved"),
        ([8.0, 8.1, 7.9, 8.0, 8.05], "higher", "regressed"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "higher", "improved"),
        # Faster median but one pair lost: not a gain, within the bound.
        ([9.7, 9.6, 10.0, 9.65, 9.7], "lower", "unchanged"),
        ([5.0, 10.0, 16.0, 20.0, 8.0], "lower", "unresolved"),
    ],
)
def test_verdicts(change, better, expected):
    assert suite_compare.verdict(PARENT, change, 0.1, better) == expected


def test_wide_spread_resolves_when_every_change_run_wins():
    noisy = [10.0, 14.0, 18.0, 11.0, 16.0]
    assert suite_compare.verdict(noisy, [5.0, 6.0, 7.0, 5.5, 6.5], 0.1, "lower") == "improved"
    assert suite_compare.verdict(noisy, [9.0, 13.0, 17.0, 10.0, 15.0], 0.1, "lower") == "unresolved"


def test_summarize_quartiles():
    s = suite_compare.summarize([1, 2, 3, 4, 5])
    assert (s["median"], s["min"], s["max"], s["n"]) == (3, 1, 5, 5)
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    one = suite_compare.summarize([7.0])
    assert one["q1"] == one["q3"] == one["median"] == 7.0


def _record(wall_samples, bound=0.1):
    return {
        "bounds": {"wall_s": bound},
        "workloads": {
            "w": {"end_to_end": {"wall_s": {
                "samples": wall_samples, **suite_compare.summarize(wall_samples),
                "unit": "s", "better": "lower",
            }}}
        },
    }


def test_each_phase_is_scaled_by_the_host_speed_sampled_during_it():
    import run

    nominal = run.SPEED_NOMINAL_MS
    rounds = [{"traced": traced, "wall_s": wall, "parent_cpu_s": 0.5, "child_cpu_s": 3.5,
               "sim_ops": 1000} for wall, traced in ((2.0, False), (4.0, False), (9.0, True))]
    # The first round ran at nominal speed, the second at half of it;
    # both are 2 s of nominal work.  The traced round does not count.
    detail = {"rounds": rounds, "setup_s": [1.0, 1.2, 1.1],
              "kernel_ms": {"setup": [nominal / 2] * 3, "rounds": [nominal, 2 * nominal, nominal]}}
    values = run.end_to_end_values(detail, {"maxrss_kb": {"self": 1024, "children": 2048}})
    assert values["wall_s"] == pytest.approx(2.0)
    assert values["cpu_s"] == pytest.approx(4.0 * 0.75)
    assert values["sim_ops_per_s"] == pytest.approx(500)
    assert values["setup_s"] == pytest.approx(1.1 * 2)
    assert values["peak_rss_mb"] == 1 + run.JOBS * 2
    assert run.trace_overhead(detail) == pytest.approx(9.0 / 2.0 - 1)


def test_kernel_ms_trims_the_samples_of_its_phase():
    import run

    samples = [(0.5, 9.0)] + [(1.0 + i / 100, 1.0) for i in range(18)] + [(1.5, 5.0), (1.6, 0.1)]
    assert run.kernel_ms(samples, 1.0, 2.0) == pytest.approx(1.0)
    # A phase with too few samples of its own takes the nearest ones.
    assert run.kernel_ms(samples, 0.4, 0.6) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        run.kernel_ms([], 0.0, 1.0)


def test_compare_uses_the_parent_bound():
    rows = suite_compare.compare(_record(PARENT, bound=0.3), _record([12.0, 12.1, 11.9, 12.0, 12.05]))
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [("w", "wall_s", "unchanged")]
    rows = suite_compare.compare(_record(PARENT, bound=0.1), _record([12.0, 12.1, 11.9, 12.0, 12.05]))
    assert rows[0]["verdict"] == "regressed"


# ----------------------------------------------------------------------
# layers and folded output
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path, layer",
    [
        ("/x/src/repro/mm/system.py", "mm"),
        ("/x/src/repro/policies/mglru/policy.py", "policies"),
        ("/x/src/repro/errors.py", "repro"),
        ("src/repro/sim/engine.py", "sim"),
        ("/usr/lib/python3.11/json/__init__.py", None),
        ("/x/repro/benchmarks/suite/run.py", None),
    ],
)
def test_layer_of(path, layer):
    assert suite_trace.layer_of(path) == layer


def _frames(*filenames):
    frame = None
    for name in filenames:  # outermost first
        frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=name), f_back=frame)
    return frame


def test_stack_path_collapses_repeats_and_skips_foreign_frames():
    frame = _frames(
        "/x/src/repro/core/experiment.py",
        "/usr/lib/python3.11/threading.py",
        "/x/src/repro/sim/engine.py",
        "/x/src/repro/mm/system.py",
        "/x/src/repro/mm/page_table.py",
        "/site-packages/numpy/core/fromnumeric.py",
    )
    assert suite_trace.stack_path(frame) == ["core", "sim", "mm"]
    assert suite_trace.self_layer("worker;core;sim;mm") == "mm"
    assert suite_trace.self_layer("harness;other") == "other"


def test_layers_folded_output(tmp_path):
    from repro.spans.profiler import write_folded

    import suite_work

    stacks = Counter({"worker;core;sim;mm": 3, "harness;other": 1})
    path = tmp_path / "layers.folded"
    assert write_folded(suite_work._Folded(stacks), path) == 2
    assert path.read_text() == "harness;other 1\nworker;core;sim;mm 3\n"


def test_sampler_attributes_samples_to_layers(tmp_path):
    from repro.sim.rng import RngTree

    tracer = suite_trace.Tracer(tmp_path)
    tracer.start_sampling()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            RngTree(1).subtree("a", "b").stream("c")
    finally:
        tracer.stop_sampling()
    stacks, _spans = tracer.collect()
    assert stacks and all(stack.startswith("harness;") for stack in stacks)
    assert suite_trace.self_samples(stacks)["sim"] > 0


# ----------------------------------------------------------------------
# digests: serial == jobs=2
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["smoke_figure", "smoke_fleet"])
def test_round_digest_is_independent_of_pool_size(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    import suite_work

    workload = suite_work.SMOKE_WORKLOADS[name]
    serial = suite_work.run_round(workload, 10_000, tmp_path, jobs=1)
    pooled = suite_work.run_round(workload, 10_000, tmp_path, jobs=2)
    assert serial.digest == pooled.digest
    assert serial.counts == pooled.counts


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------


def test_smoke_run_validates_its_record():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], env=_clean_env(),
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-4000:]
    record = json.loads((HERE / "out" / "smoke-record.json").read_text())
    assert suite_compare.validate_record(record, SPEC) == []
    assert set(record["workloads"]) == {"smoke_figure", "smoke_fleet"}


def test_refuses_foreign_repro_variables():
    env = {**_clean_env(), "REPRO_FAST_ACCESS": "0"}
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "smoke_figure"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "REPRO_FAST_ACCESS" in proc.stderr


def test_fails_without_the_simulator_sources(tmp_path):
    suite_dir = tmp_path / "benchmarks" / "suite"
    shutil.copytree(HERE, suite_dir, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/suite/run.py", "--workload", "fleet_serving"],
                          cwd=tmp_path, env=_clean_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_lists_exactly_the_metrics_the_harness_produces(tmp_path):
    import suite_work

    rounds = [
        suite_work.Round(jobs=2, started=0.0, ended=wall, wall_s=wall, parent_cpu_s=0.1,
                         child_cpu_s=1.5, sim_ops=10, digest="d", traced=traced,
                         counts={"core.trials": 1})
        for wall, traced in ((1.0, False), (1.1, True))
    ]
    probe = {f"observe.{p}_x": 1.0 for p in ("trace", "metrics", "spans", "psi")}
    probe["fleet.lane_speedup"] = 1.0
    metrics = suite_work.layer_metrics(rounds, Counter({"worker;core;mm": 2}), [], probe)
    assert set(metrics) | {"bench.trace_overhead"} == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(suite_work.WORKLOADS)
