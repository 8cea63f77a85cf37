"""Shared fixtures for the figure-reproduction benchmarks.

All benchmarks share one :class:`~repro.core.experiment.ExperimentRunner`
so experiment cells common to several figures (e.g. the SSD@50% grid
used by Figures 1, 2, 4, 5 and 11) are measured once per session.

Environment knobs:

- ``REPRO_TRIALS`` — trials per cell (default 3 for a quick pass;
  set 25 to match the paper's §IV methodology; YCSB cells always run
  ``max(2, trials // 2)`` since latencies pool across trials);
- ``REPRO_SEED`` — base seed (default 10000).

A value that is not an integer, a trial count below 1 or a negative
seed raises :class:`~repro.errors.ConfigError` naming the variable.

Each figure's rendered table is printed and archived under
``benchmarks/output/``.
"""

from __future__ import annotations

import pathlib
from typing import Tuple

import pytest

from repro._env import env_int
from repro.core.experiment import ExperimentRunner

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def figure_knobs() -> Tuple[int, int]:
    """(n_trials, base_seed) from ``REPRO_TRIALS`` and ``REPRO_SEED``."""
    return (
        env_int("REPRO_TRIALS", 3, minimum=1),
        env_int("REPRO_SEED", 10_000, minimum=0),
    )


@pytest.fixture(scope="session")
def figure_env():
    """(runner, n_trials, base_seed) shared by every figure benchmark."""
    n_trials, base_seed = figure_knobs()
    return ExperimentRunner(), n_trials, base_seed


def archive_figure(result) -> None:
    """Write a figure's text rendering to benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{result.figure_id}.txt"
    path.write_text(
        f"{result.figure_id}: {result.description}\n"
        f"paper claim: {result.paper_claim}\n\n{result.text}\n"
    )


def run_figure(benchmark, figure_fn, figure_env):
    """Standard body of one figure benchmark."""
    runner, n_trials, base_seed = figure_env
    result = benchmark.pedantic(
        figure_fn,
        args=(runner,),
        kwargs={"n_trials": n_trials, "base_seed": base_seed},
        rounds=1,
        iterations=1,
    )
    archive_figure(result)
    print()
    print(result)
    return result
