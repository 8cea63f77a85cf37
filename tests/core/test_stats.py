"""Statistics helpers: regression, tests, bootstrap."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.stats import (
    bootstrap_mean_ci,
    coefficient_of_variation,
    linear_fit,
    mann_whitney,
    welch_ttest,
)
from repro.errors import ConfigError


class TestLinearFit:
    def test_perfect_line(self):
        x = np.arange(10)
        fit = linear_fit(x, 3 * x + 2)
        assert fit.slope == pytest.approx(3)
        assert fit.intercept == pytest.approx(2)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_high_r2(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 100, 50)
        y = 2 * x + rng.normal(0, 1, 50)
        fit = linear_fit(x, y)
        assert fit.r_squared > 0.99

    def test_uncorrelated_low_r2(self):
        rng = np.random.default_rng(0)
        fit = linear_fit(rng.random(100), rng.random(100))
        assert fit.r_squared < 0.1

    def test_predict(self):
        fit = linear_fit([0, 1, 2], [1, 3, 5])
        assert fit.predict(np.array([10]))[0] == pytest.approx(21)

    def test_degenerate_x(self):
        fit = linear_fit([5, 5, 5], [1, 2, 3])
        assert fit.r_squared == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            linear_fit([1], [1])


class TestHypothesisTests:
    def test_welch_identical_groups_high_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 1, 200)
        b = rng.normal(10, 1, 200)
        _, p = welch_ttest(a, b)
        assert p > 0.01

    def test_welch_different_means_low_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 1, 50)
        b = rng.normal(12, 1, 50)
        _, p = welch_ttest(a, b)
        assert p < 0.001

    def test_mann_whitney_detects_shift(self):
        rng = np.random.default_rng(0)
        a = rng.exponential(1.0, 80)
        b = rng.exponential(3.0, 80)
        _, p = mann_whitney(a, b)
        assert p < 0.001

    def test_small_samples_rejected(self):
        with pytest.raises(ConfigError):
            welch_ttest([1], [1, 2])
        with pytest.raises(ConfigError):
            mann_whitney([], [1])


class TestBootstrap:
    def test_ci_contains_true_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5, 1, 100)
        lo, hi = bootstrap_mean_ci(data, seed=1)
        assert lo < 5 < hi
        assert hi - lo < 1.0

    def test_deterministic_per_seed(self):
        data = np.arange(30.0)
        assert bootstrap_mean_ci(data, seed=3) == bootstrap_mean_ci(data, seed=3)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            bootstrap_mean_ci([1.0])
        with pytest.raises(ConfigError):
            bootstrap_mean_ci([1.0, 2.0], confidence=0.3)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(1, 100), min_size=3, max_size=30))
    def test_ci_ordered_and_within_range(self, data):
        lo, hi = bootstrap_mean_ci(data, seed=0)
        assert lo <= hi
        assert min(data) - 1e-9 <= lo and hi <= max(data) + 1e-9


class TestCV:
    def test_constant_data_zero(self):
        assert coefficient_of_variation([3, 3, 3]) == 0.0

    def test_known_value(self):
        cv = coefficient_of_variation([8, 12])
        assert cv == pytest.approx(np.std([8, 12], ddof=1) / 10)


def test_package_import_does_not_load_scipy():
    # scipy is most of the package's import time and memory; only the
    # three test functions above load it, on first call.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro, repro.core.figures; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
