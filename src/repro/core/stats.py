"""Statistical tools the paper's analysis uses.

- linear regression with r² (§V-A's "coefficient of determination of
  over 0.98 for linear regression" between faults and runtime);
- Welch's t-test and Mann-Whitney U (§V-C's "statistically significant
  in all cases (p < 0.01)");
- bootstrap confidence intervals for mean ratios (used by the report
  layer when comparing policies).

``scipy.stats`` is imported inside the three functions that call it:
``import repro`` reaches this module, and loading scipy costs most of
the package's import time and memory, so processes that never run one
of these tests do not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope·x + intercept with fit quality."""

    slope: float
    intercept: float
    r_squared: float
    n: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Fitted values at *x*."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares of y on x with r²."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ConfigError("linear_fit needs two equal-length samples, n >= 2")
    if np.all(x == x[0]):
        # Degenerate: vertical data; define r² = 0 and slope 0.
        return LinearFit(0.0, float(y.mean()), 0.0, int(x.size))
    from scipy import stats as sps

    result = sps.linregress(x, y)
    return LinearFit(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_squared=float(result.rvalue**2),
        n=int(x.size),
    )


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's unequal-variance t-test; returns (t, p)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ConfigError("welch_ttest needs at least 2 samples per group")
    from scipy import stats as sps

    t, p = sps.ttest_ind(a, b, equal_var=False)
    return float(t), float(p)


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Mann-Whitney U (two-sided); returns (U, p)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise ConfigError("mann_whitney needs non-empty samples")
    from scipy import stats as sps

    u, p = sps.mannwhitneyu(a, b, alternative="two-sided")
    return float(u), float(p)


def bootstrap_mean_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2_000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean."""
    data = np.asarray(samples, dtype=np.float64)
    if data.size < 2:
        raise ConfigError("bootstrap needs at least 2 samples")
    if not 0.5 < confidence < 1.0:
        raise ConfigError("confidence must be in (0.5, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(n_resamples, data.size))
    means = data[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """std/mean — the normalized variation measure used in summaries."""
    data = np.asarray(samples, dtype=np.float64)
    if data.size < 2 or data.mean() == 0:
        return 0.0
    return float(data.std(ddof=1) / data.mean())
