"""Zipfian sampler: exactness and skew."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.zipf import GuideTable, ZipfSampler


class TestZipf:
    def test_samples_within_range(self):
        sampler = ZipfSampler(100)
        out = sampler.sample(np.random.default_rng(0), 10_000)
        assert out.min() >= 0 and out.max() < 100

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(1000, theta=0.99)
        out = sampler.sample(np.random.default_rng(0), 50_000)
        counts = np.bincount(out, minlength=1000)
        assert counts[0] == counts.max()

    def test_pmf_matches_empirical(self):
        sampler = ZipfSampler(50, theta=0.99)
        out = sampler.sample(np.random.default_rng(0), 200_000)
        empirical = np.bincount(out, minlength=50) / 200_000
        for rank in (0, 1, 10, 49):
            assert empirical[rank] == pytest.approx(sampler.pmf(rank), rel=0.1)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(10, theta=0.0)
        for rank in range(10):
            assert sampler.pmf(rank) == pytest.approx(0.1)

    def test_hottest_fraction(self):
        sampler = ZipfSampler(10_000, theta=0.99)
        # Classic YCSB zipf: a small head carries a large mass.
        assert sampler.hottest_fraction(100) > 0.4
        assert sampler.hottest_fraction(10_000) == pytest.approx(1.0)

    def test_permutation_scatters_ranks(self):
        perm = np.arange(100)[::-1]
        sampler = ZipfSampler(100, permutation=perm)
        out = sampler.sample(np.random.default_rng(0), 20_000)
        counts = np.bincount(out, minlength=100)
        assert counts[99] == counts.max()  # rank 0 mapped to item 99

    @pytest.mark.parametrize("permuted", [False, True])
    def test_rank_maps_compose_the_permutation(self, permuted):
        # A table composed once by rank serves every draw with one
        # gather: the fleet's rank -> PTE-index maps rely on it.
        n = 500
        perm = np.random.default_rng(5).permutation(n) if permuted else None
        sampler = ZipfSampler(n, theta=0.99, permutation=perm)
        table = np.random.default_rng(6).integers(0, 1 << 40, size=n)
        by_rank = table[sampler.item_of_rank]
        np.testing.assert_array_equal(
            by_rank[sampler.sample_ranks(np.random.default_rng(9), 20_000)],
            table[sampler.sample(np.random.default_rng(9), 20_000)],
        )

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            ZipfSampler(0)
        with pytest.raises(ConfigError):
            ZipfSampler(10, theta=-1)
        with pytest.raises(ConfigError):
            ZipfSampler(10, permutation=np.arange(5))
        with pytest.raises(ConfigError):
            ZipfSampler(10).pmf(10)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 500),
        theta=st.floats(0.0, 1.5),
        seed=st.integers(0, 100),
    )
    def test_pmf_sums_to_one_and_monotone(self, n, theta, seed):
        sampler = ZipfSampler(n, theta=theta)
        pmf = [sampler.pmf(r) for r in range(n)]
        assert sum(pmf) == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(pmf, pmf[1:]))


class TestGuideTable:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        theta=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inversion_equals_binary_search(self, n, theta, seed):
        # Sampling draws, every CDF value with both float neighbours,
        # every guide boundary b / 2^k, 0.0 and values past 1.0: the
        # guide walk must land exactly where ``searchsorted(side="left")``
        # does.
        sampler = ZipfSampler(n, theta=theta)
        cdf = sampler.cdf
        table = GuideTable(cdf)
        size = table._size
        u = np.concatenate(
            [
                np.random.default_rng(seed).random(4096),
                cdf,
                np.nextafter(cdf, -np.inf),
                np.nextafter(cdf, np.inf),
                np.arange(size + 1) / size,
                [0.0, 1.0 + 2.0 / size, 1.5, 7.0],
            ]
        )
        np.testing.assert_array_equal(
            table.invert(u), np.searchsorted(cdf, u, side="left")
        )

    def test_sample_draws_unchanged(self):
        perm = np.random.default_rng(3).permutation(15_000)
        sampler = ZipfSampler(15_000, theta=0.99, permutation=perm)
        u = np.random.default_rng(11).random(50_000)
        expected = perm[np.searchsorted(sampler.cdf, u, side="left")]
        got = sampler.sample(np.random.default_rng(11), 50_000)
        np.testing.assert_array_equal(got, expected)
