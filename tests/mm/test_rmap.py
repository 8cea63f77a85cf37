"""Reverse map: mapping integrity and cost sampling."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mm.page import Page
from repro.mm.rmap import ReverseMap


def make_rmap(seed=0, base=800, jitter=500):
    return ReverseMap(np.random.default_rng(seed), base, jitter)


class TestMapping:
    def test_insert_lookup_remove(self):
        rmap = make_rmap()
        page = Page(0)
        rmap.insert(5, page)
        assert rmap.lookup(5) is page
        assert len(rmap) == 1
        assert rmap.remove(5) is page
        assert rmap.lookup(5) is None

    def test_double_insert_rejected(self):
        rmap = make_rmap()
        rmap.insert(1, Page(0))
        with pytest.raises(SimulationError):
            rmap.insert(1, Page(1))

    def test_remove_missing_rejected(self):
        with pytest.raises(SimulationError):
            make_rmap().remove(0)


class TestCostModel:
    def test_walk_cost_at_least_base(self):
        rmap = make_rmap(base=1000, jitter=200)
        for _ in range(100):
            assert rmap.walk_cost_ns() >= 1000

    def test_walk_cost_jitter_varies(self):
        rmap = make_rmap()
        costs = {rmap.walk_cost_ns() for _ in range(50)}
        assert len(costs) > 10

    def test_walk_count_incremented(self):
        rmap = make_rmap()
        for _ in range(7):
            rmap.walk_cost_ns()
        assert rmap.walk_count == 7

    def test_mean_jitter_close_to_parameter(self):
        rmap = make_rmap(base=0, jitter=500)
        samples = [rmap.walk_cost_ns() for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(500, rel=0.15)

    def test_batched_costs_match_scalar_draws(self):
        """walk_costs_ns(n) equals n scalar draws, bit for bit — the
        contract the eviction-triage block charge rests on.  The total
        spans several pool refills to pin the slice boundaries too."""
        a = make_rmap(seed=42)
        b = make_rmap(seed=42)
        # Reference: one exponential draw per walk, truncated by int().
        rng = np.random.default_rng(42)
        sizes = [1, 7, 32, a.JITTER_POOL, a.JITTER_POOL + 3, 256]
        for n in sizes:
            batched = a.walk_costs_ns(n)
            scalars = [b.walk_cost_ns() for _ in range(n)]
            reference = [int(800 + rng.exponential(500)) for _ in range(n)]
            assert batched == scalars == reference
        assert a.walk_count == b.walk_count == sum(sizes)

    def test_batched_costs_interleave_with_scalar(self):
        """Mixing batch and scalar draws on one walker keeps the stream
        aligned with an all-scalar reference."""
        a = make_rmap(seed=7)
        b = make_rmap(seed=7)
        mixed = list(a.walk_costs_ns(10)) + [a.walk_cost_ns()] + list(
            a.walk_costs_ns(5)
        )
        reference = [b.walk_cost_ns() for _ in range(16)]
        assert mixed == reference
