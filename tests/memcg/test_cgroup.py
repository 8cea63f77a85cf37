"""MemCgroup ledger, validation, and apportionment unit tests."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._units import PAGE_SIZE
from repro.errors import ConfigError, SimulationError
from repro.memcg import MemCgroup, MemcgPolicy
from repro.memcg.policy import apportion
from repro.policies import make_policy


def _cg(**kwargs) -> MemCgroup:
    kwargs.setdefault("name", "t0")
    kwargs.setdefault("policy", make_policy("clock"))
    return MemCgroup(**kwargs)


class TestValidation:
    def test_limit_below_one_page_rejected(self):
        with pytest.raises(ConfigError, match="limit"):
            _cg(limit_pages=0)

    def test_negative_soft_limit_rejected(self):
        with pytest.raises(ConfigError, match="soft"):
            _cg(soft_limit_pages=-1)

    def test_negative_protection_rejected(self):
        with pytest.raises(ConfigError, match="protection"):
            _cg(low_pages=-1)
        with pytest.raises(ConfigError, match="protection"):
            _cg(min_pages=-3)

    def test_min_above_low_rejected(self):
        with pytest.raises(ConfigError, match="min"):
            _cg(low_pages=10, min_pages=11)

    def test_min_alone_is_fine(self):
        # low unset (0) means min is the only ring; no clamp applies.
        cg = _cg(min_pages=8)
        assert cg.min_pages == 8


class TestFromBytes:
    def test_rounds_down_to_pages(self):
        cg = MemCgroup.from_bytes(
            "t", make_policy("clock"), PAGE_SIZE,
            limit_bytes=10 * PAGE_SIZE + 123,
            soft_limit_bytes=5 * PAGE_SIZE - 1,
            low_bytes=2 * PAGE_SIZE,
        )
        assert cg.limit_pages == 10
        assert cg.soft_limit_pages == 4
        assert cg.low_pages == 2
        assert cg.min_pages == 0

    def test_tiny_hard_limit_floors_at_one_page(self):
        cg = MemCgroup.from_bytes(
            "t", make_policy("clock"), PAGE_SIZE, limit_bytes=100
        )
        assert cg.limit_pages == 1

    def test_none_limit_stays_unlimited(self):
        cg = MemCgroup.from_bytes("t", make_policy("clock"), PAGE_SIZE)
        assert cg.limit_pages is None


class TestLedger:
    def test_charge_uncharge_roundtrip(self):
        cg = _cg()
        cg.charge(3)
        cg.charge()
        assert cg.usage_pages == 4
        cg.uncharge(2)
        cg.uncharge(2)
        assert cg.usage_pages == 0

    def test_uncharge_below_zero_raises(self):
        cg = _cg()
        cg.charge(2)
        with pytest.raises(SimulationError, match="negative"):
            cg.uncharge(3)

    def test_peak_tracks_high_water_mark(self):
        cg = _cg()
        cg.charge(5)
        cg.uncharge(4)
        cg.charge(2)
        assert cg.usage_pages == 3
        assert cg.stats.peak_usage_pages == 5

    def test_excess_arithmetic(self):
        cg = _cg(soft_limit_pages=10, low_pages=6, min_pages=2)
        cg.charge(12)
        assert cg.excess_over_soft() == 2
        assert cg.excess_over_low() == 6
        assert cg.excess_over_min() == 10
        cg.uncharge(8)  # usage 4: under soft and low, above min
        assert cg.excess_over_soft() == 0
        assert cg.excess_over_low() == 0
        assert cg.excess_over_min() == 2


class TestApportion:
    def test_shares_sum_exactly(self):
        shares = apportion(100, [3, 1, 1])
        assert sum(shares) == 100
        assert shares == [60, 20, 20]

    def test_largest_remainder_with_ties(self):
        # Equal weights, total not divisible: earliest indices win the
        # remainder (deterministic, order-independent of dict order).
        assert apportion(5, [1, 1, 1]) == [2, 2, 1]

    def test_zero_weight_gets_nothing(self):
        shares = apportion(7, [0, 5, 0, 2])
        assert shares[0] == 0 and shares[2] == 0
        assert sum(shares) == 7

    def test_total_smaller_than_entries(self):
        shares = apportion(1, [1, 1, 1, 1])
        assert sum(shares) == 1


def _spec_apportion(total, weights):
    """The original largest-remainder implementation, kept as the spec."""
    w_sum = sum(weights)
    if w_sum <= 0 or total <= 0:
        return [0] * len(weights)
    shares = [total * w // w_sum for w in weights]
    remainder = total - sum(shares)
    if remainder:
        # Largest fractional part first; index breaks ties.
        order = sorted(
            range(len(weights)),
            key=lambda i: (-(total * weights[i] % w_sum), i),
        )
        for i in order[:remainder]:
            if weights[i] > 0:
                shares[i] += 1
    return shares


_WEIGHT = st.just(0) | st.integers(0, 8) | st.integers(0, 2**40)
_WEIGHTS = st.one_of(
    st.lists(_WEIGHT, min_size=1, max_size=40),
    # Ties: one weight repeated.
    st.builds(lambda w, n: [w] * n, _WEIGHT, st.integers(1, 40)),
    # A single positive weight among zeros.
    st.builds(
        lambda w, n, at: [w if i == at % n else 0 for i in range(n)],
        st.integers(1, 2**40),
        st.integers(1, 40),
        st.integers(0, 39),
    ),
)
#: Small totals fall below most weight sums, large ones above.
_TOTALS = st.integers(-2, 64) | st.integers(0, 2**42)


class TestApportionProperties:
    @settings(max_examples=500, deadline=None)
    @given(total=_TOTALS, weights=_WEIGHTS)
    @example(total=32, weights=[0, 0, 0])
    @example(total=5, weights=[7, 7, 7])
    @example(total=32, weights=[0, 0, 9, 0])
    @example(total=1000, weights=[3, 1, 1])
    @example(total=3, weights=[2**40, 2**40 - 1, 1, 0])
    def test_matches_spec(self, total, weights):
        shares = apportion(total, weights)
        assert shares == _spec_apportion(total, weights)
        if total >= 0 and any(w > 0 for w in weights):
            assert sum(shares) == total
        for weight, share in zip(weights, shares):
            if weight == 0:
                assert share == 0


class TestMemcgPolicyConstruction:
    def test_requires_cgroups(self):
        with pytest.raises(ConfigError):
            MemcgPolicy([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            MemcgPolicy([_cg(name="a"), _cg(name="a")])

    def test_assigns_indices(self):
        root = MemcgPolicy([_cg(name="a"), _cg(name="b"), _cg(name="c")])
        assert [cg.index for cg in root.cgroups] == [0, 1, 2]
        assert root.name == "memcg[3]"
