"""Registry unit tests: histogram edge cases, merge, exposition."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    parse_prom_text,
)
from repro.metrics.registry import N_BUCKETS

TOP = BUCKET_BOUNDS[-1]
I64_MAX = (1 << 63) - 1


# ----------------------------------------------------------------------
# Histogram binning edges
# ----------------------------------------------------------------------


def test_zero_width_observations_land_in_bucket_zero():
    h = Histogram()
    for v in (0, 0.0, 1, 1.0):
        h.observe(v)
    assert h.buckets[0] == 4
    assert h.count == 4
    assert sum(h.buckets[1:]) == 0


def test_below_bucket_zero_clamps():
    h = Histogram()
    h.observe(-5)
    h.observe(-0.25)
    assert h.buckets[0] == 2


def test_above_top_bucket_clamps():
    h = Histogram()
    h.observe(TOP + 1)
    h.observe(TOP * 16)
    assert h.buckets[N_BUCKETS - 1] == 2
    # Exactly the top bound still belongs to the finite bucket below it.
    h.observe(TOP)
    assert h.buckets[N_BUCKETS - 1] == 2


def test_power_of_two_boundaries():
    h = Histogram()
    # 2^k lands in bucket k; 2^k + 1 in bucket k + 1.
    for k in (1, 5, 20, 40):
        h.observe(1 << k)
        assert h.buckets[k] == 1, k
        h.observe((1 << k) + 1)
        assert h.buckets[k + 1] == 1, k


def test_fractional_observations_ceil_up():
    h = Histogram()
    h.observe(2.5)  # ceil -> 3 -> bucket 2 (range (2, 4])
    assert h.buckets[2] == 1
    h.observe(2.0)  # exact power of two -> bucket 1
    assert h.buckets[1] == 1


def test_observe_many_matches_scalar_binning():
    rng = random.Random(99)
    values = [rng.randrange(0, 1 << 50) for _ in range(2000)]
    values += [0, 1, 2, TOP, TOP + 7, (1 << 30), (1 << 30) + 1]
    scalar = Histogram()
    for v in values:
        scalar.observe(v)
    vector = Histogram()
    vector.observe_many(np.asarray(values, dtype=np.int64))
    assert scalar.buckets == vector.buckets
    assert scalar.count == vector.count
    assert scalar.sum == vector.sum


@st.composite
def _elapsed_case(draw):
    """A clock and sorted int64 starts, each ``now - start`` in int64.

    Starts come from a small pool (so they tie) of bucket edges and
    their neighbours, latencies at or below 1 (negative included),
    latencies above 2^62, and anything else in range.
    """
    now = draw(st.one_of(st.integers(0, 1 << 40), st.integers(0, I64_MAX)))
    lo = now - I64_MAX
    start = st.one_of(
        st.builds(
            lambda i, d: now - (1 << i) + d,
            st.integers(0, N_BUCKETS - 2),
            st.integers(-1, 1),
        ),
        st.integers(-1000, 1).map(lambda lat: now - lat),
        st.integers(TOP + 1, I64_MAX).map(lambda lat: now - lat),
        st.integers(lo, I64_MAX),
    ).filter(lambda a: lo <= a <= I64_MAX)
    pool = draw(st.lists(start, min_size=1, max_size=8))
    return now, sorted(draw(st.lists(st.sampled_from(pool), max_size=60)))


_EDGE_NOW = (1 << 62) + 12_345


@given(_elapsed_case())
@example((5, []))
@example((100, [3]))
@example((0, [0, 1, 1, 7]))  # latencies 0, -1, -1, -7
@example(
    (
        _EDGE_NOW,
        sorted(
            _EDGE_NOW - (1 << i) + d
            for i in range(N_BUCKETS - 1)
            for d in (-1, 0, 1)
        ),
    )
)
@example((I64_MAX, [0, 0, 5, 1 << 62]))  # latencies above 2^62
@example((I64_MAX, [I64_MAX - 3] * 3 + [I64_MAX] * 2))  # sum wraps int64
def test_observe_elapsed_matches_observe_many(case):
    now, starts = case
    arr = np.asarray(starts, dtype=np.int64)
    elapsed = Histogram()
    elapsed.observe_elapsed(now, arr)
    many = Histogram()
    many.observe_many(now - arr)
    assert elapsed.buckets == many.buckets
    assert elapsed.count == many.count == len(starts)
    assert elapsed.sum == many.sum == sum(now - a for a in starts)
    assert isinstance(elapsed.sum, int)


def test_observe_many_empty_is_noop():
    h = Histogram()
    h.observe_many(np.empty(0, dtype=np.int64))
    assert h.count == 0


# ----------------------------------------------------------------------
# Merge semantics
# ----------------------------------------------------------------------


def _filled_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    reg = MetricsRegistry()
    c = reg.counter("repro_widgets_total", help="widgets")
    c.inc(rng.randrange(1, 100))
    g = reg.gauge("repro_depth", help="depth")
    g.set(rng.randrange(1, 100))
    h = reg.histogram("repro_latency_ns", help="lat", unit="nanoseconds")
    for _ in range(rng.randrange(10, 50)):
        h.observe(rng.randrange(1, 1 << 40))
    return reg


def _snapshot(reg: MetricsRegistry):
    return reg.to_dict()


def test_merge_associativity():
    a, b, c = (_filled_registry(s) for s in (1, 2, 3))
    # (a + b) + c
    left = MetricsRegistry.from_dict(_snapshot(a))
    left.merge(MetricsRegistry.from_dict(_snapshot(b)))
    left.merge(MetricsRegistry.from_dict(_snapshot(c)))
    # a + (b + c)
    bc = MetricsRegistry.from_dict(_snapshot(b))
    bc.merge(MetricsRegistry.from_dict(_snapshot(c)))
    right = MetricsRegistry.from_dict(_snapshot(a))
    right.merge(bc)
    assert left.to_dict()["metrics"] == right.to_dict()["metrics"]


def test_merge_sums_counters_and_buckets():
    a, b = _filled_registry(4), _filled_registry(5)
    ca = a.get("repro_widgets_total").aggregate().value
    cb = b.get("repro_widgets_total").aggregate().value
    ha = a.get("repro_latency_ns").aggregate().bucket_array()
    hb = b.get("repro_latency_ns").aggregate().bucket_array()
    a.merge(b)
    assert a.get("repro_widgets_total").aggregate().value == ca + cb
    assert (
        a.get("repro_latency_ns").aggregate().bucket_array() == ha + hb
    ).all()


def test_merge_gauge_keeps_max():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("repro_peak").set(7)
    b.gauge("repro_peak").set(11)
    a.merge(b)
    assert a.get("repro_peak").aggregate().value == 11


def test_merge_rejects_kind_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("repro_x_total")
    b.gauge("repro_x_total")
    with pytest.raises(ConfigError):
        a.merge(b)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_empty_and_bounds():
    h = Histogram()
    assert h.percentile(50) == 0.0
    with pytest.raises(ConfigError):
        h.percentile(-1)
    with pytest.raises(ConfigError):
        h.percentile(101)


def test_percentile_monotone():
    h = Histogram()
    h.observe_many(np.asarray([10, 100, 1000, 10_000, 100_000]))
    ps = [h.percentile(p) for p in (0, 25, 50, 75, 100)]
    assert ps == sorted(ps)
    assert ps[-1] <= float(1 << 17)  # top observation's bucket bound


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------


def test_empty_registry_exposition_parses():
    reg = MetricsRegistry()
    text = reg.to_prom_text()
    assert parse_prom_text(text) == {}


def test_exposition_round_trip_values():
    reg = _filled_registry(6)
    samples = parse_prom_text(reg.to_prom_text())
    assert samples[("repro_widgets_total", ())] == float(
        reg.get("repro_widgets_total").aggregate().value
    )
    hist = reg.get("repro_latency_ns").aggregate()
    assert samples[("repro_latency_ns_count", ())] == float(hist.count)
    # +Inf cumulative bucket equals the total count.
    assert samples[("repro_latency_ns_bucket", (("le", "+Inf"),))] == float(
        hist.count
    )


def test_parse_prom_text_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_prom_text("this is not prometheus\n")
    with pytest.raises(ConfigError):
        parse_prom_text('repro_x{le="1" 3\n')


def test_serialization_round_trip_and_pickle():
    reg = _filled_registry(7)
    clone = MetricsRegistry.from_dict(reg.to_dict())
    assert clone.to_dict() == reg.to_dict()
    pickled = pickle.loads(pickle.dumps(reg))
    assert pickled.to_dict() == reg.to_dict()


def test_labelname_mismatch_raises():
    reg = MetricsRegistry()
    fam = reg.counter("repro_ops_total", labelnames=("op",))
    fam.labels(op="read").inc()
    with pytest.raises(ConfigError):
        fam.labels(device="ssd")
