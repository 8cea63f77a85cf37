"""The log2-bucketed histogram: exact integer buckets, fast observes.

64 buckets with upper bounds ``2^0, 2^1, ..., 2^62, +Inf`` cover twelve
decades of nanosecond latencies in 64 integers.  There are three
observe paths, and all bin identically:

- :meth:`Histogram.observe`, one value: a ``bit_length`` (no search);
- :meth:`Histogram.observe_many`, a numpy array of values: one
  ``searchsorted`` + ``bincount`` pass (rounding a non-integer up never
  crosses a power-of-two boundary, so it matches the scalar path);
- :meth:`Histogram.observe_elapsed`, the time elapsed since each of a
  sorted array of start instants: the 63 finite bucket edges are
  searched in the starts, so no per-element latency or bucket index is
  ever built.

Bucket counts are plain integers, so merging is exact and associative.

The metrics plane (:mod:`repro.metrics.registry`) builds its histogram
metrics from this class, and the fleet keeps its per-tenant fault and
request latency distributions in it, so result bookkeeping lives
outside the observability planes.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.errors import ConfigError

#: Number of histogram buckets (63 finite power-of-two bounds + +Inf).
N_BUCKETS = 64
#: Finite bucket upper bounds: ``2^0 .. 2^62``.  Bucket *i* covers
#: ``(2^(i-1), 2^i]`` (bucket 0: ``(-inf, 1]``); bucket 63 is overflow.
BUCKET_BOUNDS = tuple(1 << i for i in range(N_BUCKETS - 1))
# int64 so integer observations compare exactly: under float64 the
# values within rounding distance of 2^62 would collapse onto the top
# finite bound and bin one bucket low.
_BOUNDS_ARRAY = np.array(BUCKET_BOUNDS, dtype=np.int64)
_TOP = BUCKET_BOUNDS[-1]


class Histogram:
    """Log2-bucketed histogram with exact integer bucket counts.

    Buckets are a plain Python list (a scalar observe is two int adds
    and a ``bit_length``, ~4x faster than a numpy scatter for single
    values); the vectorized paths convert to numpy only at their
    boundaries.
    """

    __slots__ = ("buckets", "count", "sum")
    kind = "histogram"

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * N_BUCKETS
        self.count = 0
        self.sum = 0

    def observe(self, value: float) -> None:
        """Record one observation (hot path: integer nanoseconds)."""
        v = int(value)
        if v < value:
            # Non-integral: round up; a ceil never crosses a power-of-
            # two boundary, so binning matches ``observe_many``.
            v += 1
        if v <= 1:
            i = 0
        elif v > _TOP:
            i = N_BUCKETS - 1
        else:
            i = (v - 1).bit_length()
        self.buckets[i] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one vectorized pass.

        Bins identically to N scalar :meth:`observe` calls; the sum may
        differ in float rounding for float inputs (integer inputs — the
        only kind the simulator emits — are exact).
        """
        arr = np.asarray(values)
        n = int(arr.shape[0]) if arr.ndim else 1
        if n == 0:
            return
        idx = np.searchsorted(_BOUNDS_ARRAY, arr, side="left")
        counts = np.bincount(idx, minlength=N_BUCKETS)
        buckets = self.buckets
        for i in np.flatnonzero(counts):
            buckets[i] += int(counts[i])
        self.count += n
        if issubclass(arr.dtype.type, np.integer):
            # The int64 partial sums can wrap for astronomically large
            # values; fall back to exact Python ints when n * max could
            # leave the i64 range.
            hi = max(int(arr.max()), -int(arr.min()))
            if hi and n > (1 << 62) // hi:
                self.sum += sum(int(v) for v in arr)
            else:
                self.sum += int(arr.sum())
        else:
            self.sum += float(arr.sum())

    def observe_elapsed(self, now: int, starts: np.ndarray) -> None:
        """Record ``now - s`` for every *s* of a non-decreasing integer
        array: the same buckets, count and exact sum as
        ``observe_many(now - starts)``.

        ``now - s <= 2^i`` holds exactly when ``s >= now - 2^i``, so one
        ``searchsorted`` of the 63 finite edges in the sorted *starts*
        counts every bucket, and the only per-element work is the sum,
        ``n * now - sum(starts)``.  *now* is an integer clock of at
        least ``-2^62`` (so every edge fits in int64).
        """
        n = int(starts.shape[0])
        if n == 0:
            return
        now = int(now)
        # below[i]: starts before edge i, i.e. observations above 2^i.
        # The edges fall as i grows, so bucket i holds below[i - 1] -
        # below[i] (below[-1] = n), and the overflow bucket below[62].
        below = np.searchsorted(starts, now - _BOUNDS_ARRAY, side="left")
        buckets = self.buckets
        prev = n
        for i, b in enumerate(below.tolist()):
            if b != prev:
                buckets[i] += prev - b
                prev = b
        if prev:
            buckets[N_BUCKETS - 1] += prev
        self.count += n
        # The int64 sum can wrap, as in ``observe_many``; sorted starts
        # put their extremes at the ends, so the guard reads two values.
        hi = max(int(starts[-1]), -int(starts[0]))
        if hi and n > (1 << 62) // hi:
            total = sum(starts.tolist())
        else:
            total = int(starts.sum())
        self.sum += n * now - total

    def bucket_array(self) -> np.ndarray:
        """The per-bucket counts as an int64 array (a copy)."""
        return np.asarray(self.buckets, dtype=np.int64)

    def percentile(self, p: float) -> float:
        """Approximate percentile (0..100) by linear interpolation
        within the containing bucket.  Returns 0.0 on empty data."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile {p} outside [0, 100]")
        count = self.count
        if count == 0:
            return 0.0
        target = p / 100.0 * count
        cum = 0
        for i, c in enumerate(self.buckets):
            if c == 0:
                continue
            prev = cum
            cum += c
            if cum >= target:
                lo = 0.0 if i == 0 else float(BUCKET_BOUNDS[i - 1])
                hi = (
                    float(BUCKET_BOUNDS[i])
                    if i < N_BUCKETS - 1
                    else float(_TOP) * 2.0
                )
                frac = (target - prev) / c if c else 0.0
                return lo + (hi - lo) * frac
        return float(_TOP)  # pragma: no cover - cum >= target always hits

    def _merge(self, other: "Histogram") -> None:
        mine = self.buckets
        for i, c in enumerate(other.buckets):
            if c:
                mine[i] += c
        self.count += other.count
        self.sum += other.sum

    def _to_obj(self) -> Any:
        return {
            "buckets": [int(c) for c in self.buckets],
            "count": int(self.count),
            "sum": int(self.sum)
            if isinstance(self.sum, (int, np.integer))
            else float(self.sum),
        }

    def _from_obj(self, obj: Any) -> None:
        buckets = list(obj["buckets"])
        if len(buckets) != N_BUCKETS:
            raise ConfigError(
                f"histogram bucket count {len(buckets)} != {N_BUCKETS}"
            )
        self.buckets = [int(c) for c in buckets]
        self.count = int(obj["count"])
        self.sum = obj["sum"]
