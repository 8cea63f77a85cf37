"""Exact Zipfian sampling, as YCSB's request generator uses (§IV, [12]).

YCSB draws keys from a Zipfian distribution with the classic
``theta = 0.99`` skew: P(rank r) ∝ 1 / r^theta.  We sample *exactly*
(no Zipf approximation drift) by inverting the CDF: a uniform draw u
maps to the number of CDF values below it, the rank
``np.searchsorted(cdf, u, side="left")`` would return.

:class:`GuideTable` computes that count without a binary search, by
Chen and Asau's guide (index) table: a ``2^k``-entry array whose entry b
counts the CDF values below ``b / 2^k``.  A draw starts at entry
``floor(u * 2^k)`` and steps forward while ``cdf[r] < u``.  A draw steps
past CDF value i only when it lands above it in the same entry's span,
which happens with probability at most ``2^-k``; with at least four
entries per CDF value a draw takes a quarter step on average, so the
whole inversion is a handful of vectorized gathers.  The result is
exactly the binary search's, so swapping one for the other moves no
drawn value.

YCSB additionally *scatters* the popularity ranks across the key space
(popular keys are not adjacent); :class:`ZipfSampler` takes an optional
permutation for that, and exposes the ranks and the rank -> item map
so callers can compose their own lookup tables with it once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError


class GuideTable:
    """Exact inversion of one sorted CDF by a guide table.

    :meth:`invert` equals ``np.searchsorted(cdf, u, side="left")`` for
    every non-negative u, including u at or beyond ``cdf[-1]``.
    """

    __slots__ = ("_size", "_guide", "_cdf")

    def __init__(self, cdf: np.ndarray) -> None:
        """``cdf`` must be sorted (non-decreasing) and non-empty."""
        n = int(cdf.shape[0])
        self._size = 1 << (max(0, n - 1).bit_length() + 2)
        # Exact bucket bounds: ``b / 2^k`` is representable for every b.
        bounds = np.arange(self._size + 1) / self._size
        self._guide = np.searchsorted(cdf, bounds, side="left")
        # The +inf sentinel stops every walk by index n, the count a
        # draw above the last CDF value gets.
        self._cdf = np.append(cdf, np.inf)

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The count of CDF values below each draw in *u*."""
        cdf = self._cdf
        # u * 2^k is exact, so the start bucket never overshoots u;
        # draws of 1.0 and above share the last entry.
        start = (u * self._size).astype(np.intp)
        np.minimum(start, self._size, out=start)
        ranks = self._guide[start]
        walking = np.flatnonzero(cdf[ranks] < u)
        while walking.size:
            ranks[walking] += 1
            walking = walking[cdf[ranks[walking]] < u[walking]]
        return ranks


class ZipfSampler:
    """Draw item indices 0..n-1 with Zipfian popularity.

    :meth:`sample` is :meth:`sample_ranks` mapped through
    :attr:`item_of_rank`, so for any item-indexed ``table`` and two
    generators in the same state, ``table[sampler.sample(rng, n)]``
    equals ``table[sampler.item_of_rank][sampler.sample_ranks(rng, n)]``:
    a rank-indexed table composed once serves every later draw with one
    gather.
    """

    def __init__(
        self,
        n: int,
        theta: float = 0.99,
        permutation: Optional[np.ndarray] = None,
        cdf: Optional[np.ndarray] = None,
    ) -> None:
        """``permutation[r]`` maps popularity rank *r* to an item index;
        identity when omitted.  ``cdf`` injects a precomputed CDF array
        (shape ``(n,)``, as :attr:`cdf` exposes) so dataset-cached
        samplers skip the O(n) harmonic-sum rebuild."""
        if n < 1:
            raise ConfigError("zipf needs at least one item")
        if theta < 0:
            raise ConfigError("zipf exponent must be >= 0")
        self.n = n
        self.theta = theta
        if cdf is not None:
            cdf = np.asarray(cdf, dtype=np.float64)
            if cdf.shape != (n,):
                raise ConfigError("cdf must have shape (n,)")
            self._cdf = cdf
        else:
            weights = 1.0 / np.power(
                np.arange(1, n + 1, dtype=np.float64), theta
            )
            self._cdf = np.cumsum(weights)
            self._cdf /= self._cdf[-1]
        self._guide = GuideTable(self._cdf)
        if permutation is not None:
            permutation = np.asarray(permutation)
            if permutation.shape != (n,):
                raise ConfigError("permutation must have shape (n,)")
            self._perm = permutation
        else:
            self._perm = None

    @property
    def cdf(self) -> np.ndarray:
        """The normalized CDF array (suitable for the ``cdf=`` kwarg)."""
        return self._cdf

    @property
    def item_of_rank(self) -> np.ndarray:
        """The item index of each popularity rank (the permutation, or
        the identity when none was given)."""
        if self._perm is not None:
            return self._perm
        return np.arange(self.n)

    def sample_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` popularity ranks, 0 the most popular (vectorized
        exact inversion of one ``rng.random(size)`` draw)."""
        return self._guide.invert(rng.random(size))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` item indices."""
        ranks = self.sample_ranks(rng, size)
        if self._perm is not None:
            return self._perm[ranks]
        return ranks

    def pmf(self, rank: int) -> float:
        """Probability of popularity rank *rank* (0-based)."""
        if not 0 <= rank < self.n:
            raise ConfigError(f"rank {rank} out of range")
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)

    def hottest_fraction(self, top_k: int) -> float:
        """Probability mass of the *top_k* most popular ranks."""
        top_k = min(top_k, self.n)
        return float(self._cdf[top_k - 1])
