"""The reverse map: physical frame → mapping page, with its cost model.

Clock-LRU pays a reverse-map walk for *every* page whose accessed bit it
inspects, because it iterates physical frames and must find the PTE that
maps each one.  The kernel's rmap is a pointer-chased tree (anon_vma /
address_space interval trees), which is why MG-LRU's linear page-table
scans are so much cheaper per PTE (§III-B).

The functional part of this class is a dict; the *cost model* is the
point: each walk costs a base latency plus exponential jitter (chain
length and cache misses vary), sampled from a dedicated RNG stream so
trials are reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.mm.page import Page


class ReverseMap:
    """frame number → :class:`Page`, plus walk-cost sampling."""

    #: Jitter samples drawn per bulk RNG call.  numpy's ``exponential``
    #: consumes the bit stream identically whether drawn one at a time or
    #: in a batch, so pooling preserves per-seed reproducibility exactly.
    JITTER_POOL = 4096

    def __init__(
        self,
        rng: np.random.Generator,
        walk_base_ns: int,
        walk_jitter_ns: int,
    ) -> None:
        self._map: Dict[int, Page] = {}
        self._rng = rng
        self.walk_base_ns = walk_base_ns
        self.walk_jitter_ns = walk_jitter_ns
        #: Total rmap walks performed (each is one accessed-bit check).
        self.walk_count = 0
        #: Walk costs of the current pool, as Python ints.
        self._cost_pool: List[int] = []
        self._cost_pos = 0

    # ------------------------------------------------------------------
    # Mapping maintenance (fault / reclaim paths)
    # ------------------------------------------------------------------

    def insert(self, frame: int, page: Page) -> None:
        """Record that *frame* now backs *page*."""
        if frame in self._map:
            raise SimulationError(f"frame {frame} already rmapped")
        self._map[frame] = page

    def remove(self, frame: int) -> Page:
        """Remove and return the page backed by *frame*."""
        try:
            return self._map.pop(frame)
        except KeyError:
            raise SimulationError(f"frame {frame} not rmapped") from None

    def lookup(self, frame: int) -> Optional[Page]:
        """The page backed by *frame*, or ``None``."""
        return self._map.get(frame)

    def __len__(self) -> int:
        return len(self._map)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def walk_cost_ns(self) -> int:
        """Sample the cost of one reverse-map walk.

        Base cost plus exponentially distributed jitter: rmap chains have
        geometric length and each link is a dependent cache miss.
        """
        return self.walk_costs_ns(1)[0]

    def walk_costs_ns(self, n: int) -> List[int]:
        """Costs of the next *n* reverse-map walks.

        Costs come from a pre-drawn pool (one bulk ``exponential`` call
        instead of N scalar draws), converted to ints once per refill;
        the stream order is unchanged, so ``walk_costs_ns(n)`` equals
        *n* calls of :meth:`walk_cost_ns` element for element.
        """
        self.walk_count += n
        pos = self._cost_pos
        out = self._cost_pool[pos : pos + n]
        pos += len(out)
        while len(out) < n:
            # ``astype`` truncates toward zero exactly like ``int()``
            # (all values are positive).
            jitter = self._rng.exponential(self.walk_jitter_ns, self.JITTER_POOL)
            pool = (self.walk_base_ns + jitter).astype(np.int64).tolist()
            self._cost_pool = pool
            chunk = pool[: n - len(out)]
            out += chunk
            pos = len(chunk)
        self._cost_pos = pos
        return out
