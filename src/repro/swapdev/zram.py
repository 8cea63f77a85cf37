"""ZRAM swap: compressed in-memory block device.

The paper configures ZRAM with LZO-RLE and measures 20 µs reads and
35 µs writes (§IV).  Two properties matter for the characterization:

1. The (de)compression work runs *on the faulting CPU*, so ZRAM I/O is
   modeled as ``Compute`` — it dilates under CPU contention and competes
   with the policy's scan threads.  This is the coupling behind the
   paper's §V-D observation that page-table scans "do not progress
   quickly enough" when swapping is cheap.
2. Stored pages occupy a compressed memory pool.  We account stored
   bytes per page (entropy-driven LZO-RLE size model) against a pool
   limit; the paper provisions the pool separately from the capacity
   limit imposed on the workload, and we default to the same.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence

import numpy as np

from repro._units import PAGE_SIZE
from repro.errors import SwapFullError
from repro.mm.costs import ZRAMCosts
from repro.mm.page import Page
from repro.sim.events import Compute
from repro.swapdev.base import SwapDevice
from repro.swapdev.compression import lzo_rle_compressed_size
from repro.trace import tracepoints as _tp


class ZRAMSwapDevice(SwapDevice):
    """Compressed RAM swap with CPU-bound service."""

    name = "zram"

    def __init__(
        self,
        rng: np.random.Generator,
        costs: ZRAMCosts = ZRAMCosts(),
        pool_limit_bytes: Optional[int] = None,
    ) -> None:
        """``pool_limit_bytes=None`` means an unbounded pool (the paper
        sizes the pool so it never fills; we default to the same but
        keep the limit for the ablation benchmarks)."""
        super().__init__()
        self._rng = rng
        self.costs = costs
        self.pool_limit_bytes = pool_limit_bytes
        self._stored: Dict[int, int] = {}
        #: Current compressed pool occupancy in bytes.
        self.pool_bytes = 0
        #: High-water mark of pool occupancy.
        self.pool_peak_bytes = 0

    def _latency_ns(self, base_ns: int) -> int:
        jitter = self._rng.lognormal(mean=0.0, sigma=self.costs.jitter_sigma)
        return max(1, int(base_ns * jitter))

    def read(self, page: Page) -> Iterator[Any]:
        """Swap-in: decompress on the faulting CPU.

        The stored copy stays in the pool until the slot is dropped
        (swap-cache semantics), matching how the memory system reuses
        clean swap copies.
        """
        lat = self._latency_ns(self.costs.read_ns)
        if _tp.swap_io_submit is not None:
            # ZRAM never queues (it runs on the faulting CPU): service
            # is the nominal decompress cost; any excess wall time the
            # enclosing frame sees is CPU-contention dilation.
            _tp.swap_io_submit(0, lat)
        yield Compute(lat)
        self.stats.reads += 1
        if _tp.swap_io_done is not None:
            # ZRAM service is CPU work: the observed latency is the
            # nominal (undilated) compute cost, not wall time under
            # contention.
            _tp.swap_io_done(page.vpn, lat, 0)

    def write(self, page: Page) -> Iterator[Any]:
        """Swap-out: compress on the reclaiming CPU and store."""
        size = lzo_rle_compressed_size(page.entropy, self._rng)
        if (
            self.pool_limit_bytes is not None
            and self.pool_bytes + size > self.pool_limit_bytes
        ):
            raise SwapFullError(
                f"zram pool full ({self.pool_bytes}B + {size}B "
                f"> {self.pool_limit_bytes}B)"
            )
        lat = self._latency_ns(self.costs.write_ns)
        if _tp.swap_io_submit is not None:
            _tp.swap_io_submit(0, lat)
        yield Compute(lat)
        old = self._stored.pop(page.vpn, 0)
        self.pool_bytes += size - old
        self._stored[page.vpn] = size
        self.pool_peak_bytes = max(self.pool_peak_bytes, self.pool_bytes)
        self.stats.writes += 1
        if _tp.swap_io_done is not None:
            _tp.swap_io_done(page.vpn, lat, 1)

    def write_batch(self, pages: Sequence[Page]) -> Iterator[Any]:
        """Swap-out a whole eviction block in one CPU burst.

        Compression work for the block runs back to back on the
        reclaiming CPU: per-page sizes and latencies are drawn in the
        exact (size, latency) interleave of N serial writes (the two
        draws share one RNG stream).  One ``Compute(sum)`` replaces N
        events; the pool-limit check runs per page against the bytes the
        batch has already admitted, matching serial admission order.
        """
        sizes = []
        lats = []
        pending = 0
        for page in pages:
            size = lzo_rle_compressed_size(page.entropy, self._rng)
            old = self._stored.get(page.vpn, 0)
            if (
                self.pool_limit_bytes is not None
                and self.pool_bytes + pending + size - old
                > self.pool_limit_bytes
            ):
                raise SwapFullError(
                    f"zram pool full ({self.pool_bytes + pending}B + "
                    f"{size}B > {self.pool_limit_bytes}B)"
                )
            pending += size - old
            sizes.append(size)
            lats.append(self._latency_ns(self.costs.write_ns))
        total = sum(lats)
        if _tp.swap_io_submit is not None:
            _tp.swap_io_submit(0, total)
        yield Compute(total)
        for page, size in zip(pages, sizes):
            old = self._stored.pop(page.vpn, 0)
            self.pool_bytes += size - old
            self._stored[page.vpn] = size
            self.pool_peak_bytes = max(self.pool_peak_bytes, self.pool_bytes)
        self.stats.writes += len(pages)
        if _tp.swap_io_batch is not None:
            _tp.swap_io_batch(pages, lats, 1)

    def discard(self, page: Page) -> None:
        """Free the stored copy when the system drops a stale slot."""
        size = self._stored.pop(page.vpn, 0)
        self.pool_bytes -= size

    @property
    def stored_pages(self) -> int:
        """Pages currently held in the compressed pool."""
        return len(self._stored)

    def mean_compression_ratio(self) -> float:
        """Observed original/stored ratio across the current pool."""
        if not self._stored:
            return 0.0
        return (len(self._stored) * PAGE_SIZE) / max(1, self.pool_bytes)

    def describe(self) -> str:
        return (
            f"zram(read={self.costs.read_ns / 1e3:.0f}us, "
            f"write={self.costs.write_ns / 1e3:.0f}us, lzo-rle)"
        )
