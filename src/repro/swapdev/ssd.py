"""SSD swap: slow, queued, off-CPU I/O.

The paper measures ~7.5 ms for 4 KiB reads and writes on its SSD (§IV).
We model the device as a FIFO resource with bounded concurrency
(``queue_depth``) and log-normal per-I/O jitter.  Threads *sleep* while
an I/O is in flight — SSD service consumes no CPU — which is the crucial
contrast with ZRAM: while an application thread waits 7.5 ms on the SSD,
the policy's scan threads get idle CPUs, so "scans progress further
before the application continues" (§VI-B).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heapreplace
from itertools import accumulate
from typing import Any, Iterator, Sequence

import numpy as np

from repro.mm.costs import SSDCosts
from repro.mm.page import Page
from repro.sim.engine import Engine
from repro.sim.events import Sleep
from repro.swapdev.base import SwapDevice
from repro.trace import tracepoints as _tp


class SSDSwapDevice(SwapDevice):
    """A swap-backing SSD with FIFO queueing and latency jitter.

    Queueing is modeled *analytically*: ``queue_depth`` slots each carry
    a busy-until time in a min-heap, and a FIFO submission begins
    service at ``max(now, earliest slot-free instant)``.  This yields
    the identical grant instants, completion times and jitter-draw order
    as an event-based FIFO resource (grants happen in arrival order
    either way), but each I/O costs exactly one ``Sleep`` event — no
    wait/grant round-trips through the queue even under saturation,
    which is the common state at 50% memory on SSD.
    """

    name = "ssd"

    #: Jitter factors drawn per bulk RNG call.  Every draw on this stream
    #: is lognormal(0, jitter_sigma) regardless of I/O direction, and
    #: numpy consumes the bit stream identically for batched and scalar
    #: draws, so pooling keeps per-seed latencies bit-identical.
    JITTER_POOL = 2048

    def __init__(
        self,
        engine: Engine,
        rng: np.random.Generator,
        costs: SSDCosts = SSDCosts(),
    ) -> None:
        super().__init__()
        self._engine = engine
        self._rng = rng
        self.costs = costs
        #: Busy-until instants of the in-flight slots (min-heap, at most
        #: ``queue_depth`` entries; fewer means a slot is idle).
        self._slot_busy: list[int] = []
        #: Service-begin instants of outstanding I/Os, non-decreasing
        #: (FIFO); pruned lazily by :attr:`queue_length`.
        self._begins: deque[int] = deque()
        self._jitter_pool = None
        self._jitter_pos = 0

    def _slot_begin(self, now: int) -> int:
        """Instant the next FIFO submission begins service."""
        slots = self._slot_busy
        if len(slots) < self.costs.queue_depth:
            return now
        head = slots[0]
        return head if head > now else now

    def _slot_take(self, done: int) -> None:
        """Occupy the earliest-free slot until *done*."""
        slots = self._slot_busy
        if len(slots) < self.costs.queue_depth:
            heappush(slots, done)
        else:
            heapreplace(slots, done)

    def _latency_ns(self, base_ns: int) -> int:
        pos = self._jitter_pos
        pool = self._jitter_pool
        if pool is None or pos >= pool.shape[0]:
            pool = self._jitter_pool = self._rng.lognormal(
                mean=0.0, sigma=self.costs.jitter_sigma, size=self.JITTER_POOL
            )
            pos = 0
        self._jitter_pos = pos + 1
        return max(1, int(base_ns * pool[pos]))

    def read(self, page: Page) -> Iterator[Any]:
        """Swap-in: one queued 4 KiB read, one ``Sleep`` event."""
        now = self._engine._now
        begin = self._slot_begin(now)
        done = begin + self._latency_ns(self.costs.read_ns)
        if _tp.swap_io_submit is not None:
            # Analytically exact split: queue = wait for a device slot,
            # service = the transfer itself (sums to the full Sleep).
            _tp.swap_io_submit(begin - now, done - begin)
        self._slot_take(done)
        self._begins.append(begin)
        yield Sleep(done - now)
        waited = done - now
        self.stats.reads += 1
        self.stats.read_wait_ns += waited
        if _tp.swap_io_done is not None:
            _tp.swap_io_done(page.vpn, waited, 0)

    def write(self, page: Page) -> Iterator[Any]:
        """Swap-out: one queued 4 KiB write, one ``Sleep`` event."""
        now = self._engine._now
        begin = self._slot_begin(now)
        done = begin + self._latency_ns(self.costs.write_ns)
        if _tp.swap_io_submit is not None:
            _tp.swap_io_submit(begin - now, done - begin)
        self._slot_take(done)
        self._begins.append(begin)
        yield Sleep(done - now)
        waited = done - now
        self.stats.writes += 1
        self.stats.write_wait_ns += waited
        if _tp.swap_io_done is not None:
            _tp.swap_io_done(page.vpn, waited, 1)

    def write_batch(self, pages: Sequence[Page]) -> Iterator[Any]:
        """Swap-out a whole eviction block in one queued submission.

        The batch acquires one device slot, services its pages back to
        back, and completes in a single event.  Per-page service
        latencies are drawn from the same jitter pool in the same order
        as N serial writes; each page's reported wait is the shared
        queueing delay plus its completion offset within the batch —
        i.e. exactly when it would finish if submitted serially into an
        otherwise idle slot.
        """
        n = len(pages)
        if n == 1:
            # Single page: the scalar path is both faster and obviously
            # identical.
            yield from self.write(pages[0])
            return
        now = self._engine._now
        begin = self._slot_begin(now)
        base = self.costs.write_ns
        latency = self._latency_ns
        ends = list(accumulate([latency(base) for _ in pages]))
        total = ends[-1]
        queue_wait = begin - now
        if _tp.swap_io_submit is not None:
            # The caller waits queue_wait + total: one slot services
            # the block's pages back to back.
            _tp.swap_io_submit(queue_wait, total)
        self._slot_take(begin + total)
        self._begins.append(begin)
        yield Sleep(begin + total - now)
        waits = [queue_wait + end for end in ends]
        self.stats.writes += n
        self.stats.write_wait_ns += sum(waits)
        if _tp.swap_io_batch is not None:
            _tp.swap_io_batch(pages, waits, 1)

    @property
    def queue_length(self) -> int:
        """I/Os currently waiting for a device slot."""
        begins = self._begins
        now = self._engine._now
        while begins and begins[0] <= now:
            begins.popleft()
        return len(begins)

    def describe(self) -> str:
        return (
            f"ssd(read={self.costs.read_ns / 1e6:.1f}ms, "
            f"write={self.costs.write_ns / 1e6:.1f}ms, "
            f"qd={self.costs.queue_depth})"
        )
