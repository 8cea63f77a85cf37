"""The swap-device interface.

A device exposes ``read(page)`` and ``write(page)`` as generators the
fault/reclaim paths ``yield from``; latency and queueing are entirely the
device's concern.  ``discard(page)`` releases any stored copy when the
system drops a stale swap slot (a page was re-dirtied while resident).

``write_batch(pages)`` is the reclaim fast lane's batched submission:
one generator drives the swap-out of a whole eviction triage block.
Devices that understand batching (SSD, ZRAM) override it with a
single-completion-event implementation whose per-page service latencies
are identical to N serial submissions; the default here falls back to
serial writes so third-party devices keep working unchanged.

Devices emit ``swap_io_submit`` with their exact (queue, service) time
split *before* sleeping, so span decompositions stay nanosecond-exact,
and ``swap_io_done`` (``swap_io_batch`` for a batch) at completion; see
:mod:`repro.trace.tracepoints`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.mm.page import Page


@dataclass
class SwapDeviceStats:
    """I/O counters common to all devices."""

    reads: int = 0
    writes: int = 0
    #: Total simulated ns spent servicing reads (includes queueing).
    read_wait_ns: int = 0
    #: Total simulated ns spent servicing writes (includes queueing).
    write_wait_ns: int = 0

    @property
    def total_ios(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes


class SwapDevice(abc.ABC):
    """Abstract swap medium."""

    name: str = "swap"

    def __init__(self) -> None:
        self.stats = SwapDeviceStats()

    @abc.abstractmethod
    def read(self, page: Page) -> Iterator[Any]:
        """Generator: fetch *page*'s 4 KiB from the medium (swap-in)."""

    @abc.abstractmethod
    def write(self, page: Page) -> Iterator[Any]:
        """Generator: store *page*'s 4 KiB to the medium (swap-out)."""

    def write_batch(self, pages: Sequence[Page]) -> Iterator[Any]:
        """Generator: store a block of pages (swap-out batch).

        The base implementation is a serial fallback.
        """
        for page in pages:
            yield from self.write(page)

    def discard(self, page: Page) -> None:
        """Drop any stored copy of *page* (slot freed without a read)."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name
