"""Swap devices: latency magnitudes, queueing, pool accounting."""

from itertools import accumulate

import numpy as np
import pytest

from repro._units import MS, US
from repro.errors import SwapFullError
from repro.mm.costs import SSDCosts, ZRAMCosts
from repro.mm.page import Page
from repro.sim.cpu import CPU
from repro.sim.engine import Engine
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice


def drive(engine, device, ops, cpu=None):
    """Run read/write ops on one thread; return elapsed ns."""

    def body():
        for op, page in ops:
            if op == "r":
                yield from device.read(page)
            else:
                yield from device.write(page)

    thread = engine.spawn(body(), name="io")
    if cpu is not None:
        thread.cpu = cpu
    return engine.run()


class TestSSD:
    def test_read_latency_magnitude(self):
        engine = Engine()
        device = SSDSwapDevice(engine, np.random.default_rng(0))
        elapsed = drive(engine, device, [("r", Page(0))])
        assert 4 * MS < elapsed < 15 * MS  # ~7.5ms with jitter

    def test_stats_counted(self):
        engine = Engine()
        device = SSDSwapDevice(engine, np.random.default_rng(0))
        drive(engine, device, [("r", Page(0)), ("w", Page(1)), ("w", Page(2))])
        assert device.stats.reads == 1
        assert device.stats.writes == 2
        assert device.stats.read_wait_ns > 0

    def test_queue_depth_limits_concurrency(self):
        engine = Engine()
        costs = SSDCosts(jitter_sigma=0.0, queue_depth=2)
        device = SSDSwapDevice(engine, np.random.default_rng(0), costs)

        def body(i):
            yield from device.read(Page(i))

        for i in range(6):
            engine.spawn(body(i), name=f"io{i}")
        elapsed = engine.run()
        # 6 reads, 2 at a time, 7.5ms each -> 3 waves.
        assert elapsed == pytest.approx(3 * costs.read_ns, rel=0.01)

    def test_no_jitter_is_exact(self):
        engine = Engine()
        costs = SSDCosts(jitter_sigma=0.0)
        device = SSDSwapDevice(engine, np.random.default_rng(0), costs)
        elapsed = drive(engine, device, [("r", Page(0))])
        assert elapsed == costs.read_ns

    def test_describe(self):
        device = SSDSwapDevice(Engine(), np.random.default_rng(0))
        assert "ssd" in device.describe()

    def test_queue_length_counts_waiting_ios(self):
        engine = Engine()
        costs = SSDCosts(jitter_sigma=0.0, queue_depth=1)
        device = SSDSwapDevice(engine, np.random.default_rng(0), costs)

        def body(i):
            yield from device.read(Page(i))

        for i in range(3):
            engine.spawn(body(i), name=f"io{i}")
        engine.run(until_ns=costs.read_ns // 2)
        # One I/O in service, two queued behind the single slot.
        assert device.queue_length == 2
        engine.run()
        assert device.queue_length == 0


class TestSSDWriteBatch:
    def _device(self, engine, seed=0, **costs):
        return SSDSwapDevice(
            engine, np.random.default_rng(seed), SSDCosts(**costs)
        )

    @staticmethod
    def _run_batch(engine, device, pages):
        def body():
            yield from device.write_batch(pages)

        engine.spawn(body(), name="batch")
        return engine.run()

    def _check_batch_against_serial(self, skip):
        """Batch and serial writes of five pages after *skip* draws: the
        batch ends at the serial wall time, and each page waits its
        completion offset within the batch."""
        pages = [Page(v) for v in range(5)]
        engine_a, engine_b = Engine(), Engine()
        dev_a = self._device(engine_a, seed=11)
        dev_b = self._device(engine_b, seed=11)
        for dev in (dev_a, dev_b):
            for _ in range(skip):
                dev._latency_ns(1)
        # Reference: one lognormal draw per write, truncated by int().
        rng = np.random.default_rng(11)
        sigma, write_ns = dev_a.costs.jitter_sigma, dev_a.costs.write_ns
        rng.lognormal(0.0, sigma, size=skip)
        lats = [max(1, int(write_ns * rng.lognormal(0.0, sigma))) for _ in pages]
        end_batch = self._run_batch(engine_a, dev_a, pages)
        end_serial = drive(engine_b, dev_b, [("w", p) for p in pages])
        assert end_batch == end_serial == sum(lats)
        assert dev_a.stats.writes == len(pages)
        assert dev_a.stats.write_wait_ns == sum(accumulate(lats))

    def test_batch_draws_jitter_like_serial_writes(self):
        """A batch consumes the jitter stream exactly like N serial
        writes."""
        self._check_batch_against_serial(skip=0)

    def test_batch_draws_jitter_across_pool_refill(self):
        """A batch whose draws straddle a jitter-pool refill takes the
        same latencies as serial writes would."""
        self._check_batch_against_serial(skip=SSDSwapDevice.JITTER_POOL - 2)

    def test_batch_waits_are_cumulative(self):
        """Per-page waits report each page's completion offset within
        the batch, as if submitted serially into an idle slot."""
        engine = Engine()
        device = self._device(engine, jitter_sigma=0.0)
        pages = [Page(v) for v in range(4)]
        self._run_batch(engine, device, pages)
        write_ns = device.costs.write_ns
        assert device.stats.write_wait_ns == write_ns * (1 + 2 + 3 + 4)

    def test_batch_occupies_one_device_slot(self):
        """A 3-page batch on a qd=2 device leaves a slot free: a read
        submitted alongside starts immediately."""
        engine = Engine()
        device = self._device(engine, jitter_sigma=0.0, queue_depth=2)
        pages = [Page(v) for v in range(3)]

        def batch():
            yield from device.write_batch(pages)

        def reader():
            yield from device.read(Page(99))

        engine.spawn(batch(), name="batch")
        engine.spawn(reader(), name="read")
        end = engine.run()
        assert end == 3 * device.costs.write_ns
        assert device.stats.read_wait_ns == device.costs.read_ns

    def test_single_page_batch_equals_plain_write(self):
        engine_a = Engine()
        dev_a = self._device(engine_a, seed=5)
        end_a = self._run_batch(engine_a, dev_a, [Page(0)])
        engine_b = Engine()
        dev_b = self._device(engine_b, seed=5)
        end_b = drive(engine_b, dev_b, [("w", Page(0))])
        assert end_a == end_b
        assert dev_a.stats.write_wait_ns == dev_b.stats.write_wait_ns


class TestZRAM:
    def _device(self, **kwargs):
        return ZRAMSwapDevice(np.random.default_rng(0), **kwargs)

    def test_latencies_are_cpu_work(self):
        """ZRAM I/O is Compute: it needs a CPU and dilates under load."""
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device(costs=ZRAMCosts(jitter_sigma=0.0))
        elapsed = drive(
            engine, device, [("w", Page(0)), ("r", Page(0))], cpu=cpu
        )
        assert elapsed == pytest.approx(20 * US + 35 * US, rel=0.01)

    def test_pool_accounting(self):
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device()
        pages = [Page(v, entropy=0.4) for v in range(10)]
        drive(engine, device, [("w", p) for p in pages], cpu=cpu)
        assert device.stored_pages == 10
        assert device.pool_bytes > 0
        assert device.mean_compression_ratio() > 1.5

    def test_discard_releases_bytes(self):
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device()
        page = Page(0, entropy=0.4)
        drive(engine, device, [("w", page)], cpu=cpu)
        stored = device.pool_bytes
        device.discard(page)
        assert device.pool_bytes == 0
        assert stored > 0

    def test_rewrite_replaces_not_accumulates(self):
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device()
        page = Page(0, entropy=0.4)
        drive(engine, device, [("w", page), ("w", page)], cpu=cpu)
        assert device.stored_pages == 1

    def test_pool_limit_enforced(self):
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device(pool_limit_bytes=1500)
        page_a = Page(0, entropy=0.5)
        page_b = Page(1, entropy=0.5)
        drive(engine, device, [("w", page_a)], cpu=cpu)
        with pytest.raises(SwapFullError):
            drive(Engine(), device, [("w", page_b)])

    def test_read_keeps_pool_copy(self):
        """Swap-cache semantics: a read leaves the compressed copy."""
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device()
        page = Page(0, entropy=0.4)
        drive(engine, device, [("w", page), ("r", page)], cpu=cpu)
        assert device.stored_pages == 1

    def test_peak_tracking(self):
        engine = Engine()
        cpu = CPU(engine, 1)
        device = self._device()
        pages = [Page(v, entropy=0.5) for v in range(5)]
        drive(engine, device, [("w", p) for p in pages], cpu=cpu)
        for p in pages:
            device.discard(p)
        assert device.pool_bytes == 0
        assert device.pool_peak_bytes > 0
