"""Engine: scheduling order, clock semantics, thread lifecycle."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import OneShotEvent, Sleep, WaitEvent


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0

    def test_schedule_runs_at_correct_time(self):
        engine = Engine()
        seen = []
        engine.schedule(100, lambda: seen.append(engine.now))
        engine.spawn(self._sleeper(200), name="keepalive")
        engine.run()
        assert seen == [100]

    def test_same_time_events_fire_in_schedule_order(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(50, lambda i=i: seen.append(i))
        engine.spawn(self._sleeper(100), name="s")
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    @staticmethod
    def _sleeper(ns):
        yield Sleep(ns)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(250, lambda: seen.append(engine.now))
        engine.spawn(self._sleeper(300), name="s")
        engine.run()
        assert seen == [250]

    def test_run_until_stops_early(self):
        engine = Engine()
        engine.spawn(self._sleeper(1000), name="s")
        end = engine.run(until_ns=300)
        assert end == 300
        assert engine.now == 300

    def test_run_for_relative_duration(self):
        engine = Engine()
        engine.spawn(self._sleeper(10_000), name="s")
        engine.run_for(100)
        engine.run_for(100)
        assert engine.now == 200


class TestImmediateFastPath:
    """The zero-delay deque must be execution-order-identical to the
    heap-only reference — runs toggle only which queue carries events."""

    def test_zero_delay_lands_in_deque_only_when_fast(self):
        fast = Engine(fast=True)
        fast.schedule(0, lambda: None)
        assert len(fast._imm) == 1 and not fast._queue
        slow = Engine(fast=False)
        slow.schedule(0, lambda: None)
        assert not slow._imm and len(slow._queue) == 1

    @staticmethod
    def _run_order(fast: bool) -> list:
        """Interleave zero-delay events with same-instant heap entries.

        At t=5 the earlier-scheduled callback A fires first and enqueues
        a zero-delay C; the heap still holds B for t=5 with a *smaller*
        sequence number, so B must run before C in both modes."""
        engine = Engine(fast=fast)
        order = []
        engine.schedule(
            5,
            lambda: (
                order.append("A"),
                engine.schedule(0, lambda: order.append("C")),
                engine.schedule(0, lambda: order.append("D")),
            ),
        )
        engine.schedule(5, lambda: order.append("B"))
        engine.spawn(TestScheduling._sleeper(10), name="keepalive")
        engine.run()
        return order

    def test_same_instant_heap_entry_beats_younger_imm_entry(self):
        assert self._run_order(fast=True) == ["A", "B", "C", "D"]

    def test_fast_order_matches_heap_reference(self):
        assert self._run_order(fast=True) == self._run_order(fast=False)

    @staticmethod
    def _chain_order(fast: bool) -> list:
        engine = Engine(fast=fast)
        order = []

        def first():
            order.append("a")
            engine.schedule(0, lambda: order.append("c"))

        engine.schedule(0, first)
        engine.schedule(0, lambda: order.append("b"))
        engine.spawn(TestScheduling._sleeper(10), name="keepalive")
        engine.run()
        return order

    def test_zero_delay_chain_is_fifo(self):
        assert self._chain_order(fast=True) == ["a", "b", "c"]
        assert self._chain_order(fast=True) == self._chain_order(fast=False)

    def test_inline_ok_only_when_nothing_else_pending(self):
        engine = Engine(fast=True)
        assert engine._inline_ok()
        engine.schedule(0, lambda: None)
        assert not engine._inline_ok()  # a deque entry could reorder
        engine._imm.clear()
        engine.schedule(3, lambda: None)
        assert engine._inline_ok()  # future heap entry: no conflict
        engine._now = 3
        assert not engine._inline_ok()  # same-instant heap entry
        engine._queue.clear()
        engine._slot_when = 4
        assert engine._inline_ok()  # future slot timer: no conflict
        engine._now = 4
        assert not engine._inline_ok()  # due slot timer
        assert not Engine(fast=False)._inline_ok()

    def test_zero_delay_spawn_keeps_spawn_order(self):
        for fast in (True, False):
            engine = Engine(fast=fast)
            order = []

            def body(tag):
                order.append(tag)
                yield Sleep(1)

            for tag in ("x", "y", "z"):
                engine.spawn(body(tag), name=tag)
            engine.run()
            assert order == ["x", "y", "z"], f"fast={fast}"


class TestThreads:
    def test_thread_result_captured(self):
        engine = Engine()

        def body():
            yield Sleep(10)
            return 42

        thread = engine.spawn(body(), name="w")
        engine.run()
        assert thread.finished
        assert thread.result == 42
        assert thread.finish_time_ns == 10

    def test_run_ends_when_foreground_done_despite_daemon(self):
        engine = Engine()

        def daemon():
            while True:
                yield Sleep(50)

        def fg():
            yield Sleep(120)

        engine.spawn(daemon(), name="d", daemon=True)
        engine.spawn(fg(), name="f")
        end = engine.run()
        assert end == 120

    def test_deadlock_detected(self):
        engine = Engine()
        event = OneShotEvent("never")

        def blocked():
            yield WaitEvent(event)

        engine.spawn(blocked(), name="b")
        with pytest.raises(DeadlockError, match="b"):
            engine.run()

    def test_spawn_order_is_start_order(self):
        engine = Engine()
        order = []

        def body(i):
            order.append(i)
            yield Sleep(1)

        for i in range(4):
            engine.spawn(body(i), name=f"t{i}")
        engine.run()
        assert order == [0, 1, 2, 3]

    def test_threads_property_lists_all(self):
        engine = Engine()
        engine.spawn(iter([]), name="a")
        engine.spawn(iter([]), name="b", daemon=True)
        assert [t.name for t in engine.threads] == ["a", "b"]

    def test_unknown_command_raises(self):
        engine = Engine()

        def body():
            yield "bogus"

        engine.spawn(body(), name="bad")
        with pytest.raises(SimulationError, match="unknown command"):
            engine.run()

    def test_exception_in_thread_propagates(self):
        engine = Engine()

        def body():
            yield Sleep(5)
            raise ValueError("boom")

        engine.spawn(body(), name="x")
        with pytest.raises(ValueError, match="boom"):
            engine.run()

    def test_empty_generator_finishes_immediately(self):
        engine = Engine()
        thread = engine.spawn(iter([]), name="e")
        engine.run()
        assert thread.finished and thread.result is None

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def body():
            with pytest.raises(SimulationError):
                engine.run()
            yield Sleep(1)

        engine.spawn(body(), name="r")
        engine.run()
