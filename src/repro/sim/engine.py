"""The discrete-event engine: an event queue and a simulated clock.

The engine is deliberately small.  It understands callbacks scheduled at
future instants and generator-based threads (:class:`~repro.sim.process.
SimThread`); everything else — CPU contention, device queues, memory
management — is built on top of those two primitives.

Simulated time is integer nanoseconds, starting at zero.  Events scheduled
for the same instant fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterator, Optional

from repro._env import env_flag
from repro.errors import DeadlockError, SimulationError
from repro.sim.process import SimThread
from repro.trace import tracepoints as _tp


#: Timer-slot instant meaning "disarmed": later than any ``run`` bound.
_NEVER = 1 << 63


def _call0(fn: Callable[[], None]) -> None:
    """Adapter: run a no-argument callback through the 1-arg queue slot."""
    fn()


class Engine:
    """Event loop with a simulated nanosecond clock.

    Typical use::

        engine = Engine()
        thread = engine.spawn(my_generator(), name="worker")
        engine.run()
        assert thread.finished

    Queue entries are ``(when, seq, fn, arg)`` and fire as ``fn(arg)``:
    carrying the argument in the tuple lets the hot paths (thread steps,
    CPU timers) schedule bound methods directly instead of building a
    closure per event.

    Zero-delay fast path: an event scheduled with ``delay_ns == 0``
    belongs to the current instant, so it skips the heap and lands in
    the ``_imm`` deque, tagged with the same monotone sequence number a
    heap push would have received.  The deque is FIFO — already seq
    order — and the run loop compares its head's seq against any heap
    entry for the *same* instant, so execution order is provably
    identical to the heap-only path while fault completions, resource
    grants, waker kicks and thread spawns skip a heappush+heappop
    round-trip.

    Timer slot: one re-armable timer, ``(_slot_when, _slot_seq)``,
    held outside the heap.  The first CPU built on a fast engine owns
    it (:meth:`_claim_slot`) and arms, re-arms and consumes its
    completion timer there (see :mod:`repro.sim.cpu`): a re-arm
    overwrites the slot, where a heap timer would leave its superseded
    entry to be popped and ignored.  Each arm takes the sequence
    number ``schedule1`` would have given it, and the run loop fires
    whichever of the deque head, the heap head and the slot comes
    first by ``(instant, seq)``, so the order is the heap-only one.

    CPU run-ahead: a thread that submits a Compute to an idle CPU while
    nothing else is due before the job would end completes it inline
    (see :meth:`repro.sim.cpu.CPU.run_ahead`): the clock jumps to the
    completion instant and the thread keeps running in the same step,
    with the sequence numbers, CPU state and observer calls the timer
    round-trip would have produced.  A thread may complete a stretch
    of such jobs in one call (YCSB requests that hit both their pages
    do); each job replays as its own submit would.  The engine bounds
    this through ``_ahead_until`` (``run``'s ``until_ns``, or -1 when
    run-ahead is off) and ``_held`` (threads a CPU timer completed at
    this instant that have not resumed yet).

    ``REPRO_FAST_ENGINE=0`` (or ``fast=False``) forces the heap-only
    reference behaviour for A/B verification: no deque, no timer slot,
    no run-ahead.
    """

    def __init__(self, fast: Optional[bool] = None) -> None:
        self._queue: list[tuple[int, int, Callable[[Any], None], Any]] = []
        #: Zero-delay events for the current instant, in schedule order:
        #: ``(seq, fn, arg)``, seq shared with the heap's numbering.
        self._imm: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._now = 0
        self._seq = 0
        self._threads: list[SimThread] = []
        #: The thread whose generator is currently executing (set at the
        #: top of :meth:`SimThread._step`).  Observability-only — event
        #: consumers (PSI, spans) read it to attribute waits and faults
        #: to the calling thread; nothing in the simulation proper
        #: depends on it.
        self.current_thread: Optional[SimThread] = None
        self._running = False
        #: Live non-daemon threads (kept incrementally; checked per event).
        self._n_live_foreground = 0
        if fast is None:
            fast = env_flag("REPRO_FAST_ENGINE", True)
        self._fast = bool(fast)
        #: Latest instant a CPU job may run ahead to: the bound of the
        #: running :meth:`run` on the fast engine, else -1 (never).
        self._ahead_until = -1
        #: Threads a CPU timer completed at the current instant that
        #: have not resumed yet; no job may run ahead while any wait.
        self._held = 0
        #: Run-ahead completions so far, each standing in for the heap
        #: dispatch of one CPU timer.
        self._n_ahead = 0
        #: The timer slot: one re-armable timer, ``(_slot_when,
        #: _slot_seq)``, owned by the first CPU built on a fast engine
        #: (see :meth:`_claim_slot`); ``_slot_when`` is ``_NEVER`` while
        #: disarmed.  Firing disarms it and calls ``_slot_fn()``.
        self._slot_when = _NEVER
        self._slot_seq = 0
        self._slot_fn: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def schedule(self, delay_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay_ns`` nanoseconds of simulated time."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        self._seq += 1
        if delay_ns == 0 and self._fast:
            self._imm.append((self._seq, _call0, fn))
            return
        heapq.heappush(self._queue, (self._now + delay_ns, self._seq, _call0, fn))

    def schedule1(
        self, delay_ns: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Run ``fn(arg)`` after ``delay_ns`` ns (closure-free hot path)."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        self._seq += 1
        if delay_ns == 0 and self._fast:
            # Always deque-eligible: the entry carries the seq a heap
            # push would have used, and the run loop arbitrates against
            # same-instant heap entries by that seq.
            self._imm.append((self._seq, fn, arg))
            return
        heapq.heappush(self._queue, (self._now + delay_ns, self._seq, fn, arg))

    def _claim_slot(self, fn: Callable[[], None]) -> bool:
        """Give the timer slot to the caller, whose timer fires as
        ``fn()``; ``False`` when the engine is heap-only or the slot
        already has an owner (that caller keeps heap timers)."""
        if not self._fast or self._slot_fn is not None:
            return False
        self._slot_fn = fn
        return True

    def _inline_ok(self) -> bool:
        """True when a zero-delay continuation may run *immediately*
        (inside the current event) instead of via the queue: nothing else
        is pending at this instant, so no event could be reordered.  A
        thread a CPU timer completed at this instant and has not resumed
        yet counts as pending: the queued step would run after it; so
        does a slot timer due at this instant."""
        return (
            self._fast
            and not self._imm
            and not self._held
            and self._slot_when != self._now
            and (not self._queue or self._queue[0][0] > self._now)
        )

    def schedule_at(self, when_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when_ns``."""
        self.schedule(when_ns - self._now, fn)

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def spawn(
        self,
        generator: Iterator[Any],
        name: str = "thread",
        daemon: bool = False,
    ) -> SimThread:
        """Create a :class:`SimThread` from *generator* and start it now.

        ``daemon`` threads do not keep :meth:`run` alive: the run ends when
        every non-daemon thread has finished even if daemons are blocked
        (mirroring kernel worker threads that never exit).
        """
        thread = SimThread(self, generator, name=name, daemon=daemon)
        self._threads.append(thread)
        if not daemon:
            self._n_live_foreground += 1
        # Start on the next event-loop turn so spawn order == start order.
        self.schedule1(0, thread._step, None)
        return thread

    def _thread_finished(self, thread: SimThread) -> None:
        """Called by SimThread when its generator returns."""
        if not thread.daemon:
            self._n_live_foreground -= 1

    @property
    def threads(self) -> tuple[SimThread, ...]:
        """All threads ever spawned on this engine."""
        return tuple(self._threads)

    def _live_foreground_threads(self) -> list[SimThread]:
        return [t for t in self._threads if not t.daemon and not t.finished]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until_ns: Optional[int] = None) -> int:
        """Process events until all foreground threads finish.

        Stops early at ``until_ns`` if given.  Returns the simulated time
        at which the run stopped.  Raises :class:`DeadlockError` if the
        queue drains while a foreground thread is still blocked.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heappop = heapq.heappop
        queue = self._queue
        imm = self._imm
        imm_popleft = imm.popleft
        # Sentinel keeps the per-event bound test a plain int compare.
        until = (1 << 62) if until_ns is None else until_ns
        if self._fast:
            self._ahead_until = until
        try:
            if _tp.engine_events is not None:
                # Metered twin of the loop below; the unmetered loop
                # stays untouched so metrics-off pays nothing here.
                return self._run_metered(until)
            while True:
                # Zero-delay events belong to the current instant; the
                # heap and the timer slot may also hold entries for this
                # instant, so the shared seq numbering decides which
                # fires first.
                if imm:
                    if self._slot_when == self._now and self._slot_seq < imm[0][0]:
                        if queue and queue[0][0] == self._now and queue[0][1] < self._slot_seq:
                            _when, _seq, fn, arg = heappop(queue)
                            fn(arg)
                        else:
                            self._slot_when = _NEVER
                            self._slot_fn()
                    elif queue and queue[0][0] == self._now and queue[0][1] < imm[0][0]:
                        _when, _seq, fn, arg = heappop(queue)
                        fn(arg)
                    else:
                        _seq, fn, arg = imm_popleft()
                        fn(arg)
                else:
                    when = self._slot_when
                    if queue and (
                        queue[0][0] < when
                        or (queue[0][0] == when and queue[0][1] < self._slot_seq)
                    ):
                        if queue[0][0] > until:
                            self._now = until
                            return self._now
                        when, _seq, fn, arg = heappop(queue)
                        if when < self._now:
                            raise SimulationError(
                                "event queue went backwards in time"
                            )
                        self._now = when
                        fn(arg)
                    elif when != _NEVER:
                        if when > until:
                            self._now = until
                            return self._now
                        self._now = when
                        self._slot_when = _NEVER
                        self._slot_fn()
                    else:
                        break
                if self._n_live_foreground == 0:
                    return self._now
            blocked = self._live_foreground_threads()
            if blocked:
                names = ", ".join(t.name for t in blocked)
                raise DeadlockError(
                    f"event queue drained with blocked threads: {names}"
                )
            return self._now
        finally:
            self._ahead_until = -1
            self._running = False

    def _run_metered(self, until: int) -> int:
        """Line-for-line copy of the :meth:`run` loop that counts event
        dispatches by queue (imm deque vs time-ordered heap; a slot
        timer counts as a heap dispatch).

        Counting into local ints and flushing once (in ``finally``, so
        partial counts survive exceptions) keeps the per-event overhead
        to one integer increment; the dispatch order is identical to
        the unmetered loop, so metered trials stay bit-identical.  A
        CPU run-ahead counts as the heap dispatch of the timer it
        replaces.
        """
        heappop = heapq.heappop
        queue = self._queue
        imm = self._imm
        imm_popleft = imm.popleft
        n_imm = 0
        n_heap = 0
        n_ahead = self._n_ahead
        try:
            while True:
                if imm:
                    if self._slot_when == self._now and self._slot_seq < imm[0][0]:
                        if queue and queue[0][0] == self._now and queue[0][1] < self._slot_seq:
                            _when, _seq, fn, arg = heappop(queue)
                            n_heap += 1
                            fn(arg)
                        else:
                            self._slot_when = _NEVER
                            n_heap += 1
                            self._slot_fn()
                    elif queue and queue[0][0] == self._now and queue[0][1] < imm[0][0]:
                        _when, _seq, fn, arg = heappop(queue)
                        n_heap += 1
                        fn(arg)
                    else:
                        _seq, fn, arg = imm_popleft()
                        n_imm += 1
                        fn(arg)
                else:
                    when = self._slot_when
                    if queue and (
                        queue[0][0] < when
                        or (queue[0][0] == when and queue[0][1] < self._slot_seq)
                    ):
                        if queue[0][0] > until:
                            self._now = until
                            return self._now
                        when, _seq, fn, arg = heappop(queue)
                        if when < self._now:
                            raise SimulationError(
                                "event queue went backwards in time"
                            )
                        self._now = when
                        n_heap += 1
                        fn(arg)
                    elif when != _NEVER:
                        if when > until:
                            self._now = until
                            return self._now
                        self._now = when
                        self._slot_when = _NEVER
                        n_heap += 1
                        self._slot_fn()
                    else:
                        break
                if self._n_live_foreground == 0:
                    return self._now
            blocked = self._live_foreground_threads()
            if blocked:
                names = ", ".join(t.name for t in blocked)
                raise DeadlockError(
                    f"event queue drained with blocked threads: {names}"
                )
            return self._now
        finally:
            n_heap += self._n_ahead - n_ahead
            hook = _tp.engine_events
            if hook is not None and (n_imm or n_heap):
                hook(n_imm, n_heap)

    def run_for(self, duration_ns: int) -> int:
        """Run for at most ``duration_ns`` more simulated nanoseconds."""
        return self.run(until_ns=self._now + duration_ns)
