"""Processor-sharing CPU contention model.

The paper's testbed is a 6-core / 12-thread Intel i7-8700 running 12
application threads plus the kernel's reclaim daemons.  Variance in the
paper is repeatedly attributed to CPU contention between application
threads and MG-LRU's aging/eviction walkers, so the simulator needs a
contention model that is work-conserving and sensitive to *when* the
walkers run.

We use egalitarian processor sharing: with ``n`` runnable compute jobs
on ``c`` logical CPUs, every job progresses at rate ``min(1, c / n)``.
This is the classic fluid approximation of a fair scheduler at small
time scales; it captures the dilation that matters here without
simulating time slices.

Implementation.  Every runnable job receives the *same* service rate,
so cumulative per-job service ``S(t) = ∫ rate dt`` is global: a job
submitted with ``w`` ns of work finishes when ``S`` reaches
``S(submit) + w``.  We keep ``S`` lazily updated, a min-heap of target
``S`` values, and one timer armed for the earliest target — O(log n)
per scheduling event and exact (no quantization).

The timer.  Nearly every submit and completion moves the earliest
target or the rate, so the timer is re-armed far more often than it
fires.  The first CPU built on a fast engine keeps it in the engine's
timer slot (:meth:`~repro.sim.engine.Engine._claim_slot`): an arm
writes the slot's ``(instant, seq)`` in place, so a re-arm leaves no
superseded timer behind, and the engine calls :meth:`CPU._complete`
when the slot comes first.  Every other CPU, and every CPU of the
heap-only engine, schedules its timer through ``schedule1`` and
:meth:`CPU._on_timer` ignores all but the latest.  Either way an arm
takes the next engine sequence number, and ``_armed_seq`` records it,
so both kinds fire in the same order at the same instants.

Run-ahead.  A job submitted to an idle CPU runs alone at rate 1, so its
timer delay is known at submit.  When nothing else is due before that
instant (no zero-delay event pending, the engine heap's head and the
timer slot strictly later, no thread of a same-instant completion
still waiting) and the run goes on until then (a foreground thread is
live, the instant is within ``Engine.run``'s bound), the timer would
be the very next event, and its round trip (CPU-heap push, timer arm,
timer fire, :meth:`CPU._complete`, CPU-heap pop, a fresh thread step)
changes nothing but the clock and this bookkeeping.
:meth:`CPU.run_ahead` replays that bookkeeping — service, busy time,
the armed fields, one CPU and one engine sequence number — and moves
the clock to the completion instant.  Observers see the same calls at
the same instants.  :meth:`CPU.submit` runs a job ahead through it and
returns ``True``, and the thread keeps running in the same step.

A thread whose next jobs are known and nothing but compute stands
between them (a YCSB request that hits both its pages) completes a
whole stretch in one :meth:`CPU.run_ahead` call: the CPU is idle again
after each replayed job and nothing else has run, so each job replays
exactly as its own submit would, with its own float service, ceiling
delay and observer instants.  :meth:`CPU.ahead_bound` tells the caller
how far a lone job could run ahead now.  Only the fast engine runs
ahead; ``Engine(fast=False)`` is the heap-only reference it is checked
against.
"""

from __future__ import annotations

import heapq
from math import ceil
from typing import List, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.trace import tracepoints as _tp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.engine import Engine
    from repro.sim.process import SimThread

#: Service slack (ns of work) treated as complete; absorbs float error.
_EPSILON = 1e-6


class CPU:
    """A pool of ``n_cpus`` logical CPUs shared by compute jobs."""

    def __init__(self, engine: "Engine", n_cpus: int, name: str = "cpu") -> None:
        if n_cpus < 1:
            raise SimulationError("CPU needs at least one logical CPU")
        self._engine = engine
        self.n_cpus = n_cpus
        self.name = name
        #: Min-heap of (target_S, seq, thread).
        self._heap: List[Tuple[float, int, "SimThread"]] = []
        self._n_jobs = 0
        self._seq = 0
        #: Cumulative per-job service delivered since time zero.
        self._service = 0.0
        self._rate = 1.0
        self._last_update = 0
        #: Engine sequence number of the latest arm: the live timer's
        #: identity, so a superseded heap timer knows to do nothing.
        self._armed_seq = 0
        #: Whether the completion timer lives in the engine's timer
        #: slot (the first CPU on a fast engine) rather than its heap.
        self._slotted = engine._claim_slot(self._complete)
        #: Head target / rate the live timer was armed for (target < 0
        #: means no live timer).  While the heap head and the rate are
        #: unchanged, the armed timer still fires at the exact
        #: completion instant (service accrues linearly), so
        #: submissions that do not change either can skip the re-arm
        #: entirely instead of superseding the timer with an identical
        #: one.  Two scalar fields beat a tuple in the submit path.
        self._armed_target = -1.0
        self._armed_rate = 0.0
        #: Integral of busy logical CPUs over time (ns·cpus).
        self.busy_cpu_ns = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_runnable(self) -> int:
        """Number of compute jobs currently sharing the CPUs."""
        return self._n_jobs

    @property
    def current_rate(self) -> float:
        """Service rate each job currently receives (0 < rate <= 1)."""
        return self._rate

    def utilization(self) -> float:
        """Mean fraction of logical CPUs busy since time zero."""
        now = self._engine.now
        if now == 0:
            return 0.0
        self._advance()
        return self.busy_cpu_ns / (now * self.n_cpus)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def submit(self, thread: "SimThread", work_ns: int) -> bool:
        """Begin ``work_ns`` of CPU service for *thread*.

        Returns ``True`` when the job ran ahead (see the module
        docstring): it is already complete, the clock stands at its
        completion instant, and the caller resumes the thread at once.
        Returns ``False`` when the completion timer will resume it.

        This is the single hottest callback in a trial (every Compute
        lands here), so :meth:`_advance`, :meth:`_set_rate` and
        :meth:`_arm_timer` are inlined.
        """
        engine = self._engine
        now = engine._now
        if not self._n_jobs:
            if self.run_ahead(thread, work_ns, 1):
                return True
            # _advance() on an idle CPU only moves the update mark.
            self._last_update = now
        else:
            # _advance()
            dt = now - self._last_update
            if dt > 0:
                n = self._n_jobs
                self._service += dt * self._rate
                self.busy_cpu_ns += dt * (n if n < self.n_cpus else self.n_cpus)
                self._last_update = now
        self._seq += 1
        heapq.heappush(self._heap, (self._service + work_ns, self._seq, thread))
        n = self._n_jobs = self._n_jobs + 1
        # _set_rate()
        rate = self._rate = 1.0 if n <= self.n_cpus else self.n_cpus / n
        # _arm_timer(), elided when the live timer is still exact: the
        # new job neither became the heap head nor changed the rate, so
        # the armed fire instant is unchanged.
        target = self._heap[0][0]
        if target != self._armed_target or rate != self._armed_rate:
            self._armed_target = target
            self._armed_rate = rate
            deficit = target - self._service
            if deficit > _EPSILON:
                exact = deficit / rate
                delay = int(exact)
                if delay < exact:
                    delay += 1  # ceiling without float drift on exact values
            else:
                delay = 0
            if self._slotted:
                # The seq schedule1 would take; the re-armed slot leaves
                # no superseded timer behind.
                seq = engine._seq = engine._seq + 1
                self._armed_seq = engine._slot_seq = seq
                engine._slot_when = now + delay
            else:
                seq = self._armed_seq = engine._seq + 1
                engine.schedule1(delay, self._on_timer, seq)
        if _tp.sched_runnable is not None:
            _tp.sched_runnable(n, thread, None)
        return False

    def ahead_bound(self) -> int:
        """Latest instant a lone job submitted now may complete inline,
        or -1 when none may (see the module docstring).

        A job runs ahead only on an idle CPU of a fast engine inside
        :meth:`~repro.sim.engine.Engine.run`, with no zero-delay event
        pending, no thread of a same-instant completion still waiting
        and a foreground thread live; it must end by ``run``'s bound
        and strictly before the engine heap's head and the timer slot
        (armed here only by another CPU: an idle owner's slot is
        disarmed).
        """
        engine = self._engine
        if (
            self._n_jobs
            or engine._imm
            or engine._held
            or not engine._n_live_foreground
        ):
            return -1
        bound = engine._ahead_until
        queue = engine._queue
        if queue and queue[0][0] <= bound:
            bound = queue[0][0] - 1
        if engine._slot_when <= bound:
            bound = engine._slot_when - 1
        return bound

    def run_ahead(
        self, thread: "SimThread", work_ns: int, n: int
    ) -> List[int]:
        """Complete up to *n* back-to-back lone jobs of *work_ns* inline.

        Each job replays its completion timer's round trip (see the
        module docstring): its own float service and ceiling delay, one
        CPU and one engine sequence number (the timer's, so the armed
        seq too), and the ``sched_runnable`` events at its own start
        and end instants.
        Returns the delays of the jobs completed, in order; the list
        stops short of *n* where the next job would end after
        :meth:`ahead_bound` or its timer would fire marginally early
        and re-arm, which only :meth:`submit`'s normal path does.  The
        clock stands at the last completion.  Unlike a Compute stepped
        by the thread, this adds nothing to the thread's
        ``compute_requested_ns``.
        """
        bound = self.ahead_bound()
        engine = self._engine
        now = engine._now
        delays: List[int] = []
        if bound <= now:
            return delays
        service = self._service
        sched = _tp.sched_runnable
        while n:
            n -= 1
            target = service + work_ns
            # The timer would be armed for the ceiling of deficit / rate
            # with rate 1.0, and x / 1.0 == x.
            deficit = target - service
            if deficit <= _EPSILON:
                break
            delay = ceil(deficit)
            when = now + delay
            # _on_timer's service after advancing by ``delay``.
            served = service + delay
            if when > bound or target > served + _EPSILON:
                break
            self._seq += 1
            engine._seq += 1
            engine._n_ahead += 1
            self._armed_seq = engine._seq
            # The consumed timer leaves the armed target at -1.
            self._armed_rate = 1.0
            if sched is not None:
                sched(1, thread, None)
            engine._now = now = when
            self._service = service = served
            self.busy_cpu_ns += delay
            self._last_update = when
            # The rate stays 1.0, as on every idle CPU.
            if sched is not None:
                sched(0, None, (thread,))
            delays.append(delay)
        return delays

    def _advance(self) -> None:
        """Accrue service up to the current instant."""
        now = self._engine.now
        dt = now - self._last_update
        if dt <= 0:
            return
        if self._n_jobs:
            self._service += dt * self._rate
            busy = self._n_jobs if self._n_jobs < self.n_cpus else self.n_cpus
            self.busy_cpu_ns += dt * busy
        self._last_update = now

    def _set_rate(self) -> None:
        n = self._n_jobs
        self._rate = 1.0 if n <= self.n_cpus else self.n_cpus / n

    def _arm_timer(self) -> None:
        """Re-arm the completion timer for the earliest target (a
        timer fired marginally early; the heap is not empty)."""
        target = self._heap[0][0]
        self._armed_target = target
        self._armed_rate = self._rate
        deficit = max(0.0, target - self._service)
        if deficit > _EPSILON:
            exact = deficit / self._rate
            delay = int(exact)
            if delay < exact:
                delay += 1  # ceiling without float drift on exact values
        else:
            delay = 0
        engine = self._engine
        if self._slotted:
            seq = engine._seq = engine._seq + 1
            self._armed_seq = engine._slot_seq = seq
            engine._slot_when = engine._now + delay
        else:
            seq = self._armed_seq = engine._seq + 1
            engine.schedule1(delay, self._on_timer, seq)

    def _on_timer(self, seq: int) -> None:
        """A heap timer fired; only the latest arm is live."""
        if seq == self._armed_seq:
            self._complete()

    def _complete(self) -> None:
        """The live completion timer fired: complete every job whose
        target the service has reached and re-arm for the next.  The
        engine calls this straight from the timer slot."""
        self._armed_target = -1.0  # this timer is consumed
        # _advance()
        now = self._engine._now
        dt = now - self._last_update
        if dt > 0:
            n = self._n_jobs
            if n:
                self._service += dt * self._rate
                self.busy_cpu_ns += dt * (n if n < self.n_cpus else self.n_cpus)
            self._last_update = now
        heap = self._heap
        limit = self._service + _EPSILON
        if heap[0][0] > limit:
            # Fired marginally early due to integer delay rounding.
            self._arm_timer()
            return
        heappop = heapq.heappop
        done: List["SimThread"] = [heappop(heap)[2]]
        while heap and heap[0][0] <= limit:
            done.append(heappop(heap)[2])
        n = self._n_jobs = self._n_jobs - len(done)
        # _set_rate()
        rate = self._rate = 1.0 if n <= self.n_cpus else self.n_cpus / n
        # _arm_timer()
        engine = self._engine
        if heap:
            target = heap[0][0]
            self._armed_target = target
            self._armed_rate = rate
            deficit = target - self._service
            if deficit > _EPSILON:
                exact = deficit / rate
                delay = int(exact)
                if delay < exact:
                    delay += 1
            else:
                delay = 0
            if self._slotted:
                seq = engine._seq = engine._seq + 1
                self._armed_seq = engine._slot_seq = seq
                engine._slot_when = now + delay
            else:
                seq = self._armed_seq = engine._seq + 1
                engine.schedule1(delay, self._on_timer, seq)
        if _tp.sched_runnable is not None:
            # Completions are observed before any thread resumes.
            _tp.sched_runnable(n, None, done)
        # Same-instant guard: while a completed thread still waits to
        # resume at this instant, none may run ahead of it.
        held = len(done)
        for thread in done:
            held -= 1
            engine._held = held
            thread._step(None)
