"""CPU processor-sharing: work conservation, dilation, fairness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.cpu import CPU
from repro.sim.engine import _NEVER, Engine
from repro.sim.events import Compute, OneShotEvent, Sleep, WaitEvent
from repro.trace import tracepoints as _tp


def run_computes(n_cpus, works):
    """Spawn one thread per work amount; return (engine, finish times)."""
    engine = Engine()
    cpu = CPU(engine, n_cpus)
    threads = []

    def body(ns):
        yield Compute(ns)

    for i, w in enumerate(works):
        t = engine.spawn(body(w), name=f"t{i}")
        t.cpu = cpu
        threads.append(t)
    engine.run()
    return engine, [t.finish_time_ns for t in threads]


class TestBasics:
    def test_single_job_exact_duration(self):
        _, finishes = run_computes(1, [1000])
        assert finishes == [1000]

    def test_undersubscribed_jobs_run_at_full_rate(self):
        _, finishes = run_computes(4, [500, 700, 900])
        assert finishes == [500, 700, 900]

    def test_two_jobs_one_cpu_share_equally(self):
        # Both need 1000ns of service at rate 1/2 -> both end at 2000.
        _, finishes = run_computes(1, [1000, 1000])
        assert finishes == [2000, 2000]

    def test_work_conservation_oversubscribed(self):
        # Total work 3000ns on 1 CPU: last completion at 3000.
        _, finishes = run_computes(1, [500, 1000, 1500])
        assert max(finishes) == pytest.approx(3000, abs=5)

    def test_short_job_leaves_then_rate_recovers(self):
        # 1 CPU: jobs 100 and 1000. Shared until the short one got 100
        # served (wall 200), then the long one runs alone.
        _, finishes = run_computes(1, [100, 1000])
        assert finishes[0] == pytest.approx(200, abs=5)
        assert finishes[1] == pytest.approx(1100, abs=5)

    def test_zero_cpus_rejected(self):
        with pytest.raises(SimulationError):
            CPU(Engine(), 0)

    def test_compute_zero_is_noop(self):
        engine = Engine()
        cpu = CPU(engine, 1)

        def body():
            yield Compute(0)
            return "done"

        t = engine.spawn(body(), name="z")
        t.cpu = cpu
        engine.run()
        assert t.result == "done"
        assert t.finish_time_ns == 0

    def test_compute_without_cpu_raises(self):
        engine = Engine()

        def body():
            yield Compute(10)

        engine.spawn(body(), name="nocpu")
        with pytest.raises(SimulationError, match="no CPU"):
            engine.run()


class TestAccounting:
    def test_utilization_single_busy_cpu(self):
        engine = Engine()
        cpu = CPU(engine, 2)

        def body():
            yield Compute(1000)

        t = engine.spawn(body(), name="u")
        t.cpu = cpu
        engine.run()
        # 1 of 2 CPUs busy the whole time.
        assert cpu.utilization() == pytest.approx(0.5, rel=0.01)

    def test_n_runnable_tracks_jobs(self):
        engine = Engine()
        cpu = CPU(engine, 2)
        observed = []

        def body():
            yield Compute(100)
            observed.append(cpu.n_runnable)

        for i in range(3):
            t = engine.spawn(body(), name=f"t{i}")
            t.cpu = cpu
        engine.run()
        assert cpu.n_runnable == 0
        assert all(0 <= n <= 3 for n in observed)

    def test_rate_reflects_oversubscription(self):
        engine = Engine()
        cpu = CPU(engine, 2)

        def body():
            yield Compute(10_000)

        for i in range(4):
            t = engine.spawn(body(), name=f"t{i}")
            t.cpu = cpu
        engine.run_for(100)
        assert cpu.current_rate == pytest.approx(0.5)

    def test_interleaved_compute_and_sleep(self):
        engine = Engine()
        cpu = CPU(engine, 1)

        def body():
            yield Compute(100)
            yield Sleep(1000)
            yield Compute(100)
            return engine.now

        t = engine.spawn(body(), name="i")
        t.cpu = cpu
        engine.run()
        assert t.result == pytest.approx(1200, abs=5)


class TestWorkConservationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n_cpus=st.integers(1, 8),
        works=st.lists(st.integers(1, 50_000), min_size=1, max_size=10),
    )
    def test_makespan_bounds(self, n_cpus, works):
        """Processor sharing is work-conserving: the makespan is at
        least max(total/c, longest job) and at most total work."""
        _, finishes = run_computes(n_cpus, works)
        makespan = max(finishes)
        lower = max(sum(works) / n_cpus, max(works))
        assert makespan >= lower - 5
        assert makespan <= sum(works) + len(works) * 5

    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(st.integers(100, 10_000), min_size=2, max_size=6),
    )
    def test_equal_work_finishes_together(self, works):
        """Jobs submitted together with equal work end simultaneously."""
        w = works[0]
        _, finishes = run_computes(1, [w] * len(works))
        assert max(finishes) - min(finishes) <= len(works) * 2


class TestRunAhead:
    """A Compute alone on an idle CPU completes inside the submitting
    thread's step when nothing else is due first; every observable
    stays as the heap-only engine has it."""

    def test_lone_compute_runs_ahead(self):
        engine = Engine()
        cpu = CPU(engine, 1)

        def body():
            yield Compute(10)
            yield Compute(5)
            return engine.now

        t = engine.spawn(body(), name="lone")
        t.cpu = cpu
        engine.run()
        assert t.result == 15
        # Nothing else is ever pending, so both jobs complete inline.
        assert engine._n_ahead == 2
        assert cpu.busy_cpu_ns == 15
        assert cpu.utilization() == 1.0

    def test_same_instant_completions_resume_before_any_run_ahead(self):
        # Both jobs end at 10 in one timer.  The first thread then
        # computes alone, but the second has not resumed yet: it must
        # still see the instant both jobs ended.
        engine = Engine()
        cpu = CPU(engine, 2)
        seen = []

        def first():
            yield Compute(10)
            yield Compute(10)

        def second():
            yield Compute(10)
            seen.append(engine.now)

        for i, body in enumerate((first, second)):
            t = engine.spawn(body(), name=f"t{i}")
            t.cpu = cpu
        assert engine.run() == 20
        assert seen == [10]

    @pytest.mark.parametrize("command", [Compute, Sleep])
    def test_zero_cost_command_waits_for_same_instant_completions(
        self, command
    ):
        # Both jobs end at 10 in one timer.  The first thread's next
        # command costs nothing, but its step must still queue behind
        # the second thread's resumption, as on the heap-only engine.
        orders = []
        for fast in (True, False):
            engine = Engine(fast=fast)
            cpu = CPU(engine, 2)
            order = []

            def first():
                yield Compute(10)
                yield command(0)
                order.append("first")

            def second():
                yield Compute(10)
                order.append("second")

            for i, body in enumerate((first, second)):
                t = engine.spawn(body(), name=f"t{i}")
                t.cpu = cpu
            engine.run()
            orders.append(order)
        assert orders == [["second", "first"]] * 2

    def test_run_until_stops_before_the_completion(self):
        engine = Engine()
        cpu = CPU(engine, 1)

        def body():
            yield Compute(10)

        t = engine.spawn(body(), name="u")
        t.cpu = cpu
        assert engine.run(until_ns=5) == 5
        assert cpu.n_runnable == 1
        assert not t.finished
        assert engine.run() == 10
        assert t.finish_time_ns == 10

    def test_daemon_does_not_run_past_the_last_foreground_thread(self):
        # The foreground thread's job and the daemon's end together; the
        # run ends there, so the daemon's next job must not complete.
        engine = Engine()
        cpu = CPU(engine, 2)
        done = []

        def fg():
            yield Compute(10)

        def daemon():
            for _ in range(3):
                yield Compute(10)
                done.append(engine.now)

        for name, body, is_daemon in (("fg", fg, False), ("d", daemon, True)):
            t = engine.spawn(body(), name=name, daemon=is_daemon)
            t.cpu = cpu
        assert engine.run() == 10
        assert done == [10]
        assert cpu.n_runnable == 1


#: One foreground op: ("compute", ns), ("sleep", ns), ("stretch",
#: (ns, n)) — n back-to-back Computes of ns each, issued as a YCSB
#: thread issues requests that hit both their pages — or ("wait", k) —
#: wait for the (k mod i)-th earlier thread to finish (a no-op for the
#: first thread, so the waits never form a cycle).  Durations start at
#: 1 ns: the fast engine continues zero-cost commands inline without a
#: sequence number, so with them the final ``_seq`` would differ.
_OPS = st.one_of(
    st.tuples(st.just("compute"), st.integers(1, 30)),
    st.tuples(st.just("sleep"), st.integers(1, 30)),
    st.tuples(
        st.just("stretch"), st.tuples(st.integers(1, 30), st.integers(1, 6))
    ),
    st.tuples(st.just("wait"), st.integers(0, 7)),
)


@st.composite
def _mixes(draw):
    pools = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    pool = st.integers(0, len(pools) - 1)
    threads = draw(
        st.lists(
            st.tuples(pool, st.lists(_OPS, max_size=8)),
            min_size=1,
            max_size=6,
        )
    )
    # An optional daemon: a few compute/sleep rounds, then it blocks
    # for good, as kernel daemons do once their work runs out.
    daemon = draw(
        st.none()
        | st.tuples(
            pool,
            st.lists(
                st.tuples(st.integers(1, 30), st.integers(1, 30)),
                min_size=1,
                max_size=4,
            ),
        )
    )
    return pools, threads, daemon


def _run_mix(fast, pools, threads, daemon):
    """Run one mix; return every observable the two engines must share."""
    engine = Engine(fast=fast)
    cpus = [CPU(engine, n) for n in pools]
    log = []
    spawned = []

    def worker(i, script):
        for k, (op, arg) in enumerate(script):
            if op == "compute":
                yield Compute(arg)
            elif op == "sleep":
                yield Sleep(arg)
            elif op == "stretch":
                # Where jobs may run ahead, one CPU call completes as
                # many as it can; the rest go through Compute.
                ns, count = arg
                me = engine.current_thread
                while count:
                    delays = me.cpu.run_ahead(me, ns, count)
                    if delays:
                        done = engine.now - sum(delays)
                        for delay in delays:
                            done += delay
                            log.append((i, k, "job", done))
                        count -= len(delays)
                    else:
                        yield Compute(ns)
                        log.append((i, k, "job", engine.now))
                        count -= 1
            elif i:
                yield WaitEvent(spawned[arg % i].done_event)
            log.append((i, k, engine.now))

    def closer():
        # Waits for everyone, then computes alone on an idle engine:
        # one run-ahead every mix is sure to take.
        for t in list(spawned):
            yield WaitEvent(t.done_event)
        yield Sleep(1_000_000)
        yield Compute(7)
        log.append(("closer", engine.now))

    def background(rounds):
        for work, nap in rounds:
            yield Compute(work)
            yield Sleep(nap)
            log.append(("daemon", engine.now))
        yield WaitEvent(OneShotEvent("never"))

    for i, (pool, script) in enumerate(threads):
        t = engine.spawn(worker(i, script), name=f"t{i}")
        t.cpu = cpus[pool]
        spawned.append(t)
    if daemon is not None:
        pool, rounds = daemon
        d = engine.spawn(background(rounds), name="daemon", daemon=True)
        d.cpu = cpus[pool]
    last = engine.spawn(closer(), name="closer")
    last.cpu = cpus[0]
    # Every CPU event, with its instant and the threads it names.  A
    # stretch logs its jobs after the CPU call that replays them, so
    # these go apart.
    calls = []

    def probe(n_runnable, started, finished):
        calls.append((
            engine.now,
            n_runnable,
            None if started is None else started.name,
            None if finished is None else [t.name for t in finished],
        ))

    _tp.attach("sched_runnable", probe)
    try:
        end = engine.run()
    finally:
        _tp.detach("sched_runnable", probe)
    state = [
        (
            cpu.busy_cpu_ns,
            cpu.utilization(),
            cpu._seq,
            cpu._armed_seq,
            cpu._service,
            cpu._last_update,
            cpu._armed_target,
            cpu._armed_rate,
            cpu.n_runnable,
        )
        for cpu in cpus
    ]
    finishes = [t.finish_time_ns for t in spawned + [last]]
    return (end, engine._seq, finishes, log, calls, state), engine._n_ahead


class TestRunAheadEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(mix=_mixes())
    def test_fast_engine_matches_heap_only_engine(self, mix):
        fast, n_ahead = _run_mix(True, *mix)
        slow, slow_ahead = _run_mix(False, *mix)
        assert fast == slow
        assert n_ahead >= 1
        assert slow_ahead == 0


def _scripted(fast, pools, scripts):
    """Run *scripts*, ``(pool, [(op, ns), ...])`` per thread in spawn
    order with op ``"compute"`` or ``"sleep"``, on CPUs of the *pools*
    sizes.

    Returns the observables both engines must share (the run's end, the
    step log, every CPU's clock and timer fields), the final engine
    ``_seq``, and ``(now, slot instant, CPU timers in the heap)`` at
    each CPU event, for the slot's own checks.
    """
    engine = Engine(fast=fast)
    cpus = [CPU(engine, n) for n in pools]
    log = []
    events = []

    def body(i, ops):
        for k, (op, ns) in enumerate(ops):
            yield (Compute if op == "compute" else Sleep)(ns)
            log.append((i, k, engine.now))

    for i, (pool, ops) in enumerate(scripts):
        t = engine.spawn(body(i, ops), name=f"t{i}")
        t.cpu = cpus[pool]

    def probe(n_runnable, started, finished):
        timers = sum(1 for e in engine._queue if e[2].__name__ == "_on_timer")
        events.append((engine.now, engine._slot_when, timers))

    _tp.attach("sched_runnable", probe)
    try:
        end = engine.run()
    finally:
        _tp.detach("sched_runnable", probe)
    state = [
        (cpu._seq, cpu._armed_seq, cpu._service, cpu.busy_cpu_ns,
         cpu._armed_target, cpu.n_runnable)
        for cpu in cpus
    ]
    return (end, log, state), engine._seq, events


class TestTimerSlot:
    """The first CPU on a fast engine keeps its completion timer in the
    engine's slot; the heap-only engine, where every timer goes through
    the heap, is the reference for each corner of the slot."""

    def test_only_the_first_cpu_of_a_fast_engine_owns_the_slot(self):
        engine = Engine(fast=True)
        first, second = CPU(engine, 1), CPU(engine, 1)
        assert first._slotted and not second._slotted
        assert not CPU(Engine(fast=False), 1)._slotted

    def test_zero_delay_slot_timer_ties_with_deque_entries(self):
        # One CPU.  t0, t1 and t3 sleep to 10; t2's job ends at 10 too,
        # its timer armed between their wake-ups.  At 10, t0's zero-cost
        # sleep finds that timer due and queues behind it.  t1's job
        # then halves the rate with the head job exactly done: the
        # re-armed timer is due at once, and fires after t0's queued
        # step and t3's wake-up but before t3's zero-cost sleep.
        scripts = [
            (0, [("sleep", 10), ("sleep", 0), ("sleep", 3)]),
            (0, [("sleep", 10), ("compute", 5)]),
            (0, [("compute", 10), ("sleep", 0)]),
            (0, [("sleep", 10), ("sleep", 0), ("sleep", 0)]),
        ]
        fast, _, events = _scripted(True, [1], scripts)
        slow, _, _ = _scripted(False, [1], scripts)
        assert fast == slow
        # The zero-delay re-arm: a slot timer due at the instant it was
        # armed.  No CPU timer ever enters the heap.
        assert any(now == when == 10 for now, when, _ in events)
        assert not any(timers for _now, _when, timers in events)

    def test_slot_timer_ties_with_same_instant_heap_entries(self):
        # t0's wake-up at 10 is queued before t1's timer is armed for
        # 10, and t2's after it: the heap entry with the smaller seq
        # fires first on both sides of the slot.
        scripts = [
            (0, [("sleep", 10), ("compute", 1)]),
            (0, [("compute", 10), ("compute", 2)]),
            (0, [("sleep", 10), ("compute", 1)]),
        ]
        fast, fast_seq, events = _scripted(True, [1], scripts)
        slow, slow_seq, _ = _scripted(False, [1], scripts)
        assert fast == slow
        assert fast_seq == slow_seq
        assert any(when == 10 for _now, when, _ in events)
        assert not any(timers for _now, _when, timers in events)

    @pytest.mark.parametrize("command", [Compute, Sleep])
    def test_zero_cost_command_waits_for_a_due_slot_timer(self, command):
        # t0 wakes at 10 just before t1's slot timer for 10 fires; its
        # zero-cost command may not continue inline past that timer.
        orders = []
        for fast in (True, False):
            engine = Engine(fast=fast)
            cpu = CPU(engine, 1)
            order = []

            def sleeper():
                yield Sleep(10)
                yield command(0)
                order.append("sleeper")

            def worker():
                yield Compute(10)
                order.append("worker")

            for name, body in (("s", sleeper), ("w", worker)):
                t = engine.spawn(body(), name=name)
                t.cpu = cpu
            engine.run()
            orders.append(order)
        assert orders == [["worker", "sleeper"]] * 2

    def test_run_until_stops_short_of_the_slot_then_run_for_resumes(self):
        # Two jobs share one CPU, so neither runs ahead: the shorter
        # one's timer sits in the slot at 20 when run(until_ns=7) stops.
        sides = []
        for fast in (True, False):
            engine = Engine(fast=fast)
            cpu = CPU(engine, 1)
            done = []

            def body(ns):
                yield Compute(ns)
                done.append((ns, engine.now))

            for ns in (10, 15):
                t = engine.spawn(body(ns), name=f"j{ns}")
                t.cpu = cpu
            ends = [engine.run(until_ns=7)]
            if fast:
                assert engine._slot_when == 20 and not engine._queue
            assert cpu.n_runnable == 2 and not done
            ends.append(engine.run_for(12))  # to 19: still short
            assert not done
            ends.append(engine.run_for(100))
            sides.append((ends, done, engine._seq, cpu._armed_seq))
        assert sides[0] == sides[1]
        assert sides[0][0] == [7, 19, 25]
        assert sides[0][1] == [(10, 20), (15, 25)]

    def test_deadlock_is_detected_only_once_the_slot_has_fired(self):
        # The waiter blocks for good; the queue and the deque are empty
        # while two jobs share the CPU, but their slot timer still has
        # to fire before the run can call it a deadlock.
        for fast in (True, False):
            engine = Engine(fast=fast)
            cpu = CPU(engine, 1)

            def waiter():
                yield WaitEvent(OneShotEvent("never"))

            def worker(ns):
                yield Compute(ns)

            threads = [engine.spawn(waiter(), name="waiter")]
            for ns in (10, 4):
                threads.append(engine.spawn(worker(ns), name=f"w{ns}"))
                threads[-1].cpu = cpu
            with pytest.raises(DeadlockError, match="blocked threads: waiter$"):
                engine.run()
            assert engine.now == 14
            assert [t.finish_time_ns for t in threads[1:]] == [14, 8]

    def test_heap_timer_cpu_interleaves_with_the_slotted_one(self):
        # CPU 0 owns the slot; CPU 1 keeps heap timers.  At 1, t1's job
        # on the idle CPU 1 would end at 21, after the slot timer at 12
        # and before the heap's head at 25, so it may not run ahead.  At
        # 26 CPU 1's heap timer ties with CPU 0's slot timer, armed
        # later.  t3's lone jobs at 30 run ahead.
        pools = [1, 2]
        scripts = [
            (0, [("compute", 12), ("compute", 3)]),
            (1, [("sleep", 1), ("compute", 20), ("compute", 5)]),
            (0, [("sleep", 25), ("compute", 1)]),
            (1, [("sleep", 30), ("compute", 4), ("compute", 4)]),
        ]
        fast, fast_seq, events = _scripted(True, pools, scripts)
        slow, slow_seq, _ = _scripted(False, pools, scripts)
        assert fast == slow
        assert fast_seq == slow_seq
        _end, log, _state = fast
        assert log.index((0, 0, 12)) < log.index((1, 1, 21))
        assert log.index((1, 2, 26)) < log.index((2, 1, 26))
        # CPU 1's timers went through the heap while the slot was armed.
        assert any(when != _NEVER and timers for _now, when, timers in events)


class _Job:
    """The submitting thread: the CPU only names it in its events."""


#: How the engine stands when the lone jobs start: nothing pending but
#: ``run``'s bound, a heap event that ends the stretch, or one of the
#: conditions under which no job may run ahead at all.
_SETTINGS = ("bound", "heap", "imm", "held", "no_foreground")


def _idle_cpu(n_cpus, contended, setting, horizon):
    """An idle CPU after a contended phase, poised for lone jobs.

    The phase runs *contended* works on ``n_cpus`` CPUs through the
    engine, so processor sharing can leave a fractional ``_service``.
    The engine is then set up as :meth:`Engine.run` would have it, with
    the stretch ending *horizon* ns from now.  Returns the engine, the
    CPU and the job's thread.
    """
    engine = Engine(fast=True)
    cpu = CPU(engine, n_cpus)

    def body(ns):
        yield Compute(ns)

    for ns in contended:
        t = engine.spawn(body(ns))
        t.cpu = cpu
    engine.run()
    assert not cpu.n_runnable and not engine._imm
    engine._n_live_foreground = 1
    engine._ahead_until = engine._now + horizon
    if setting == "heap":
        engine._ahead_until += 1 + horizon
        engine.schedule1(horizon + 1, lambda _arg: None, None)
    elif setting == "imm":
        engine.schedule1(0, lambda _arg: None, None)
    elif setting == "held":
        engine._held = 1
    elif setting == "no_foreground":
        engine._n_live_foreground = 0
    return engine, cpu, _Job()


def _state(engine, cpu):
    fields = {
        k: v for k, v in vars(cpu).items() if k not in ("_engine", "_heap")
    }
    return (
        fields,
        [entry[:2] for entry in cpu._heap],
        engine._seq,
        engine._n_ahead,
        engine._now,
        [entry[:2] for entry in engine._queue],
        [entry[0] for entry in engine._imm],
    )


def _stretch_and_submits(
    n_cpus, contended, setting, horizon, work, n, observed,
):
    """Run one ``run_ahead(thread, work, n)`` and, on an identical
    twin, up to n lone submits while they run ahead.  Returns each
    side's (delays, observer log, final state)."""
    runs = []
    for stretch in (True, False):
        engine, cpu, job = _idle_cpu(n_cpus, contended, setting, horizon)
        log = []

        def probe(n_runnable, started, finished, engine=engine, log=log, job=job):
            log.append((
                engine._now,
                n_runnable,
                started is job,
                None if finished is None else [t is job for t in finished],
            ))

        if observed:
            _tp.attach("sched_runnable", probe)
        try:
            if stretch:
                delays = cpu.run_ahead(job, work, n)
                if len(delays) < n:
                    # Where the stretch stops, submit takes its normal
                    # path.
                    assert not cpu.submit(job, work)
            else:
                delays = []
                while len(delays) < n:
                    start = engine._now
                    if not cpu.submit(job, work):
                        break
                    delays.append(engine._now - start)
        finally:
            if observed:
                _tp.detach("sched_runnable", probe)
        runs.append((delays, log, _state(engine, cpu)))
    return runs


class TestRunAheadStretch:
    """``run_ahead(thread, w, n)`` is n lone ``submit`` run-aheads."""

    @settings(max_examples=300, deadline=None)
    @given(
        n_cpus=st.integers(1, 4),
        contended=st.lists(st.integers(1, 900), max_size=6),
        setting=st.sampled_from(_SETTINGS),
        horizon=st.integers(0, 400),
        work=st.integers(1, 60),
        n=st.integers(1, 12),
        observed=st.booleans(),
    )
    def test_matches_successive_lone_submits(self, **case):
        stretch, submits = _stretch_and_submits(**case)
        assert stretch == submits

    def test_fractional_service_delays_one_more_ns(self):
        # Three jobs share two CPUs at rate 2/3 until the first ends, so
        # the phase leaves _service = 7.333..., where (7.333... + 25) -
        # 7.333... rounds above 25: the first 25 ns job's timer would
        # wait 26 ns.
        stretch, submits = _stretch_and_submits(
            n_cpus=2, contended=[3, 5, 7], setting="bound", horizon=200,
            work=25, n=9, observed=True,
        )
        assert stretch == submits
        delays = stretch[0]
        assert delays[0] == 26
        # The bound, 200 ns on, stops the stretch short of 9 jobs.
        assert len(delays) == 7


class TestDispatch:
    @pytest.mark.parametrize("base", [Compute, Sleep])
    def test_command_subclass_is_unknown(self, base):
        class Custom(base):
            __slots__ = ()

        engine = Engine()
        cpu = CPU(engine, 1)

        def body():
            yield Custom(10)

        t = engine.spawn(body(), name="custom")
        t.cpu = cpu
        with pytest.raises(SimulationError, match="unknown command"):
            engine.run()
