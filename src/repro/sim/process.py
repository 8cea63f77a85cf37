"""Generator-coroutine threads for the discrete-event engine.

A :class:`SimThread` drives a Python generator.  The generator yields
command objects from :mod:`repro.sim.events`; the thread performs each
command against the engine/CPU and resumes the generator when the command
completes.  Nested helpers compose with ``yield from`` — the thread only
ever sees the flattened command stream.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import (
    Compute,
    OneShotEvent,
    Sleep,
    WaitEvent,
    WaitWaker,
)
from repro.trace import tracepoints as _tp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.cpu import CPU
    from repro.sim.engine import Engine


def _as_generator(iterable: Iterator[Any]) -> Iterator[Any]:
    """Wrap a plain iterator so it supports ``send``."""
    for item in iterable:
        yield item


class SimThread:
    """A simulated thread of execution.

    Created via :meth:`repro.sim.engine.Engine.spawn`.  The thread's
    ``cpu`` attribute must be set (usually by the owning system) before the
    generator yields its first :class:`Compute` command.
    """

    __slots__ = (
        "_engine",
        "_gen",
        "name",
        "daemon",
        "cpu",
        "_finished",
        "_result",
        "_started",
        "done_event",
        "compute_requested_ns",
        "finish_time_ns",
    )

    def __init__(
        self,
        engine: "Engine",
        generator: Iterator[Any],
        name: str = "thread",
        daemon: bool = False,
    ) -> None:
        self._engine = engine
        # Accept any iterator; only generators have .send, so wrap
        # plain iterators (useful for trivial threads in tests).
        if not hasattr(generator, "send"):
            generator = _as_generator(generator)
        self._gen = generator
        self.name = name
        self.daemon = daemon
        #: CPU this thread computes on; set by the owning system.
        self.cpu: Optional["CPU"] = None
        self._finished = False
        self._result: Any = None
        self._started = False
        #: Fires with the generator's return value when the thread ends.
        self.done_event = OneShotEvent(f"{name}-done")
        #: Total CPU work requested (ns, before contention dilation).
        self.compute_requested_ns = 0
        #: Simulated time at which the thread finished (None if running).
        self.finish_time_ns: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "live"
        return f"<SimThread {self.name!r} {state}>"

    @property
    def finished(self) -> bool:
        """True once the generator has returned."""
        return self._finished

    @property
    def result(self) -> Any:
        """The generator's return value (``None`` until finished)."""
        return self._result

    # ------------------------------------------------------------------
    # Engine-facing machinery
    # ------------------------------------------------------------------

    def _resume_soon(self, value: Any) -> None:
        """Resume the generator on the next event-loop turn."""
        if value is None:
            self._engine.schedule1(0, self._step, None)
        else:
            self._engine.schedule1(0, self._step, value)

    def _step(self, value: Any) -> None:
        """Advance the generator by one command and dispatch it."""
        if self._finished:
            raise SimulationError(f"thread {self.name!r} resumed after finish")
        self._started = True
        engine = self._engine
        # Observability: event consumers attribute what the generator
        # emits below (waits in particular) to this thread.
        engine.current_thread = self
        while True:
            try:
                command = self._gen.send(value)
            except StopIteration as stop:
                self._finished = True
                self._result = stop.value
                self.finish_time_ns = engine.now
                engine._thread_finished(self)
                if _tp.thread_done is not None:
                    _tp.thread_done(self.compute_requested_ns)
                self.done_event.fire(stop.value)
                return
            # Exact-type dispatch for the two commands that dominate
            # every trial; waits go through :meth:`_dispatch`, which
            # rejects anything else (subclasses of Compute and Sleep
            # included).
            cls = type(command)
            if cls is Compute:
                ns = command.ns
                if ns <= 0:
                    # Zero-cost compute completes at this very instant.
                    # When nothing else is pending at the current instant
                    # the generator may continue inside this step —
                    # provably the same order as a zero-delay round-trip
                    # through the queue would give.
                    if engine._inline_ok():
                        value = None
                        continue
                    engine.schedule1(0, self._step, None)
                    return
                cpu = self.cpu
                if cpu is None:
                    raise SimulationError(
                        f"thread {self.name!r} yielded Compute with no "
                        "CPU set"
                    )
                self.compute_requested_ns += ns
                if cpu.submit(self, ns):
                    # Ran ahead: the job is done and the clock stands
                    # at its completion instant.
                    value = None
                    continue
            elif cls is Sleep:
                ns = command.ns
                if ns <= 0:
                    if engine._inline_ok():
                        value = None
                        continue
                    engine.schedule1(0, self._step, None)
                    return
                engine.schedule1(ns, self._step, None)
            else:
                self._dispatch(command)
            return

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, WaitEvent):
            if not command.event._add_waiter(self):
                self._resume_soon(command.event.value)
        elif isinstance(command, WaitWaker):
            if not command.waker._add_waiter(self):
                self._resume_soon(None)
        else:
            raise SimulationError(
                f"thread {self.name!r} yielded unknown command {command!r}"
            )
