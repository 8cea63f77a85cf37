"""Host-time tracing for the traced pass: a layer sampler and boundary spans.

The sampler is a ``SIGPROF`` handler on an ``ITIMER_PROF`` timer.  On
each tick it walks the interrupted Python stack, maps every frame to a
layer by its file (``src/repro/<layer>/...``), and counts the collapsed
layer path.  A sample's *self* layer is its innermost ``repro`` frame,
so time in numpy called from ``mm`` counts as ``mm``.  The simulator's
hot entry points are generator coroutines entered ~10^5 times per
trial; wrapping them would time generator creation and cost more than
the call, so those layers are sampled, never wrapped.

Spans are recorded only around coarse public calls (a cell, a trial, a
dataset lookup, a sink append) by patching module attributes for the
duration of a traced round.  Pool workers fork after the patch, so the
worker-side wrappers start their own sampler and leave their stacks and
spans in a file the parent merges once the pool has joined.

The patched callables must be module-level functions: the
``ExperimentRunner`` pickles ``run_cell_trials`` by name into its pool.
They therefore read the one active :class:`Tracer` from a module
global; a process has at most one.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Sampling period.  The kernel may deliver at its tick rate instead;
#: shares are ratios of sample counts, so only their resolution changes.
INTERVAL_S = 0.001
#: The four observability planes, reported together as ``observe``.
OBSERVE_LAYERS = ("trace", "metrics", "psi", "spans")
#: Self layer of samples with no ``repro`` frame (pool plumbing,
#: pickling, the harness itself).
OTHER = "other"

_layer_cache: Dict[str, Optional[str]] = {}


def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file: ``<layer>`` for ``src/repro/<layer>/x.py``,
    ``repro`` for ``src/repro/x.py``, ``None`` outside the package."""
    if filename in _layer_cache:
        return _layer_cache[filename]
    parts = pathlib.PurePath(filename).parts
    layer = None
    for i in range(len(parts) - 2, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            layer = "repro" if i + 2 == len(parts) else parts[i + 1]
            break
    _layer_cache[filename] = layer
    return layer


def stack_path(frame: Any) -> List[str]:
    """Layers of *frame*'s stack, outermost first, repeats collapsed."""
    path: List[str] = []
    while frame is not None:
        layer = layer_of(frame.f_code.co_filename)
        if layer is not None and (not path or path[-1] != layer):
            path.append(layer)
        frame = frame.f_back
    path.reverse()
    return path


def self_layer(stack: str) -> str:
    """Self layer of a folded stack ``role;outer;...;inner`` (``role;other``
    when no frame was in ``repro``)."""
    return stack.rsplit(";", 1)[-1]


class Tracer:
    """Sampler plus span recorder for one process (and its forked workers)."""

    def __init__(self, spool: pathlib.Path) -> None:
        self.spool = pathlib.Path(spool)
        self.stacks: Counter = Counter()
        self.spans: List[Dict[str, Any]] = []
        self._pid = os.getpid()
        self._open: List[int] = []
        self._role = "harness"
        self._saved: List[Tuple[Any, str, Any]] = []
        self._old_handler: Any = None
        self._flushes = 0

    # -- sampler --------------------------------------------------------

    def _on_tick(self, _signum: int, frame: Any) -> None:
        path = stack_path(frame) or [OTHER]
        self.stacks[";".join([self._role, *path])] += 1

    def start_sampling(self) -> None:
        self._old_handler = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span ``(name, start, end, parent)``.  In a
        pool worker the outermost span also runs the worker's sampler
        and leaves everything in a spool file on exit."""
        if os.getpid() != self._pid:
            # First call in a forked worker: drop the parent's state,
            # including spans that were open when the pool forked.
            self._pid = os.getpid()
            self._role = "worker"
            self.stacks, self.spans, self._open = Counter(), [], []
        worker_entry = self._role == "worker" and not self._open
        if worker_entry:
            self.start_sampling()
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "parent": self.spans[self._open[-1]]["name"] if self._open else None,
            "t0": time.perf_counter(),
            "t1": None,
        })
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index]["t1"] = time.perf_counter()
            if worker_entry:
                self.stop_sampling()
                self._flush()

    def _flush(self) -> None:
        self._flushes += 1
        path = self.spool / f"w-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps({"stacks": self.stacks, "spans": self.spans}))
        self.stacks = Counter()
        self.spans = []

    def collect(self) -> Tuple[Counter, List[Dict[str, Any]]]:
        """Parent side, after the pool joined: merge and clear every
        worker file plus this process's own samples and spans."""
        stacks, spans = self.stacks, self.spans
        for path in sorted(self.spool.glob("w-*.json")):
            data = json.loads(path.read_text())
            stacks.update(data["stacks"])
            spans.extend(data["spans"])
            path.unlink()
        self.stacks, self.spans = Counter(), []
        return stacks, spans

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        """Patch the boundary calls and start sampling this process."""
        global _ACTIVE
        import repro.core.experiment as experiment
        import repro.fleet.runner as fleet_runner
        import repro.fleet.sink as sink
        import repro.workloads.base as workload_base
        import repro.workloads.datasets as datasets

        _ACTIVE = self
        self.spool.mkdir(parents=True, exist_ok=True)
        for owner, attr, wrapper in (
            (experiment, "run_cell_trials", _run_cell_trials),
            (experiment, "run_trial", _run_trial),
            (experiment.ExperimentRunner, "run", _runner_run),
            (workload_base.Workload, "prepare", _workload_prepare),
            (datasets, "get_dataset", _get_dataset),
            (fleet_runner, "run_fleet_trial", _run_fleet_trial),
            (sink.JsonlSink, "append", _sink_append),
        ):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            _ORIGINALS[attr] = original
            setattr(owner, attr, wrapper)
        self.start_sampling()

    def remove(self) -> None:
        global _ACTIVE
        self.stop_sampling()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        _ORIGINALS.clear()
        _ACTIVE = None


_ACTIVE: Optional[Tracer] = None
_ORIGINALS: Dict[str, Any] = {}


def _traced(name: str, attr: str, *args: Any, **kwargs: Any) -> Any:
    return _ACTIVE.call(name, _ORIGINALS[attr], *args, **kwargs)


def _run_cell_trials(*args: Any, **kwargs: Any) -> Any:
    return _traced("run_cell_trials", "run_cell_trials", *args, **kwargs)


def _run_trial(*args: Any, **kwargs: Any) -> Any:
    return _traced("run_trial", "run_trial", *args, **kwargs)


def _runner_run(*args: Any, **kwargs: Any) -> Any:
    return _traced("ExperimentRunner.run", "run", *args, **kwargs)


def _workload_prepare(*args: Any, **kwargs: Any) -> Any:
    return _traced("Workload.prepare", "prepare", *args, **kwargs)


def _get_dataset(*args: Any, **kwargs: Any) -> Any:
    return _traced("datasets.get_dataset", "get_dataset", *args, **kwargs)


def _run_fleet_trial(*args: Any, **kwargs: Any) -> Any:
    return _traced("run_fleet_trial", "run_fleet_trial", *args, **kwargs)


def _sink_append(*args: Any, **kwargs: Any) -> Any:
    return _traced("JsonlSink.append", "append", *args, **kwargs)


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------


def self_samples(stacks: Counter) -> Counter:
    """Sample counts by self layer."""
    out: Counter = Counter()
    for stack, count in stacks.items():
        out[self_layer(stack)] += count
    return out


def span_seconds(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Durations of every span called *name*."""
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name and s["t1"] is not None]
