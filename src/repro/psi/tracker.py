"""Kernel-style Pressure Stall Information (PSI) in simulated time.

Mirrors ``kernel/sched/psi.c`` semantics on top of the event engine:

* A task is **memstalled** while it waits on memory — swapping a page
  in, running (or waiting behind) direct reclaim, doing charge-time
  cgroup reclaim, or blocked on another thread's in-flight major
  fault.  The tracker derives this from the observer bus: every
  ``wait_begin``/``wait_end`` pair (:mod:`repro.trace.tracepoints`)
  whose ``memstall`` flag is set brackets one such wait.
* **some** time accrues while at least one tracked task is memstalled.
* **full** time accrues while at least one task is memstalled and *no
  non-stalled task is running* — the kernel's ``NR_MEMSTALL_RUNNING``
  rule: CPU burnt by reclaim itself is unproductive, so a machine
  whose only running work is reclaim is fully stalled.  ``kswapd``
  background reclaim is deliberately *not* a memstall (kernel
  semantics: it keeps the system in *some*, never drags it to *full*
  on its own, and its CPU time counts as productive).
* Per-cgroup groups track their single tenant server thread, so for
  tenant groups ``full == some`` (single-task cgroup semantics, same
  as a one-task cgroup on Linux).

Averages use the kernel's ``calc_load``-style EWMA in float form::

    avg = avg * d + pct * (1 - d),   d = exp(-period_s / window_s)

updated once per sampler period (the kernel uses fixed-point ``exp``
constants at a 2 s cadence; we use the closed form at the configured
cadence so the math is exact for tests to pin).

Workingset counters follow ``mm/workingset.c``: every shadow-bearing
refault bumps ``workingset_refault``; if the page's eviction distance
(in group-local evictions, the ``nonresident_age`` analog) is within
the group's resident size — or the page carried the workingset flag —
it also counts ``workingset_activate`` and re-sets the flag; refaults
of flagged pages additionally count ``workingset_restore``.

Everything here is **passive**: no simulation state is read-modified,
no RNG is touched, no events are scheduled except the sampler daemon's
own ``Sleep`` loop (which, like the vmstat sampler, is provably
order-neutral).  PSI-off is the absence of its probes on the bus — the
hot paths test the event slots for ``None``, so disabled runs stay
bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.psi.config import PsiConfig
from repro.sim.events import Sleep
from repro.trace import tracepoints as _tp

#: The tracker attached to the observer bus, if any (one per process,
#: like every consumer); vmstat's PSI columns and the metrics finalizer
#: read it.
_installed: Optional["PsiTracker"] = None


def installed() -> Optional["PsiTracker"]:
    """The tracker currently attached to the observer bus, or None."""
    return _installed


class PsiGroup:
    """One pressure-accounting domain: the system, or one cgroup."""

    __slots__ = (
        "name",
        "gid",
        "cg",
        "record_intervals",
        "nr_stalled",
        "nr_productive",
        "last_time",
        "some_total_ns",
        "full_total_ns",
        "avg_some",
        "avg_full",
        "_last_some_ns",
        "_last_full_ns",
        "nonresident_age",
        "ws_refault",
        "ws_activate",
        "ws_restore",
        "stall_intervals",
        "_stall_start",
    )

    def __init__(self, name: str, gid: int, cg=None,
                 record_intervals: bool = False) -> None:
        self.name = name
        #: Numeric id used as the ``psi_sample`` tracepoint payload:
        #: 0 is the system group, tenants are ``1 + cgroup.index``.
        self.gid = gid
        self.cg = cg
        self.record_intervals = record_intervals
        self.nr_stalled = 0
        self.nr_productive = 0
        self.last_time = 0
        self.some_total_ns = 0
        self.full_total_ns = 0
        self.avg_some = [0.0, 0.0, 0.0]
        self.avg_full = [0.0, 0.0, 0.0]
        self._last_some_ns = 0
        self._last_full_ns = 0
        self.nonresident_age = 0
        self.ws_refault = 0
        self.ws_activate = 0
        self.ws_restore = 0
        #: Coalesced ``[start_ns, end_ns]`` stall intervals, recorded
        #: only when ``record_intervals`` (fleet attribution wants
        #: them; the system group would accumulate too many).
        self.stall_intervals: List[List[int]] = []
        self._stall_start = 0

    def _accrue(self, now: int) -> None:
        """Fold the time since ``last_time`` into the stall totals
        under the *current* (pre-transition) state.  Callers mutate
        ``nr_stalled``/``nr_productive`` only after accruing."""
        dt = now - self.last_time
        if dt > 0:
            self.last_time = now
            if self.nr_stalled > 0:
                self.some_total_ns += dt
                if self.nr_productive == 0:
                    self.full_total_ns += dt

    def update_averages(self, period_ns: int,
                        decays: Tuple[float, ...]) -> Tuple[int, int]:
        """One EWMA step over the elapsed period; returns the period's
        (some, full) stall deltas in ns for trigger evaluation."""
        d_some = self.some_total_ns - self._last_some_ns
        d_full = self.full_total_ns - self._last_full_ns
        self._last_some_ns = self.some_total_ns
        self._last_full_ns = self.full_total_ns
        pct_some = 100.0 * d_some / period_ns
        pct_full = 100.0 * d_full / period_ns
        avg_some = self.avg_some
        avg_full = self.avg_full
        for i, d in enumerate(decays):
            avg_some[i] = avg_some[i] * d + pct_some * (1.0 - d)
            avg_full[i] = avg_full[i] * d + pct_full * (1.0 - d)
        return d_some, d_full

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe ``/proc/pressure/memory``-shaped summary."""
        return {
            "some_total_us": self.some_total_ns // 1000,
            "full_total_us": self.full_total_ns // 1000,
            "some_avg10": round(self.avg_some[0], 4),
            "some_avg60": round(self.avg_some[1], 4),
            "some_avg300": round(self.avg_some[2], 4),
            "full_avg10": round(self.avg_full[0], 4),
            "full_avg60": round(self.avg_full[1], 4),
            "full_avg300": round(self.avg_full[2], 4),
            "workingset_refault": self.ws_refault,
            "workingset_activate": self.ws_activate,
            "workingset_restore": self.ws_restore,
        }


class PsiTracker:
    """Per-system PSI state: one system group plus one group per
    registered cgroup, CPU-productivity tracking, workingset shadow
    records, and the reclaim steal matrix.

    Install order matters: :meth:`install` must run before the engine
    does (it assumes no CPU jobs are in flight when it starts counting
    productive tasks).  :meth:`detach` runs in the trial's teardown.
    """

    def __init__(self, engine, config: Optional[PsiConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else PsiConfig()
        self.system = PsiGroup("system", 0)
        self.groups: List[PsiGroup] = []
        self._by_cg: Dict[int, PsiGroup] = {}
        #: (requester_index, victim_index) -> pages reclaimed from the
        #: victim on the requester's behalf (global-reclaim steal).
        self.steals: Dict[Tuple[int, int], int] = {}
        #: vpn -> (group, nonresident_age at eviction, had ws flag);
        #: the tracker's own shadow records, parallel to (and
        #: independent of) policy shadow entries in the swap cache.
        self._ws_shadow: Dict[int, Tuple[PsiGroup, int, bool]] = {}
        #: vpns whose resident page carries the workingset flag
        #: (``PG_workingset`` analog, set on activation).
        self._ws_flag: set = set()
        self._memory_system = None
        #: thread -> memory-stall depth (the kernel's per-task
        #: in_memstall); threads leave the map when it returns to zero.
        self._memstall: Dict[object, int] = {}
        self._probes = (
            ("wait_begin", self.wait_begin),
            ("wait_end", self.wait_end),
            ("sched_runnable", self.sched_runnable),
            ("mm_vmscan_evict", self._on_evict),
            ("mm_fault_major", self._on_major_fault),
            ("memcg_steal", self.note_steal),
        )
        #: Per-tick system series: (t_ns, some_total_ns, full_total_ns,
        #: some_avg10, full_avg10) — what the observe-smoke PSI invariants and
        #: the fleet row's ``psi.samples`` read.
        self.samples: List[Tuple[int, int, int, float, float]] = []
        self.n_samples = 0

    # -- wiring ----------------------------------------------------------

    def add_group(self, cg, record_intervals: bool = False) -> PsiGroup:
        """Register a cgroup as a pressure domain; idempotent per cg."""
        group = self._by_cg.get(id(cg))
        if group is not None:
            return group
        group = PsiGroup(cg.name, 1 + cg.index, cg=cg,
                         record_intervals=record_intervals)
        self.groups.append(group)
        self._by_cg[id(cg)] = group
        return group

    def install(self, system) -> None:
        """Attach to the observer bus for *system*'s trial before the
        engine runs.  PSI mutates no sim object: it only reads them."""
        global _installed
        self._memory_system = system
        for name, probe in self._probes:
            _tp.attach(name, probe)
        _installed = self
        now = self.engine._now
        self.system.last_time = now
        for group in self.groups:
            group.last_time = now

    def detach(self) -> None:
        """Detach from the observer bus (idempotent; trial teardown)."""
        global _installed
        for name, probe in self._probes:
            _tp.detach(name, probe)
        if _installed is self:
            _installed = None

    # -- stall accounting (the bus's wait and scheduler events) -------------

    def wait_begin(self, kind, memcg, memstall, subject) -> None:
        """A wait starts.  A memstall wait stalls the current thread
        and *memcg*'s group.  Reentrant per thread (the stall depth is a
        counter), though memstall waits are sequential and never
        actually nest."""
        if not memstall:
            return
        engine = self.engine
        now = engine._now
        thread = engine.current_thread
        depths = self._memstall
        depth = depths.get(thread, 0) + 1
        depths[thread] = depth
        if depth == 1:
            sg = self.system
            sg._accrue(now)
            sg.nr_stalled += 1
        if memcg is not None:
            group = self._by_cg.get(id(memcg))
            if group is not None:
                group._accrue(now)
                if group.nr_stalled == 0 and group.record_intervals:
                    group._stall_start = now
                group.nr_stalled += 1

    def wait_end(self, kind, memcg, memstall) -> None:
        if not memstall:
            return
        engine = self.engine
        now = engine._now
        thread = engine.current_thread
        depths = self._memstall
        depth = depths[thread] - 1
        if depth:
            depths[thread] = depth
        else:
            del depths[thread]
            sg = self.system
            sg._accrue(now)
            sg.nr_stalled -= 1
        if memcg is not None:
            group = self._by_cg.get(id(memcg))
            if group is not None:
                group._accrue(now)
                group.nr_stalled -= 1
                if group.nr_stalled == 0 and group.record_intervals:
                    intervals = group.stall_intervals
                    start = group._stall_start
                    # Back-to-back stalls within one fault touch (zero-
                    # duration gaps), so extending the last interval
                    # keeps the list coalesced without a per-request
                    # merge pass.
                    if intervals and start <= intervals[-1][1]:
                        if now > intervals[-1][1]:
                            intervals[-1][1] = now
                    elif now > start:
                        intervals.append([start, now])

    def sched_runnable(self, n_runnable, started, finished) -> None:
        """A CPU job started (*started*) or jobs finished (*finished*).
        Jobs of memstalled threads are unproductive (kernel
        ``NR_MEMSTALL_RUNNING``); everything else keeps the system out
        of *full*.  Accrue only when a stall is live — folding an
        unstalled gap adds nothing, and the next stall accrues before
        flipping the state.  A thread's stall depth cannot change while
        its job is in flight (its generator is suspended), and
        completions are observed before any thread resumes."""
        sg = self.system
        depths = self._memstall
        if started is not None:
            if started not in depths:
                if sg.nr_stalled > 0:
                    sg._accrue(self.engine._now)
                sg.nr_productive += 1
            return
        for thread in finished:
            if thread not in depths:
                if sg.nr_stalled > 0:
                    sg._accrue(self.engine._now)
                sg.nr_productive -= 1

    # -- workingset ---------------------------------------------------------

    def note_eviction(self, page) -> None:
        """A page lost its frame with a policy shadow left behind.
        Stamps the tracker's own shadow record with the owning group's
        eviction clock (``nonresident_age``) and the workingset flag."""
        cg = page.memcg
        group = self._by_cg.get(id(cg)) if cg is not None else None
        if group is None:
            group = self.system
        group.nonresident_age += 1
        vpn = page.vpn
        flagged = vpn in self._ws_flag
        if flagged:
            self._ws_flag.discard(vpn)
        self._ws_shadow[vpn] = (group, group.nonresident_age, flagged)

    def _on_evict(self, pages, latency_ns, wrote_back) -> None:
        for page in pages:
            self.note_eviction(page)

    def _on_major_fault(self, vpn, latency_ns, write) -> None:
        # Every major fault swapped its page in (kernel workingset_refault
        # runs at swap-in; nothing between it and fault completion moves
        # the clock or the resident sizes refault distances compare to).
        self.note_refault(vpn)

    def note_refault(self, vpn: int) -> None:
        """A previously evicted page faulted back in."""
        record = self._ws_shadow.pop(vpn, None)
        if record is None:
            return
        group, age, was_workingset = record
        sg = self.system
        group.ws_refault += 1
        if group is not sg:
            sg.ws_refault += 1
        distance = group.nonresident_age - age
        if was_workingset or distance <= self._workingset_size(group):
            self._ws_flag.add(vpn)
            group.ws_activate += 1
            if group is not sg:
                sg.ws_activate += 1
            if was_workingset:
                group.ws_restore += 1
                if group is not sg:
                    sg.ws_restore += 1

    def _workingset_size(self, group: PsiGroup) -> int:
        """Resident pages charged to the group — the ``lruvec`` size
        analog a refault distance is compared against."""
        if group.cg is not None:
            return group.cg.usage_pages
        system = self._memory_system
        return system.frames.n_used if system is not None else 0

    # -- reclaim steal attribution (the ``memcg_steal`` event) --------------

    def note_steal(self, requester_index: int, victim_index: int,
                   pages: int) -> None:
        key = (requester_index, victim_index)
        self.steals[key] = self.steals.get(key, 0) + pages

    def instigators_for(self, victim_index: int) -> Dict[int, int]:
        """requester_index -> pages stolen *from* this victim."""
        return {
            requester: pages
            for (requester, victim), pages in sorted(self.steals.items())
            if victim == victim_index and requester != victim_index
        }

    # -- sampling ---------------------------------------------------------

    def decays(self) -> Tuple[float, ...]:
        period_s = self.config.sample_interval_ns / 1e9
        return tuple(
            math.exp(-period_s / window)
            for window in self.config.avg_windows_s
        )

    def run_sampler(self):
        """Daemon generator: the PSI analog of the vmstat sampler.
        Pure ``Sleep`` + reads, so it is order-neutral and keeps
        PSI-on simulation results identical to PSI-off."""
        interval = self.config.sample_interval_ns
        decays = self.decays()
        engine = self.engine
        while self.n_samples < self.config.max_samples:
            yield Sleep(interval)
            self.sample(engine._now, interval, decays)

    def sample(self, now: int, period_ns: int,
               decays: Tuple[float, ...]) -> None:
        """One EWMA tick over every group, firing ``psi_sample`` (and
        armed ``psi_trigger``) tracepoints when tracing is attached."""
        self.n_samples += 1
        sg = self.system
        sg._accrue(now)
        d_some, d_full = sg.update_averages(period_ns, decays)
        self.samples.append((
            now, sg.some_total_ns, sg.full_total_ns,
            sg.avg_some[0], sg.avg_full[0],
        ))
        self._emit(sg, d_some, d_full)
        for group in self.groups:
            group._accrue(now)
            d_some, d_full = group.update_averages(period_ns, decays)
            self._emit(group, d_some, d_full)

    def _emit(self, group: PsiGroup, d_some: int, d_full: int) -> None:
        if _tp.psi_sample is not None:
            _tp.psi_sample(
                group.gid,
                int(group.avg_some[0] * 100.0),
                int(group.avg_full[0] * 100.0),
            )
        if _tp.psi_trigger is not None:
            trig_some = self.config.trigger_some_us
            trig_full = self.config.trigger_full_us
            if trig_some is not None and d_some // 1000 >= trig_some:
                _tp.psi_trigger(group.gid, 0, d_some // 1000)
            if trig_full is not None and d_full // 1000 >= trig_full:
                _tp.psi_trigger(group.gid, 1, d_full // 1000)

    def finalize(self, now: int) -> None:
        """Fold stall time through trial end into every group."""
        self.system._accrue(now)
        for group in self.groups:
            group._accrue(now)

    # -- read-side snapshots ----------------------------------------------

    def system_totals(self) -> Tuple[int, int, int, int, int]:
        """Live system-group totals for the vmstat column set:
        (some_ns, full_ns, ws_refault, ws_activate, ws_restore)."""
        sg = self.system
        sg._accrue(self.engine._now)
        return (
            sg.some_total_ns,
            sg.full_total_ns,
            sg.ws_refault,
            sg.ws_activate,
            sg.ws_restore,
        )

    def group_for(self, cg) -> Optional[PsiGroup]:
        return self._by_cg.get(id(cg))


def merge_intervals(intervals: List[List[int]]) -> List[List[int]]:
    """Sort raw ``[start, end]`` pairs and coalesce overlaps."""
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def interval_overlap_ns(a: List[List[int]], b: List[List[int]]) -> int:
    """Total overlap between two sorted, disjoint interval lists."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
        hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total
