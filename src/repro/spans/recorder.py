"""The span recorder: exact critical-path accounting per demand fault.

**Accounting model.**  Each simulated thread carries a bracket stack.
A demand fault pushes a *root* frame at ``handle_fault`` entry (the
``fault_begin`` event); every wait inside the fault (a
``wait_begin``/``wait_end`` pair on :mod:`repro.trace.tracepoints`)
pushes a child frame.  On pop, a frame's *exclusive* time
(elapsed minus the time spent in its own children) is charged to its
segment kind on the root, and its full elapsed time is folded into the
parent's child clock.  At fault end the root's residual (total minus
child time) is charged to the ``service`` segment — page-table and
reverse-map bookkeeping, the fault's own modeled CPU bursts.  This
guarantees, structurally, that the per-fault segment sums equal the
measured end-to-end latency exactly: sim time is deterministic and
integral, so there is no sampling error to hide.

**Cross-thread causality.**  Waits that block on *another* thread's
work record the instigator by name, derived from the events alone: a
fault blocked behind a page's in-flight fault names the thread whose
``fault_begin`` found the page unowned (it services the fault until
its ``fault_end``); a fault waiting on an in-flight eviction batch
names the last thread to open an ``evict_writeback`` wait (kswapd, a
direct reclaimer) while any is open; a fault queueing behind direct
reclaim names the thread inside ``reclaim_run``; a charge queueing
behind its cgroup's local reclaim names the cgroup.

**Device split.**  Swap devices emit ``swap_io_submit`` with their
analytically exact (queue, service) decomposition *before* sleeping,
so the enclosing ``swap_read``/``evict_writeback`` frame's exclusive
remainder is precisely the CPU-contention dilation (zram) or zero
(SSD).

The recorder is a pure observer: it reads ``engine._now`` and thread
identities, mutates only its own state, draws no randomness and
schedules no events except the optional profiler daemon's ``Sleep``
loop (order-neutral, like the vmstat and PSI samplers).  Spans-off is
the absence of its probes on the bus — the instrumented sites pay one
module-attribute load and an ``is None`` test, and disabled runs stay
bit-identical.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.events import Sleep
from repro.spans.config import SpansConfig
from repro.trace import tracepoints as _tp

#: Frame slots (child frames are 4-lists; root frames extend them).
_KIND, _START, _CHILD, _INST = range(4)
_SEGS, _INSTS, _VPN, _GROUP, _THREAD = range(4, 9)

ROOT_KIND = "fault"
#: Residual root-exclusive segment: fault bookkeeping CPU (PTE/rmap
#: updates, policy insertion, charge overhead bursts).
SERVICE_SEG = "service"

#: Every segment kind the instrumented sites can emit, with meaning —
#: the single source of truth for reports and docs.
SEGMENT_KINDS: Dict[str, str] = {
    "service": "fault bookkeeping CPU (PTE/rmap updates, zero-fill "
               "setup, charge overhead)",
    "inflight_wait": "blocked behind another thread's in-flight fault "
                     "on the same page",
    "reclaim_run": "running direct reclaim (scan + cost of the policy "
                   "walk, children excluded)",
    "reclaim_wait": "queued behind another thread's direct reclaim",
    "memcg_run": "running charge-time cgroup reclaim against the "
                 "tenant's hard limit",
    "memcg_wait": "queued behind the cgroup's in-flight local reclaim",
    "evict_triage": "eviction triage CPU (victim selection and unmap "
                    "of a reclaim block)",
    "evict_writeback": "waiting on the eviction batch's swap write-back "
                       "(device time excluded)",
    "evict_wait": "waiting for a foreign in-flight eviction batch to "
                  "complete",
    "backoff": "zero-progress reclaim retry backoff sleep",
    "swap_read": "swap-in dilation remainder (CPU contention on zram; "
                 "~0 on SSD)",
    "swap_dev_queue": "swap device queue wait (behind earlier I/O on "
                      "the device slot)",
    "swap_dev_service": "swap device service time (the transfer "
                        "itself)",
    "zero_fill": "minor-fault zero-fill CPU",
}


class SpanTable:
    """Aggregated + sampled span data for one trial (picklable).

    All aggregate fields cover **every** fault; ``records`` holds the
    head-sampled subset of full span records.  ``merge`` is a plain
    sum, so merging per-worker tables in any order yields identical
    aggregates — the property the ``REPRO_JOBS`` pool identity tests
    pin.
    """

    __slots__ = (
        "n_faults",
        "n_major",
        "total_ns",
        "max_ns",
        "hist",
        "seg_ns",
        "seg_counts",
        "group_ns",
        "group_total_ns",
        "group_faults",
        "inst_ns",
        "daemon_ns",
        "top_k",
        "top_keys",
        "top_records",
        "records",
        "n_retained",
        "sample_every",
        "max_spans",
        "runtime_ns",
        "folded",
        "profile_samples",
    )

    def __init__(self, sample_every: int = 1, max_spans: int = 10_000,
                 top_k: int = 10) -> None:
        self.n_faults = 0
        self.n_major = 0
        self.total_ns = 0
        self.max_ns = 0
        #: log2 histogram of per-fault total latencies (64 buckets).
        self.hist = [0] * 64
        #: Exclusive nanoseconds per segment kind, summed over faults.
        self.seg_ns: Dict[str, int] = {}
        #: Faults in which each segment kind appeared at least once.
        self.seg_counts: Dict[str, int] = {}
        #: Per-group (tenant cgroup name) segment sums / totals.
        self.group_ns: Dict[str, Dict[str, int]] = {}
        self.group_total_ns: Dict[str, int] = {}
        self.group_faults: Dict[str, int] = {}
        #: kind -> instigator name -> exclusive ns charged to waits the
        #: instigator caused.
        self.inst_ns: Dict[str, Dict[str, int]] = {}
        #: Segment time spent on threads with no open fault root
        #: (kswapd's triage/write-back), by thread name then kind.
        self.daemon_ns: Dict[str, Dict[str, int]] = {}
        self.top_k = top_k
        #: Ascending sort keys for ``top_records`` (kept aligned).
        self.top_keys: List[Tuple[int, int, int]] = []
        self.top_records: List[Dict[str, Any]] = []
        #: Head-sampled full span records.
        self.records: List[Dict[str, Any]] = []
        self.n_retained = 0
        self.sample_every = sample_every
        self.max_spans = max_spans
        self.runtime_ns = 0
        #: Profiler folded stacks: "thread;state;..." -> sample count.
        self.folded: Dict[str, int] = {}
        #: Profiler samples for Perfetto export: (ts, thread, stack).
        self.profile_samples: List[Tuple[int, str, str]] = []

    # ------------------------------------------------------------------
    # Recording (called by SpanRecorder)
    # ------------------------------------------------------------------

    def record_fault(self, record: Dict[str, Any], sampled: bool) -> None:
        total = record["total_ns"]
        self.n_faults += 1
        if record["major"]:
            self.n_major += 1
        self.total_ns += total
        if total > self.max_ns:
            self.max_ns = total
        self.hist[min(total.bit_length(), 63)] += 1
        seg_ns = self.seg_ns
        seg_counts = self.seg_counts
        segs = record["segs"]
        group = record["group"]
        gsegs = self.group_ns.setdefault(group, {})
        for kind, ns in segs.items():
            seg_ns[kind] = seg_ns.get(kind, 0) + ns
            seg_counts[kind] = seg_counts.get(kind, 0) + 1
            gsegs[kind] = gsegs.get(kind, 0) + ns
        self.group_total_ns[group] = (
            self.group_total_ns.get(group, 0) + total
        )
        self.group_faults[group] = self.group_faults.get(group, 0) + 1
        inst = record["inst"]
        if inst:
            for kind, name in inst.items():
                by_name = self.inst_ns.setdefault(kind, {})
                by_name[name] = by_name.get(name, 0) + segs.get(kind, 0)
        key = (total, record["t0"], record["vpn"])
        keys = self.top_keys
        if len(keys) < self.top_k or key > keys[0]:
            i = bisect.bisect(keys, key)
            keys.insert(i, key)
            self.top_records.insert(i, record)
            if len(keys) > self.top_k:
                del keys[0]
                del self.top_records[0]
        if sampled and len(self.records) < self.max_spans:
            self.records.append(record)
            self.n_retained += 1

    def note_daemon(self, thread_name: str, kind: str, ns: int) -> None:
        by_kind = self.daemon_ns.setdefault(thread_name, {})
        by_kind[kind] = by_kind.get(kind, 0) + ns

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def percentile(self, q: float) -> int:
        """Approximate latency percentile (log2 bucket upper bound)."""
        target = self.n_faults * q / 100.0
        seen = 0
        for i, count in enumerate(self.hist):
            seen += count
            if seen >= target and count:
                return 1 << i
        return self.max_ns

    @property
    def n_dropped(self) -> int:
        """Faults whose full record was not retained (head-sampled
        out, or past the ``max_spans`` cap)."""
        return self.n_faults - self.n_retained

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------

    def merge(self, other: "SpanTable") -> None:
        """Fold *other* into self.  Aggregates are plain sums, so any
        merge order gives identical results; retained records and the
        top-K re-sort on their deterministic keys."""
        self.n_faults += other.n_faults
        self.n_major += other.n_major
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        for i, count in enumerate(other.hist):
            self.hist[i] += count
        for kind, ns in other.seg_ns.items():
            self.seg_ns[kind] = self.seg_ns.get(kind, 0) + ns
        for kind, count in other.seg_counts.items():
            self.seg_counts[kind] = self.seg_counts.get(kind, 0) + count
        for group, gsegs in other.group_ns.items():
            mine = self.group_ns.setdefault(group, {})
            for kind, ns in gsegs.items():
                mine[kind] = mine.get(kind, 0) + ns
        for group, ns in other.group_total_ns.items():
            self.group_total_ns[group] = (
                self.group_total_ns.get(group, 0) + ns
            )
        for group, n in other.group_faults.items():
            self.group_faults[group] = self.group_faults.get(group, 0) + n
        for kind, by_name in other.inst_ns.items():
            mine = self.inst_ns.setdefault(kind, {})
            for name, ns in by_name.items():
                mine[name] = mine.get(name, 0) + ns
        for thread, by_kind in other.daemon_ns.items():
            mine = self.daemon_ns.setdefault(thread, {})
            for kind, ns in by_kind.items():
                mine[kind] = mine.get(kind, 0) + ns
        pairs = sorted(
            zip(self.top_keys + other.top_keys,
                self.top_records + other.top_records),
            key=lambda kv: kv[0],
        )[-self.top_k:]
        self.top_keys = [k for k, _ in pairs]
        self.top_records = [r for _, r in pairs]
        merged = sorted(
            self.records + other.records,
            key=lambda r: (r.get("trial", ""), r["t0"], r["vpn"]),
        )
        self.records = merged[: self.max_spans]
        self.n_retained += other.n_retained
        self.runtime_ns = max(self.runtime_ns, other.runtime_ns)
        for stack, count in other.folded.items():
            self.folded[stack] = self.folded.get(stack, 0) + count
        self.profile_samples = sorted(
            self.profile_samples + other.profile_samples
        )

    def tag(self, trial: str) -> None:
        """Label retained/top records with a trial id before a
        cross-trial merge (keeps record sort keys globally unique)."""
        for record in self.records:
            record.setdefault("trial", trial)
        for record in self.top_records:
            record.setdefault("trial", trial)

    def top_spans(self) -> List[Dict[str, Any]]:
        """The top-K slowest spans, slowest first."""
        return list(reversed(self.top_records))

    def summary(self) -> Dict[str, Any]:
        """JSON-safe aggregate summary (what fleet rows embed)."""
        return {
            "n_faults": self.n_faults,
            "n_major": self.n_major,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
            "p50_ns": self.percentile(50),
            "p99_ns": self.percentile(99),
            "seg_ns": dict(sorted(self.seg_ns.items())),
            "seg_counts": dict(sorted(self.seg_counts.items())),
            "n_retained": self.n_retained,
            "top": [
                {k: v for k, v in record.items()}
                for record in self.top_spans()
            ],
        }

    def to_obj(self) -> Dict[str, Any]:
        """Full JSON-safe dump (round-trips via :meth:`from_obj`)."""
        return {
            "format": "repro.spans/v1",
            "n_faults": self.n_faults,
            "n_major": self.n_major,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
            "hist": list(self.hist),
            "seg_ns": dict(sorted(self.seg_ns.items())),
            "seg_counts": dict(sorted(self.seg_counts.items())),
            "group_ns": {
                g: dict(sorted(d.items()))
                for g, d in sorted(self.group_ns.items())
            },
            "group_total_ns": dict(sorted(self.group_total_ns.items())),
            "group_faults": dict(sorted(self.group_faults.items())),
            "inst_ns": {
                k: dict(sorted(d.items()))
                for k, d in sorted(self.inst_ns.items())
            },
            "daemon_ns": {
                t: dict(sorted(d.items()))
                for t, d in sorted(self.daemon_ns.items())
            },
            "top_k": self.top_k,
            "top_keys": [list(k) for k in self.top_keys],
            "top_records": self.top_records,
            "records": self.records,
            "n_retained": self.n_retained,
            "sample_every": self.sample_every,
            "max_spans": self.max_spans,
            "runtime_ns": self.runtime_ns,
            "folded": dict(sorted(self.folded.items())),
            "profile_samples": [list(s) for s in self.profile_samples],
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "SpanTable":
        table = cls(
            sample_every=obj["sample_every"],
            max_spans=obj["max_spans"],
            top_k=obj["top_k"],
        )
        table.n_faults = obj["n_faults"]
        table.n_major = obj["n_major"]
        table.total_ns = obj["total_ns"]
        table.max_ns = obj["max_ns"]
        table.hist = list(obj["hist"])
        table.seg_ns = dict(obj["seg_ns"])
        table.seg_counts = dict(obj["seg_counts"])
        table.group_ns = {g: dict(d) for g, d in obj["group_ns"].items()}
        table.group_total_ns = dict(obj["group_total_ns"])
        table.group_faults = dict(obj["group_faults"])
        table.inst_ns = {k: dict(d) for k, d in obj["inst_ns"].items()}
        table.daemon_ns = {
            t: dict(d) for t, d in obj["daemon_ns"].items()
        }
        table.top_keys = [tuple(k) for k in obj["top_keys"]]
        table.top_records = list(obj["top_records"])
        table.records = list(obj["records"])
        table.n_retained = obj["n_retained"]
        table.runtime_ns = obj["runtime_ns"]
        table.folded = dict(obj["folded"])
        table.profile_samples = [
            (int(t), str(n), str(s)) for t, n, s in obj["profile_samples"]
        ]
        return table


def _name(thread: Any) -> str:
    return thread.name if thread is not None else "?"


class SpanRecorder:
    """Live span recording for one trial, fed by the observer bus.

    :meth:`install` attaches its probes to the fault, wait and
    device-split events; :meth:`detach` (trial teardown) removes them.
    The recorder mutates no sim object.
    """

    def __init__(self, engine: Any,
                 config: Optional[SpansConfig] = None) -> None:
        self.engine = engine
        self.config = config or SpansConfig()
        self.table = SpanTable(
            sample_every=self.config.sample_every,
            max_spans=self.config.max_spans,
            top_k=self.config.top_k,
        )
        self._system: Any = None
        #: thread -> open bracket-frame stack.
        self._stacks: Dict[Any, List[list]] = {}
        #: thread -> handle_fault nesting depth (the blocked-behind-
        #: inflight retry recursion re-enters; only the outermost call
        #: opens/closes the root span).
        self._fault_depth: Dict[Any, int] = {}
        #: page -> thread servicing its in-flight fault.
        self._fault_owner: Dict[Any, Any] = {}
        #: Name of the last thread to open an ``evict_writeback`` wait,
        #: and how many such waits are open (in-flight batches).
        self._eviction_instigator: Optional[str] = None
        self._n_writebacks = 0
        #: Name of the thread inside ``reclaim_run`` (serialized).
        self._reclaim_instigator: Optional[str] = None
        self._fault_index = 0
        self._n_profile = 0
        self._probes = (
            ("fault_begin", self.fault_begin),
            ("fault_end", self.fault_end),
            ("wait_begin", self._on_wait_begin),
            ("wait_end", self._on_wait_end),
            ("swap_io_submit", self.note_device),
        )

    def install(self, system: Any) -> None:
        """Attach to the observer bus for *system*'s trial before the
        engine runs (the profiler samples ``system.cpu``)."""
        self._system = system
        for name, probe in self._probes:
            _tp.attach(name, probe)

    def detach(self) -> None:
        """Detach from the observer bus (idempotent; trial teardown)."""
        for name, probe in self._probes:
            _tp.detach(name, probe)

    # ------------------------------------------------------------------
    # Fault roots
    # ------------------------------------------------------------------

    def fault_begin(self, page: Any) -> None:
        """Open a root span for the current thread's demand fault.
        Re-entrant: the inflight-wait retry recursion only deepens the
        per-thread fault depth.

        The first thread to fault on an unowned *page* owns it until
        its ``fault_end``: it either finds the page present and returns
        without yielding, or services the fault while every later
        arrival waits behind it."""
        thread = self.engine.current_thread
        owners = self._fault_owner
        if page not in owners:
            owners[page] = thread
        depth = self._fault_depth.get(thread, 0)
        self._fault_depth[thread] = depth + 1
        if depth:
            return
        cg = page.memcg
        frame = [
            ROOT_KIND,
            self.engine._now,
            0,
            None,
            {},  # segs
            {},  # instigators
            page.vpn,
            cg.name if cg is not None else "system",
            _name(thread),
        ]
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
        stack.append(frame)

    def fault_end(self, page: Any) -> None:
        """Close the fault root (outermost re-entry only); charge the
        residual to ``service`` and fold the record into the table.
        Whether the fault was major is read off the span itself: only
        the major path opens a ``swap_read`` segment."""
        engine = self.engine
        thread = engine.current_thread
        if self._fault_owner.get(page) is thread:
            del self._fault_owner[page]
        depth = self._fault_depth.get(thread, 1) - 1
        if depth > 0:
            self._fault_depth[thread] = depth
            return
        self._fault_depth.pop(thread, None)
        stack = self._stacks.get(thread)
        if not stack or stack[-1][_KIND] != ROOT_KIND:
            return
        frame = stack.pop()
        if not stack:
            # Keep ``_stacks`` holding only threads with open frames:
            # the profiler iterates it every sample.
            del self._stacks[thread]
        total = engine._now - frame[_START]
        segs = frame[_SEGS]
        residual = total - frame[_CHILD]
        if residual:
            segs[SERVICE_SEG] = segs.get(SERVICE_SEG, 0) + residual
        record = {
            "t0": frame[_START],
            "total_ns": total,
            "vpn": frame[_VPN],
            "major": "swap_read" in segs,
            "group": frame[_GROUP],
            "thread": frame[_THREAD],
            "segs": segs,
            "inst": frame[_INSTS],
        }
        idx = self._fault_index
        self._fault_index += 1
        sampled = idx % self.config.sample_every == 0
        self.table.record_fault(record, sampled)

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------

    def _on_wait_begin(self, kind: str, memcg: Any, memstall: bool,
                       subject: Any) -> None:
        """Open a child segment on the current thread's stack, naming
        the instigator of a wait on another thread's work."""
        thread = self.engine.current_thread
        inst = None
        if kind == "inflight_wait":
            owner = self._fault_owner.get(subject)
            inst = _name(owner) if owner is not None else None
        elif kind == "reclaim_wait":
            inst = self._reclaim_instigator
        elif kind == "evict_wait":
            inst = self._eviction_instigator
        elif kind == "memcg_wait":
            inst = memcg.name
        elif kind == "reclaim_run":
            self._reclaim_instigator = _name(thread)
        elif kind == "evict_writeback":
            self._eviction_instigator = _name(thread)
            self._n_writebacks += 1
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
        stack.append([kind, self.engine._now, 0, inst])

    def _on_wait_end(self, kind: str, memcg: Any, memstall: bool) -> None:
        """Close the innermost open segment; charge its exclusive time
        to the enclosing fault root (or the thread's daemon bucket)."""
        if kind == "reclaim_run":
            self._reclaim_instigator = None
        elif kind == "evict_writeback":
            self._n_writebacks -= 1
            if not self._n_writebacks:
                self._eviction_instigator = None
        engine = self.engine
        thread = engine.current_thread
        stack = self._stacks.get(thread)
        if not stack:
            return
        kind, start, child, inst = stack.pop()
        elapsed = engine._now - start
        exclusive = elapsed - child
        if stack:
            stack[-1][_CHILD] += elapsed
            root = stack[0]
            if root[_KIND] == ROOT_KIND:
                segs = root[_SEGS]
                segs[kind] = segs.get(kind, 0) + exclusive
                if inst is not None:
                    root[_INSTS][kind] = inst
                return
        else:
            del self._stacks[thread]
        self.table.note_daemon(_name(thread), kind, exclusive)

    def note_device(self, queue_ns: int, service_ns: int) -> None:
        """Exact device-time split, emitted by the swap device *before*
        it sleeps: the enclosing frame's exclusive remainder becomes
        pure CPU-contention dilation."""
        thread = self.engine.current_thread
        stack = self._stacks.get(thread)
        if not stack:
            return
        stack[-1][_CHILD] += queue_ns + service_ns
        root = stack[0]
        if root[_KIND] == ROOT_KIND:
            segs = root[_SEGS]
            if queue_ns:
                segs["swap_dev_queue"] = (
                    segs.get("swap_dev_queue", 0) + queue_ns
                )
            if service_ns:
                segs["swap_dev_service"] = (
                    segs.get("swap_dev_service", 0) + service_ns
                )
        else:
            name = _name(thread)
            if queue_ns:
                self.table.note_daemon(name, "swap_dev_queue", queue_ns)
            if service_ns:
                self.table.note_daemon(
                    name, "swap_dev_service", service_ns
                )

    # ------------------------------------------------------------------
    # Sim-time profiler
    # ------------------------------------------------------------------

    def run_profiler(self):
        """Daemon generator: perf-style sampling over thread states."""
        interval = self.config.profile_interval_ns
        while self._n_profile < self.config.max_profile_samples:
            yield Sleep(interval)
            self._sample_profile()

    def _sample_profile(self) -> None:
        """Pull-model sample: read the CPU's in-flight job heap for
        on-CPU threads (no per-submit hook on the hot path) and the
        open bracket stacks for blocked ones."""
        self._n_profile += 1
        now = self.engine._now
        cpu = self._system.cpu
        dilated = cpu.n_runnable > cpu.n_cpus
        state = "compute-dilated" if dilated else "compute"
        folded = self.table.folded
        samples = self.table.profile_samples
        cap = 4 * self.config.max_profile_samples
        # Each sim thread suspends on its outstanding Compute, so the
        # heap holds at most one entry per thread.  Iterate in heap
        # order (deterministic), not set order (id-dependent).
        on_cpu: List[Any] = []
        seen = set()
        for entry in cpu._heap:
            t = entry[2]
            if t not in seen:
                seen.add(t)
                on_cpu.append(t)
        for thread in on_cpu:
            stack = self._stacks.get(thread)
            parts = [thread.name]
            if stack:
                parts.extend(frame[_KIND] for frame in stack)
            parts.append(state)
            key = ";".join(parts)
            folded[key] = folded.get(key, 0) + 1
            if len(samples) < cap:
                samples.append((now, thread.name, key))
        for thread, stack in self._stacks.items():
            if thread in seen:
                continue
            parts = [thread.name]
            parts.extend(frame[_KIND] for frame in stack)
            key = ";".join(parts)
            folded[key] = folded.get(key, 0) + 1
            if len(samples) < cap:
                samples.append((now, thread.name, key))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def finalize(self, runtime_ns: int) -> SpanTable:
        """Stamp the trial runtime and return the finished table."""
        self.table.runtime_ns = runtime_ns
        return self.table
