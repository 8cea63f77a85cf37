"""One memory control group: charge ledger, limits, private lruvec.

The model follows the kernel's memcg v2 semantics at page granularity:

- **limit** (``memory.max``): a hard ceiling.  A fault that would charge
  past it first reclaims from *this* cgroup's own policy lists — the
  charge-time ``try_charge`` loop — so an overcommitted tenant pays its
  own reclaim latency.  If local reclaim makes no progress the charge is
  allowed through anyway and counted as a ``limit_breach`` (the trial
  keeps running; an OOM-kill would end the fleet scenario the breach is
  there to measure).
- **soft_limit** (``memory.soft_limit_in_bytes``): no charge-time
  effect; cgroups above it are the *preferred* targets of global
  reclaim (pass 0 of :meth:`~repro.memcg.policy.MemcgPolicy.reclaim`).
- **low / min protection** (``memory.low`` / ``memory.min``): global
  reclaim takes from unprotected usage first, digs below ``low`` only
  when the unprotected passes cannot satisfy the request, and below
  ``min`` only as the final anti-deadlock resort.

Charging is a plain counter mutation — never a yield point.  The fault
path charges immediately after the frame grant (same event) and
uncharges inside ``_finish_eviction`` (the same instant the frame
returns to the allocator), so ``sum(usage) == frames.n_used`` holds at
every event boundary once every mapped page carries a cgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro._units import US
from repro.errors import ConfigError, SimulationError
from repro.sim.events import OneShotEvent, Sleep, WaitEvent
from repro.trace import tracepoints as _tp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.mm.address_space import AddressSpace, VMArea
    from repro.mm.system import MemorySystem
    from repro.policies.base import ReplacementPolicy

#: Pages reclaimed per charge-time local reclaim round (the kernel
#: reclaims in SWAP_CLUSTER_MAX batches here too).
LOCAL_RECLAIM_BATCH = 32
#: Zero-progress local-reclaim rounds before the charge is let through
#: as a limit breach instead of deadlocking the faulting thread.
MAX_LOCAL_RECLAIM_RETRIES = 16


@dataclass
class MemCgroupStats:
    """Per-cgroup counters the fleet report surfaces."""

    #: Pages reclaimed from this cgroup by charge-time (own-limit) reclaim.
    local_reclaims: int = 0
    #: Charges admitted past the hard limit after local reclaim stalled.
    limit_breaches: int = 0
    #: Pages taken from this cgroup by *global* reclaim rounds.
    stolen_from: int = 0
    #: Pages global reclaim took from *other* cgroups while this cgroup's
    #: fault was the direct-reclaim requester.
    stolen_by: int = 0
    #: High-water mark of the charge ledger.
    peak_usage_pages: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "local_reclaims": self.local_reclaims,
            "limit_breaches": self.limit_breaches,
            "stolen_from": self.stolen_from,
            "stolen_by": self.stolen_by,
            "peak_usage_pages": self.peak_usage_pages,
        }


@dataclass
class MemCgroup:
    """One tenant's memory cgroup: ledger + limits + private policy.

    All limits are in *pages* (``None`` disables the knob); construct
    from byte values with :meth:`from_bytes`.  ``policy`` is this
    cgroup's private lruvec — a fresh
    :class:`~repro.policies.base.ReplacementPolicy` instance owned
    exclusively by this cgroup and driven through the
    :class:`~repro.memcg.policy.MemcgPolicy` root.
    """

    name: str
    policy: "ReplacementPolicy"
    limit_pages: Optional[int] = None
    soft_limit_pages: Optional[int] = None
    low_pages: int = 0
    min_pages: int = 0
    #: Position in the root policy's cgroup list (set by MemcgPolicy).
    index: int = 0
    usage_pages: int = 0
    stats: MemCgroupStats = field(default_factory=MemCgroupStats)

    def __post_init__(self) -> None:
        if self.limit_pages is not None and self.limit_pages < 1:
            raise ConfigError(f"cgroup {self.name!r}: limit must be >= 1 page")
        if self.soft_limit_pages is not None and self.soft_limit_pages < 0:
            raise ConfigError(f"cgroup {self.name!r}: soft limit < 0")
        if self.min_pages < 0 or self.low_pages < 0:
            raise ConfigError(f"cgroup {self.name!r}: protection < 0")
        if self.min_pages > self.low_pages and self.low_pages:
            # memcg v2 clamps: min is the inner, stronger ring.
            raise ConfigError(
                f"cgroup {self.name!r}: min ({self.min_pages}) exceeds "
                f"low ({self.low_pages})"
            )
        #: VMAs owned by this cgroup (region-aligned, so page-table
        #: regions never straddle two cgroups).
        self.vmas: List["VMArea"] = []
        #: Cached region list for the MG-LRU aging walker (built lazily;
        #: regions are fixed once the fleet's areas are mapped).
        self._regions: Optional[list] = None
        # Charge-time local reclaim is serialized per cgroup, exactly
        # like the system's global direct reclaim: one faulting thread
        # walks this cgroup's lists per round, later arrivals wait for
        # the round and re-check the ledger.
        self._local_reclaim_active = False
        self._local_reclaim_done = OneShotEvent("memcg-local-reclaim")

    @classmethod
    def from_bytes(
        cls,
        name: str,
        policy: "ReplacementPolicy",
        page_size: int,
        limit_bytes: Optional[int] = None,
        soft_limit_bytes: Optional[int] = None,
        low_bytes: int = 0,
        min_bytes: int = 0,
    ) -> "MemCgroup":
        """Construct with byte-denominated knobs (rounded down to pages,
        hard limit floor 1 page)."""

        def pages(b: Optional[int]) -> Optional[int]:
            return None if b is None else int(b) // page_size

        limit = pages(limit_bytes)
        if limit is not None:
            limit = max(1, limit)
        return cls(
            name=name,
            policy=policy,
            limit_pages=limit,
            soft_limit_pages=pages(soft_limit_bytes),
            low_pages=int(low_bytes) // page_size,
            min_pages=int(min_bytes) // page_size,
        )

    # ------------------------------------------------------------------
    # Charge ledger
    # ------------------------------------------------------------------

    def charge(self, n_pages: int = 1) -> None:
        """Account *n_pages* newly resident pages to this cgroup."""
        self.usage_pages += n_pages
        if self.usage_pages > self.stats.peak_usage_pages:
            self.stats.peak_usage_pages = self.usage_pages

    def uncharge(self, n_pages: int = 1) -> None:
        """Release *n_pages* from the ledger; going negative is a bug."""
        self.usage_pages -= n_pages
        if self.usage_pages < 0:
            raise SimulationError(
                f"cgroup {self.name!r} usage went negative "
                f"({self.usage_pages} after uncharge of {n_pages})"
            )

    # ------------------------------------------------------------------
    # Protection arithmetic (read by the proportional reclaimer)
    # ------------------------------------------------------------------

    def excess_over_soft(self) -> int:
        """Pages above the soft limit (0 when unset or under it)."""
        if self.soft_limit_pages is None:
            return 0
        return max(0, self.usage_pages - self.soft_limit_pages)

    def excess_over_low(self) -> int:
        """Unprotected pages: usage above ``low`` (and ``min``)."""
        return max(0, self.usage_pages - max(self.low_pages, self.min_pages))

    def excess_over_min(self) -> int:
        """Pages above the hard ``min`` ring."""
        return max(0, self.usage_pages - self.min_pages)

    # ------------------------------------------------------------------
    # Charge-time local reclaim (the try_charge loop)
    # ------------------------------------------------------------------

    def reclaim_to_limit(self, system: "MemorySystem") -> Iterator[Any]:
        """Generator: make room under the hard limit for one charge.

        Serialized per cgroup.  Zero-progress rounds back off on the
        next eviction-batch completion (frames detached into in-flight
        writeback come back there) or a short sleep, and after
        :data:`MAX_LOCAL_RECLAIM_RETRIES` dry rounds the charge is
        admitted as a recorded breach rather than wedging the tenant.

        Every wait here is a charge-time memstall on this cgroup (kernel
        psi_memstall_enter around try_to_free_mem_cgroup_pages), entered
        only when the charge actually has to reclaim; nothing yields
        between the waits.
        """
        limit = self.limit_pages
        if limit is None:
            return
        retries = 0
        while self.usage_pages + 1 > limit:
            if self._local_reclaim_active:
                kind = "memcg_wait"
                command = WaitEvent(self._local_reclaim_done)
            else:
                self._local_reclaim_active = True
                if _tp.wait_begin is not None:
                    _tp.wait_begin("memcg_run", self, True, None)
                try:
                    want = min(
                        LOCAL_RECLAIM_BATCH, self.usage_pages + 1 - limit
                    )
                    reclaimed = yield from self.policy.reclaim(
                        max(1, want), direct=True
                    )
                finally:
                    self._local_reclaim_active = False
                    done = self._local_reclaim_done
                    self._local_reclaim_done = OneShotEvent(
                        "memcg-local-reclaim"
                    )
                    done.fire()
                if _tp.wait_end is not None:
                    _tp.wait_end("memcg_run", self, True)
                self.stats.local_reclaims += reclaimed
                if reclaimed:
                    retries = 0
                    continue
                retries += 1
                if retries >= MAX_LOCAL_RECLAIM_RETRIES:
                    self.stats.limit_breaches += 1
                    break
                if system._evictions_in_flight:
                    kind = "evict_wait"
                    command = WaitEvent(system._eviction_batch_done)
                else:
                    kind = "backoff"
                    command = Sleep(100 * US)
            if _tp.wait_begin is not None:
                _tp.wait_begin(kind, self, True, None)
            yield command
            if _tp.wait_end is not None:
                _tp.wait_end(kind, self, True)

    # ------------------------------------------------------------------
    # Page ownership
    # ------------------------------------------------------------------

    def adopt_area(
        self,
        vma: "VMArea",
        address_space: "AddressSpace",
        tag_pages: bool = True,
    ) -> None:
        """Tag every page of *vma* as owned by this cgroup.

        ``tag_pages=False`` only records the span — for callers that
        already stamped ``page.memcg`` at page creation (``map_area``
        with a ``memcg=``), skipping the second per-page pass.
        """
        self.vmas.append(vma)
        self._regions = None
        if not tag_pages:
            return
        table = address_space.page_table
        for vpn in range(vma.start_vpn, vma.end_vpn):
            table.lookup(vpn).memcg = self

    def adopt(self, address_space: "AddressSpace") -> None:
        """Tag every mapped page of *address_space* (solo-tenant mode)."""
        for vma in address_space.vmas:
            self.adopt_area(vma, address_space)

    def regions(self, address_space: "AddressSpace") -> list:
        """This cgroup's leaf page-table regions, in address order.

        Because areas are region-aligned, a region never straddles two
        cgroups; the list is cached after the first build (the layout is
        fixed once setup completes).
        """
        if self._regions is None:
            table = address_space.page_table
            regions: list = []
            for lo, hi in sorted(
                (v.start_vpn, v.end_vpn) for v in self.vmas
            ):
                regions.extend(table.regions_in_range(lo, hi))
            self._regions = regions
        return self._regions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemCgroup {self.name} usage={self.usage_pages}"
            f" limit={self.limit_pages}>"
        )
