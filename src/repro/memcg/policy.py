"""The memcg root policy: per-cgroup lruvecs behind one policy API.

:class:`MemcgPolicy` is what the :class:`~repro.mm.system.MemorySystem`
binds when a trial runs multi-tenant.  It owns one private
:class:`~repro.policies.base.ReplacementPolicy` instance per cgroup (the
per-cgroup lruvec) and routes every notification by page ownership:

- ``on_page_inserted`` / ``make_shadow`` dispatch to
  ``page.memcg.policy`` — the page's own lruvec sees exactly the calls
  it would see running standalone;
- ``on_batch_access`` is two fancy-indexed PTE-bit stores.  Every
  registered policy's batched access hook is exactly that (their
  ordering work happens at scan/fault time), so the root needs no
  per-cgroup fan-out on the access hot path.  A future policy whose
  batch hook does more than set PTE bits must not be run under memcg
  without extending this root.
- ``reclaim`` delegates *verbatim* to the single lruvec when only one
  cgroup exists (the solo-tenant bit-identity case), and otherwise runs
  the proportional global reclaimer below.

**Proportional reclaim.**  A global round distributes its page target
over cgroups in protection passes, each weighting a cgroup by its
excess over the ring that pass respects:

0. excess over the *soft limit* (only cgroups past their soft limit);
1. excess over *low* protection (the normal case);
2. excess over *min* (dig into low-protected usage when the request is
   not yet satisfied — the kernel's ``memory.low`` best-effort);
3. raw usage above zero (anti-deadlock last resort: overcommitted
   protection is breached rather than declaring OOM while pages exist).

Within a pass the target is apportioned by largest remainder (exact,
deterministic, index-order tie-break), and each share is driven through
the owning cgroup's own ``policy.reclaim`` — the same triage-block
eviction path a standalone trial uses, now per lruvec.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Any, Iterator, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigError, SimulationError
from repro.mm.swap_cache import ShadowEntry
from repro.policies.base import ReplacementPolicy
from repro.trace import tracepoints as _tp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.memcg.cgroup import MemCgroup
    from repro.mm.page import Page
    from repro.mm.system import MemorySystem


def apportion(total: int, weights: Sequence[int]) -> List[int]:
    """Split *total* over *weights* by largest remainder.

    Exact (shares sum to ``min(total, 0 if no weight else total)``),
    deterministic (ties break toward the lower index), and integral.
    Zero-weight entries get zero.
    """
    w_sum = sum(weights)
    if w_sum <= 0 or total <= 0:
        return [0] * len(weights)
    scaled = [total * w for w in weights]
    shares = [s // w_sum for s in scaled]
    remainder = total - sum(shares)
    if remainder:
        # Largest fractional part first; the sort is stable under
        # ``reverse``, so ties keep index order.
        fracs = [s % w_sum for s in scaled]
        order = sorted(range(len(fracs)), key=fracs.__getitem__, reverse=True)
        for i in order[:remainder]:
            if weights[i] > 0:
                shares[i] += 1
    return shares


#: Per-pass weights: each is one method call per cgroup.
_weigh_soft = methodcaller("excess_over_soft")
_weigh_low = methodcaller("excess_over_low")
_weigh_min = methodcaller("excess_over_min")


def _weigh_usage(cg: "MemCgroup") -> int:
    return max(0, cg.usage_pages)


class MemcgPolicy(ReplacementPolicy):
    """Root policy multiplexing per-cgroup replacement policies."""

    name = "memcg"

    def __init__(self, cgroups: Sequence["MemCgroup"]) -> None:
        super().__init__()
        if not cgroups:
            raise ConfigError("MemcgPolicy needs at least one cgroup")
        self.cgroups: List["MemCgroup"] = list(cgroups)
        names = set()
        for i, cg in enumerate(self.cgroups):
            cg.index = i
            if cg.name in names:
                raise ConfigError(f"duplicate cgroup name {cg.name!r}")
            names.add(cg.name)
        self.name = f"memcg[{len(self.cgroups)}]"
        # Soft limits are fixed at construction (the fleet sets them
        # from config ratios); with none set, every soft pass would
        # weigh all-zero and apportion nothing — skip it wholesale.
        self._any_soft_limit = any(
            cg.soft_limit_pages is not None for cg in self.cgroups
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, system: "MemorySystem") -> None:
        super().bind(system)
        multi = len(self.cgroups) > 1
        for i, cg in enumerate(self.cgroups):
            if multi:
                # Distinct named RNG streams per lruvec (mglru scan-rand,
                # random picks); the solo case keeps the unscoped path so
                # a wrapped trial replays a plain trial's draws exactly.
                cg.policy.rng_scope = i
            cg.policy.bind(system)

    def spawn_daemons(self) -> None:
        for cg in self.cgroups:
            cg.policy.spawn_daemons()

    # ------------------------------------------------------------------
    # Hot-path notifications
    # ------------------------------------------------------------------

    def on_page_inserted(
        self, page: "Page", shadow: Optional[ShadowEntry]
    ) -> None:
        cg = page.memcg
        if cg is None:
            raise SimulationError(
                f"page vpn={page.vpn} faulted without a cgroup under "
                "MemcgPolicy (map the area with memcg= or adopt() it)"
            )
        cg.policy.on_page_inserted(page, shadow)

    def on_batch_access(self, flat, idx, write: bool) -> None:
        # Every per-cgroup policy's batched bookkeeping is exactly the
        # PTE-bit stores (see module docstring), so one pair of
        # fancy-indexed writes covers all lruvecs at once.
        flat.accessed[idx] = True
        if write:
            flat.dirty[idx] = True

    def make_shadow(self, page: "Page") -> ShadowEntry:
        return page.memcg.policy.make_shadow(page)

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    def reclaim(self, nr_pages: int, direct: bool) -> Iterator[Any]:
        cgroups = self.cgroups
        if len(cgroups) == 1:
            # Solo tenant: delegate verbatim — identical generator
            # stream, so a wrapped trial is bit-identical to a plain one.
            result = yield from cgroups[0].policy.reclaim(nr_pages, direct)
            return result
        system = self.system
        assert system is not None
        requester: Optional["MemCgroup"] = getattr(
            system, "_reclaim_requester", None
        )
        total = 0
        passes = (
            (_weigh_soft, _weigh_low, _weigh_min, _weigh_usage)
            if self._any_soft_limit
            else (_weigh_low, _weigh_min, _weigh_usage)
        )
        for weigh in passes:
            remaining = nr_pages - total
            if remaining <= 0:
                break
            weights = [weigh(cg) for cg in cgroups]
            shares = apportion(remaining, weights)
            for cg, share in zip(cgroups, shares):
                if share <= 0:
                    continue
                got = yield from cg.policy.reclaim(share, direct)
                if got:
                    total += got
                    cg.stats.stolen_from += got
                    if requester is not None and requester is not cg:
                        requester.stats.stolen_by += got
                        if _tp.memcg_steal is not None:
                            _tp.memcg_steal(requester.index, cg.index, got)
        return total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        return sum(cg.policy.resident_count() for cg in self.cgroups)

    def describe(self) -> str:
        inner = self.cgroups[0].policy.name if self.cgroups else "?"
        return f"memcg({len(self.cgroups)} x {inner})"


def audit_usage(system: "MemorySystem") -> None:
    """Assert the charge ledger matches the frame allocator.

    With every mapped page owned by a cgroup, the sum of per-cgroup
    usage must equal the global count of allocated frames at any event
    boundary (charges land in the same event as the frame grant,
    uncharges in the same event as the frame free).  Raises
    :class:`~repro.errors.SimulationError` on drift.
    """
    policy = system.policy
    if not isinstance(policy, MemcgPolicy):
        raise ConfigError("audit_usage needs a MemcgPolicy-bound system")
    charged = sum(cg.usage_pages for cg in policy.cgroups)
    used = system.frames.n_used
    if charged != used:
        detail = ", ".join(
            f"{cg.name}={cg.usage_pages}" for cg in policy.cgroups
        )
        raise SimulationError(
            f"memcg ledger drift: sum(usage)={charged} != "
            f"frames.n_used={used} ({detail})"
        )
