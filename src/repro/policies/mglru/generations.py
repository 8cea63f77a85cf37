"""Generation lists: MG-LRU's replacement for active/inactive (§III-A).

Pages live on one of up to ``max_nr_gens`` generation lists, identified
by an absolute, monotonically increasing *sequence number*.  ``min_seq``
is the oldest generation (the eviction walker's hunting ground);
``max_seq`` is the youngest (where accessed pages are promoted).  Both
only ever increase.

Two facts the paper leans on are embedded here:

- moving a page between generations is O(1) (intrusive-list splice), so
  a huge ``max_nr_gens`` (*Gen-14*) "adds negligible overhead" (§V-B);
- when ``max_seq - min_seq + 1`` hits ``max_nr_gens``, aging *cannot*
  create a new youngest generation, so consecutive walks pile pages into
  the same generation and recency resolution degrades — the saturation
  behaviour that motivates *Gen-14*.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError
from repro.mm.intrusive_list import IntrusiveList
from repro.mm.page import Page
from repro.trace import tracepoints as _tp


class GenerationLists:
    """The set of generation lists plus the min/max sequence counters."""

    def __init__(self, max_nr_gens: int) -> None:
        if max_nr_gens < 2:
            raise SimulationError("need at least 2 generations")
        self.max_nr_gens = max_nr_gens
        self.min_seq = 0
        self.max_seq = 0
        self._lists: Dict[int, IntrusiveList] = {0: IntrusiveList("gen-0")}
        #: Lifetime count of max_seq increments.
        self.aging_events = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nr_gens(self) -> int:
        """Live generation count (``max_seq - min_seq + 1``)."""
        return self.max_seq - self.min_seq + 1

    @property
    def can_inc_max_seq(self) -> bool:
        """True when a new youngest generation may still be created."""
        return self.nr_gens < self.max_nr_gens

    def list_for(self, seq: int) -> IntrusiveList:
        """The list of generation *seq* (must be within [min, max])."""
        if not self.min_seq <= seq <= self.max_seq:
            raise SimulationError(
                f"generation {seq} outside [{self.min_seq}, {self.max_seq}]"
            )
        lst = self._lists.get(seq)
        if lst is None:
            lst = IntrusiveList(f"gen-{seq}")
            self._lists[seq] = lst
        return lst

    def total_pages(self) -> int:
        """Pages across all generations."""
        return sum(len(lst) for lst in self._lists.values())

    def gen_sizes(self) -> Dict[int, int]:
        """Mapping seq → page count, for diagnostics."""
        return {
            seq: len(self._lists[seq])
            for seq in range(self.min_seq, self.max_seq + 1)
            if seq in self._lists and len(self._lists[seq])
        }

    # ------------------------------------------------------------------
    # Aging
    # ------------------------------------------------------------------

    def inc_max_seq(self) -> bool:
        """Create a new youngest generation; False if at the cap."""
        if not self.can_inc_max_seq:
            return False
        self.max_seq += 1
        self.aging_events += 1
        if _tp.mglru_gen_step is not None:
            _tp.mglru_gen_step(self.min_seq, self.max_seq, True)
        return True

    def try_advance_min_seq(self) -> bool:
        """Advance ``min_seq`` past an empty oldest generation."""
        if self.min_seq >= self.max_seq:
            return False
        lst = self._lists.get(self.min_seq)
        if lst is not None and len(lst):
            return False
        self._lists.pop(self.min_seq, None)
        self.min_seq += 1
        if _tp.mglru_gen_step is not None:
            _tp.mglru_gen_step(self.min_seq, self.max_seq, False)
        return True

    # ------------------------------------------------------------------
    # Page movement (all O(1))
    # ------------------------------------------------------------------

    def insert(self, page: Page, seq: int) -> None:
        """Put an unlisted page at the head of generation *seq*.

        :meth:`list_for` is inlined — insert runs once per fault and
        once per walk promotion, and the extra call was measurable.
        """
        if not self.min_seq <= seq <= self.max_seq:
            raise SimulationError(
                f"generation {seq} outside [{self.min_seq}, {self.max_seq}]"
            )
        page.gen_seq = seq
        lst = self._lists.get(seq)
        if lst is None:
            lst = IntrusiveList(f"gen-{seq}")
            self._lists[seq] = lst
        lst.push_head(page)

    def remove(self, page: Page) -> None:
        """Detach *page* from its current generation list."""
        owner = page._ilist_owner
        if owner is None:
            raise SimulationError(f"page vpn={page.vpn} is not listed")
        owner.remove(page)

    def promote(self, page: Page, seq: Optional[int] = None) -> None:
        """Move *page* to generation *seq* (default: the youngest)."""
        target = self.max_seq if seq is None else seq
        if page._ilist_owner is not None:
            page._ilist_owner.remove(page)
        self.insert(page, target)

    def pop_oldest(self) -> Optional[Page]:
        """Detach and return the tail of the oldest non-empty generation,
        advancing ``min_seq`` over empty ones.  ``None`` when everything
        is empty."""
        while True:
            lst = self._lists.get(self.min_seq)
            if lst is not None and len(lst):
                return lst.pop_tail()
            if not self.try_advance_min_seq():
                return None
