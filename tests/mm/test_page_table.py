"""Page table: region layout, lookups, scan order, flat-view memo."""

import gc

import numpy as np
import pytest

from repro._units import PTES_PER_REGION
from repro.errors import SimulationError
from repro.mm.page import Page
from repro.mm.page_table import PageTable, PageTableRegion


class TestRegion:
    def test_region_covers_contiguous_vpns(self):
        region = PageTableRegion(2)
        assert region.start_vpn == 2 * PTES_PER_REGION
        assert region.n_ptes == PTES_PER_REGION

    def test_add_out_of_range_rejected(self):
        region = PageTableRegion(0)
        with pytest.raises(SimulationError):
            region.add(Page(PTES_PER_REGION))

    def test_double_map_rejected(self):
        region = PageTableRegion(0)
        region.add(Page(3))
        with pytest.raises(SimulationError):
            region.add(Page(3))

    def test_resident_pages_filters_absent(self):
        region = PageTableRegion(0)
        a, b = Page(0), Page(1)
        region.add(a)
        region.add(b)
        a.present = True
        assert list(region.resident_pages()) == [a]


class TestPageTable:
    def test_map_and_lookup(self):
        table = PageTable()
        page = Page(7)
        table.map_page(page)
        assert table.lookup(7) is page
        assert page.region is not None
        assert page.region.index == 7 // PTES_PER_REGION

    def test_lookup_unmapped_raises(self):
        with pytest.raises(SimulationError):
            PageTable().lookup(0)

    def test_get_returns_none_for_unmapped(self):
        assert PageTable().get(5) is None

    def test_lookup_many_matches_lookup_without_a_flat_view(self):
        table = PageTable()
        for vpn in (3, 4, 900):
            table.map_page(Page(vpn))
        vpns = np.array([900, 3, 3, 4], dtype=np.int64)
        pages = table.lookup_many(vpns)
        assert pages == [table.lookup(v) for v in vpns.tolist()]
        assert table.lookup_many([4]) == [table.lookup(4)]
        # Mirror builds are traced, so a dict lookup must not make one.
        assert table._flat is None

    def test_lookup_many_unmapped_raises(self):
        table = PageTable()
        table.map_page(Page(1))
        with pytest.raises(SimulationError, match="unmapped vpn 2"):
            table.lookup_many(np.array([1, 2]))

    def test_double_map_rejected(self):
        table = PageTable()
        table.map_page(Page(1))
        with pytest.raises(SimulationError):
            table.map_page(Page(1))

    def test_regions_in_address_order(self):
        table = PageTable()
        # Map pages in two non-adjacent regions, out of order.
        table.map_page(Page(5 * PTES_PER_REGION))
        table.map_page(Page(0))
        indices = [r.index for r in table.regions()]
        assert indices == [0, 5]

    def test_n_pages_and_regions(self):
        table = PageTable()
        for vpn in range(PTES_PER_REGION + 1):
            table.map_page(Page(vpn))
        assert table.n_pages == PTES_PER_REGION + 1
        assert table.n_regions == 2

    def test_pages_iterates_in_vpn_order(self):
        table = PageTable()
        for vpn in [9, 2, 5, 0]:
            table.map_page(Page(vpn))
        assert [p.vpn for p in table.pages()] == [0, 2, 5, 9]

    def test_sparse_regions_only_materialized_when_mapped(self):
        table = PageTable()
        table.map_page(Page(100 * PTES_PER_REGION))
        assert table.n_regions == 1

    def test_regions_in_range_matches_full_scan_filter(self):
        table = PageTable()
        # Sparse, out-of-order regions (the per-cgroup VMA-span shape).
        for idx in [7, 0, 12, 3, 5]:
            table.map_page(Page(idx * PTES_PER_REGION + 1))
        spans = [
            (0, 0),  # empty range
            (0, 1),  # sub-region range touching region 0 only
            (PTES_PER_REGION, 6 * PTES_PER_REGION),
            # Unaligned bounds: regions 3/5/7 in, region 0 out.
            (2 * PTES_PER_REGION + 5, 7 * PTES_PER_REGION + 1),
            (0, 200 * PTES_PER_REGION),  # superset of everything
            (50 * PTES_PER_REGION, 60 * PTES_PER_REGION),  # hole
            (6 * PTES_PER_REGION, 3 * PTES_PER_REGION),  # inverted
        ]
        for lo, hi in spans:
            expected = [
                r for r in table.regions() if lo <= r.start_vpn < hi
            ]
            assert table.regions_in_range(lo, hi) == expected, (lo, hi)


class TestTranslateMemo:
    def _flat(self, n_pages=64):
        table = PageTable()
        for vpn in range(n_pages):
            table.map_page(Page(vpn))
        return table.flat_view()

    def test_repeat_translation_is_memoized(self):
        flat = self._flat()
        vpns = np.arange(10, 20, dtype=np.int64)
        first = flat.translate(vpns)
        assert first is not None
        # Same array object again: the memoized indices come back as-is.
        assert flat.translate(vpns) is first

    def test_overflow_evicts_one_entry_not_all(self):
        """Regression: exceeding the memo bound used to clear the whole
        memo, re-translating every live trace array on its next batch.
        Now a single entry is evicted and recent arrays stay cached."""
        flat = self._flat()
        arrays = [
            np.array([i % 64], dtype=np.int64) for i in range(300)
        ]
        results = [flat.translate(a) for a in arrays]
        assert len(flat._memo) <= 258  # bounded, not unbounded
        # Recently translated live arrays must still be memo hits.
        for a, r in zip(arrays[-200:], results[-200:]):
            assert flat.translate(a) is r

    def test_dead_entries_evicted_before_live_ones(self):
        flat = self._flat()
        keep = [np.array([i], dtype=np.int64) for i in range(60)]
        kept_results = [flat.translate(a) for a in keep]
        # Fill the memo past its bound with arrays we drop immediately.
        for i in range(250):
            flat.translate(np.array([i % 64, (i + 1) % 64], dtype=np.int64))
        gc.collect()
        flat.translate(np.arange(5, dtype=np.int64))  # trigger evictions
        for a, r in zip(keep, kept_results):
            assert flat.translate(a) is r

    def test_unmapped_vpn_returns_none(self):
        flat = self._flat(n_pages=8)
        assert flat.translate(np.array([3, 99], dtype=np.int64)) is None
