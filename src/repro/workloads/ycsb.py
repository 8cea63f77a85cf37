"""YCSB workloads A, B and C against the slab KV store (§IV).

Mixes follow the YCSB core workloads [12]:

- **A** — update heavy: 50 % reads, 50 % updates;
- **B** — read mostly: 95 % reads, 5 % updates;
- **C** — read only.

Requests draw keys from the standard Zipfian(0.99) distribution over a
scattered key space.  Four server threads (memcached's default) process
a fixed number of requests closed-loop; every request's simulated
latency is recorded, giving the tail distributions of Figures 3, 8 and
12.  A request touches the key's hash-index page, then its item page;
updates dirty the item page, which is what couples write tails to
reclaim writeback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

import numpy as np

from repro._units import US
from repro.errors import ConfigError
from repro.mm.page import PageKind
from repro.mm.system import MemorySystem
from repro.sim.events import Compute
from repro.sim.rng import RngTree
from repro.workloads import datasets
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.kvstore import KVStore
from repro.workloads.zipf import ZipfSampler

#: Read fraction per YCSB mix.
MIX_READ_FRACTION = {"a": 0.50, "b": 0.95, "c": 1.00}


@dataclass(frozen=True)
class YCSBParams:
    """Scaled-down stand-ins for the paper's 11 M items / 110 M requests."""

    n_items: int = 15_000
    value_bytes: int = 940  # ~1 KiB values → 4 items per page
    n_requests: int = 120_000
    n_threads: int = 4  # memcached default (§IV)
    zipf_theta: float = 0.99
    #: Per-request CPU work (hash, memcpy, protocol handling).
    request_compute_ns: int = 6 * US
    #: Requests sampled per batch (amortizes RNG cost, not semantics).
    batch_size: int = 512


class YCSBWorkload(Workload):
    """One YCSB mix (A, B or C) against the KV store."""

    def __init__(self, mix: str = "a", params: YCSBParams = YCSBParams()) -> None:
        super().__init__()
        mix = mix.lower()
        if mix not in MIX_READ_FRACTION:
            raise ConfigError(f"unknown YCSB mix {mix!r} (use a/b/c)")
        self.mix = mix
        self.params = params
        self.name = f"ycsb-{mix}"
        self.n_threads = params.n_threads
        self.read_fraction = MIX_READ_FRACTION[mix]
        self._store: KVStore | None = None
        self._zipf: ZipfSampler | None = None
        self._rng: RngTree | None = None
        self._index_start = 0
        self._item_start = 0
        #: Per-op-type latency samples, filled during the run.
        self._latencies: Dict[str, List[float]] = {"read": [], "write": []}
        self._requests_done = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build(self, rng: RngTree) -> int:
        self._rng = rng
        p = self.params

        def build() -> dict:
            # Draw order matches the historical in-place construction;
            # the streams are name-independent, so extracting them into
            # the dataset layer changes no draws.
            store = KVStore(
                p.n_items, p.value_bytes, rng.stream("kv", "layout")
            )
            return {
                "item_page": store._item_page,
                "rank_perm": rng.stream("kv", "rank-perm").permutation(
                    p.n_items
                ),
            }

        spec = datasets.DatasetSpec(
            name=self.name,
            params=repr(p),
            seed=rng.seed,
            rng_path=rng._path,
        )
        data = datasets.get_dataset(spec, build)
        self._store = KVStore(
            p.n_items, p.value_bytes, item_page=data["item_page"]
        )
        self._zipf = ZipfSampler(
            p.n_items,
            theta=p.zipf_theta,
            permutation=data["rank_perm"],
        )
        return self._store.footprint_pages

    def setup(self, system: MemorySystem) -> None:
        assert self._store is not None
        index = system.address_space.map_area(
            "kv-index", self._store.n_index_pages, PageKind.ANON, entropy=0.45
        )
        items = system.address_space.map_area(
            "kv-items", self._store.n_item_pages, PageKind.ANON, entropy=0.65
        )
        self._index_start = index.start_vpn
        self._item_start = items.start_vpn

    # ------------------------------------------------------------------
    # Request loop
    # ------------------------------------------------------------------

    def thread_body(self, system: MemorySystem, tid: int) -> Iterator[Any]:
        assert self._store is not None and self._zipf is not None
        p = self.params
        n_mine = p.n_requests // p.n_threads
        # Request streams are per-trial; the store layout is fixed data.
        key_rng = system.rng.stream("ycsb", "keys", tid)
        op_rng = system.rng.stream("ycsb", "ops", tid)
        lookup_many = system.address_space.page_table.lookup_many
        engine = system.engine
        # The generator only ever runs inside its own thread's steps.
        thread = engine.current_thread
        cpu = thread.cpu
        stats = system.stats
        handle_fault = system.handle_fault
        work = p.request_compute_ns
        compute = Compute(work)
        read_lat = self._latencies["read"]
        write_lat = self._latencies["write"]
        # ``random()`` lies in [0, 1), so at read_fraction 1.0 (mix C)
        # every op is a read and the op draw is skipped; the op stream
        # feeds nothing else.
        all_reads = self.read_fraction >= 1.0
        issued = 0
        while issued < n_mine:
            batch = min(p.batch_size, n_mine - issued)
            keys = self._zipf.sample(key_rng, batch)
            if all_reads:
                is_read = [True] * batch
            else:
                is_read = (op_rng.random(batch) < self.read_fraction).tolist()
            index_pages = lookup_many(
                self._index_start + self._store.index_pages(keys)
            )
            item_pages = lookup_many(
                self._item_start + self._store.item_pages(keys)
            )
            i = 0
            while i < batch:
                # Where this request's Compute would run ahead, so would
                # each following request that hits both its pages, up to
                # the next due event: nothing else runs in between, so
                # one CPU call completes the whole stretch, and each
                # request's latency is its own job's replayed delay.
                room = cpu.ahead_bound() - engine._now
                if room >= work > 0:
                    end = min(batch, i + room // work)
                    j = i
                    while (
                        j < end
                        and index_pages[j].present
                        and item_pages[j].present
                    ):
                        j += 1
                    if j > i:
                        delays = cpu.run_ahead(thread, work, j - i)
                        if delays:
                            k = len(delays)
                            thread.compute_requested_ns += k * work
                            stats.hits += 2 * k
                            for delay, index_page, item_page, read in zip(
                                delays,
                                index_pages[i:j],
                                item_pages[i:j],
                                is_read[i:j],
                            ):
                                index_page.accessed = True
                                item_page.accessed = True
                                if read:
                                    read_lat.append(delay)
                                else:
                                    item_page.dirty = True
                                    write_lat.append(delay)
                            i += k
                            continue
                start = engine._now
                write = not is_read[i]
                yield compute
                # Hash-table lookup, then the item itself.
                page = index_pages[i]
                if page.present:
                    stats.hits += 1
                    page.accessed = True
                else:
                    yield from handle_fault(page, False)
                page = item_pages[i]
                if page.present:
                    stats.hits += 1
                    page.accessed = True
                    if write:
                        page.dirty = True
                else:
                    yield from handle_fault(page, write)
                (write_lat if write else read_lat).append(engine._now - start)
                i += 1
            issued += batch
        self._requests_done += issued
        return issued

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> WorkloadResult:
        out = WorkloadResult()
        out.metrics["requests"] = float(self._requests_done)
        for op, samples in self._latencies.items():
            if samples:
                out.latencies_ns[op] = np.asarray(samples, dtype=np.int64)
        if self._requests_done:
            total = sum(float(np.sum(v)) for v in out.latencies_ns.values())
            out.metrics["mean_request_ns"] = total / self._requests_done
        return out
