"""Immutable workload datasets: content-addressed build/cache/share layer.

The paper's methodology reruns the *same binary on the same input* 25
times per cell (§IV), so every workload's data structures — the
power-law graph and its page-level gather traces, TPC-H's hash-layout
permutation, the KV store's item placement — are pure functions of
``(workload class, params, dataset seed, RNG path, generator version)``.
This module gives those functions one front door, :func:`get_dataset`,
with a three-level lookup:

1. **process memo** — an LRU dict of recently used datasets, so
   repeated cells in one process (or one pool worker) never regenerate
   identical inputs;
2. **disk cache** — ``~/.cache/repro-traces`` npz files via
   :mod:`repro.core.tracecache`, shared across processes and runs, so
   each pool worker loads a dataset once per pool;
3. **build** — the workload's builder function, whose RNG draws are
   bit-identical to the historical in-place construction.

Datasets are plain ``{name: numpy array}`` dicts (all read-only), which
is what makes them npz-portable.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core import tracecache

#: Process-memo capacity (the paper's five workloads fit with room).
#: Fleet tenant shapes share entries too — distinct shapes per fleet are
#: expected to stay in the single digits.
MEMO_CAP = 8


@dataclass
class MemoStats:
    """Process-global memo counters, mirroring ``tracecache.STATS``.

    ``hits`` counts :func:`get_dataset` calls served from the process
    memo; ``misses`` counts calls that fell through to disk/build.
    The metrics plane imports per-trial deltas of these so cache
    behavior shows up in ``report`` output, not just bench assertions.
    """

    hits: int = 0
    misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def reset(self) -> None:
        self.hits = self.misses = 0


#: Module-level memo stats (reset by tests; sampled by MetricsSession).
MEMO_STATS = MemoStats()


@dataclass(frozen=True)
class DatasetSpec:
    """Identity of one immutable dataset.

    ``generation`` is the builder version: bump it when a builder's
    output changes so stale disk-cache entries invalidate themselves.
    """

    name: str
    params: str
    seed: int
    rng_path: Tuple[int, ...]
    generation: int = 1

    @property
    def key(self) -> str:
        material = "|".join(
            (
                "repro-dataset-v1",
                self.name,
                str(self.generation),
                str(self.seed),
                ",".join(str(p) for p in self.rng_path),
                self.params,
            )
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


Dataset = Dict[str, np.ndarray]

#: Process memo: content key → (spec, arrays), LRU order.
_MEMO: "OrderedDict[str, Tuple[DatasetSpec, Dataset]]" = OrderedDict()


def clear_process_state() -> None:
    """Drop the memo (test isolation helper)."""
    _MEMO.clear()


def _freeze(arrays: Dataset) -> Dataset:
    for arr in arrays.values():
        arr.setflags(write=False)
    return arrays


def get_dataset(spec: DatasetSpec, build: Callable[[], Dataset]) -> Dataset:
    """The dataset for *spec*, via memo → disk → *build*."""
    key = spec.key
    hit = _MEMO.get(key)
    if hit is not None:
        MEMO_STATS.hits += 1
        _MEMO.move_to_end(key)
        return hit[1]
    MEMO_STATS.misses += 1
    arrays = tracecache.load(key, spec.name)
    if arrays is None:
        arrays = build()
        tracecache.store(key, spec.name, arrays)
    _freeze(arrays)
    _MEMO[key] = (spec, arrays)
    while len(_MEMO) > MEMO_CAP:
        _MEMO.popitem(last=False)
    return arrays
