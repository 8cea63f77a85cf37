"""Immutable workload datasets: content-addressed build/cache/share layer.

The paper's methodology reruns the *same binary on the same input* 25
times per cell (§IV), so every workload's data structures — the
power-law graph and its page-level gather traces, TPC-H's hash-layout
permutation, the KV store's item placement — are pure functions of
``(workload class, params, dataset seed, RNG path, generator version)``.
This module gives those functions one front door, :func:`get_dataset`,
with a four-level lookup:

1. **process memo** — an LRU dict of recently used datasets, so
   repeated cells in one process (or one pool worker) never regenerate
   identical inputs;
2. **shared memory** — segments exported by the parent
   :class:`~repro.core.experiment.ExperimentRunner` and attached
   read-only via :mod:`repro.workloads.shm` (manifest installed by
   :func:`install_shm_manifest` in each worker task);
3. **disk cache** — ``~/.cache/repro-traces`` npz files via
   :mod:`repro.core.tracecache`, shared across processes and runs;
4. **build** — the workload's builder function, whose RNG draws are
   bit-identical to the historical in-place construction.

Datasets are plain ``{name: numpy array}`` dicts (all read-only), which
is what makes them npz- and shm-portable.

Knobs: ``REPRO_DATASET_MEMO`` (default ``1``; ``0``/``off``/``legacy``
reverts to the pre-fast-lane behavior — a single-slot cache for
workloads that historically had one, nothing for the rest, and no
shm/disk lookups — kept as the honest baseline for
``benchmarks/bench_grid.py``; any other value raises ``ConfigError``)
and ``REPRO_DATASET_SHM`` (default on; gates level 2).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro._env import env_choice, env_flag
from repro.core import tracecache
from repro.workloads.shm import ShmDatasetHandle, attach_dataset

#: Process-memo capacity (the paper's five workloads fit with room).
#: Fleet tenant shapes share entries too — distinct shapes per fleet are
#: expected to stay in the single digits.
MEMO_CAP = 8


@dataclass
class MemoStats:
    """Process-global memo counters, mirroring ``tracecache.STATS``.

    ``hits`` counts :func:`get_dataset` calls served from the process
    memo; ``misses`` counts calls that fell through to shm/disk/build.
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
    ``legacy_cached`` records whether the pre-fast-lane code kept a
    process cache for this dataset (only PageRank did), which is what
    ``REPRO_DATASET_MEMO=legacy`` faithfully reproduces.
    """

    name: str
    params: str
    seed: int
    rng_path: Tuple[int, ...]
    generation: int = 1
    legacy_cached: bool = False

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
#: Shared-memory manifest: content key → segment handle (worker side).
_SHM_MANIFEST: Dict[str, ShmDatasetHandle] = {}


def memo_mode() -> str:
    """``"full"`` (default, ``REPRO_DATASET_MEMO=1``) or ``"legacy"``
    (pre-fast-lane behavior: ``0``, ``off`` or ``legacy``)."""
    raw = env_choice("REPRO_DATASET_MEMO", "1", ("1", "0", "off", "legacy"))
    return "full" if raw == "1" else "legacy"


def shm_enabled() -> bool:
    return env_flag("REPRO_DATASET_SHM", True)


def install_shm_manifest(
    manifest: Dict[str, ShmDatasetHandle]
) -> None:
    """Register parent-exported segments (called at worker task start)."""
    _SHM_MANIFEST.update(manifest)


def clear_process_state() -> None:
    """Drop the memo and manifest (test isolation helper)."""
    _MEMO.clear()
    _SHM_MANIFEST.clear()


def _freeze(arrays: Dataset) -> Dataset:
    for arr in arrays.values():
        arr.setflags(write=False)
    return arrays


def get_dataset(spec: DatasetSpec, build: Callable[[], Dataset]) -> Dataset:
    """The dataset for *spec*, via memo → shm → disk → *build*."""
    key = spec.key
    if memo_mode() == "legacy":
        # Pre-fast-lane semantics: PageRank kept one cached dataset per
        # process (cleared on key change); everything else rebuilt per
        # trial.  No shm attach, no disk cache.
        if not spec.legacy_cached:
            MEMO_STATS.misses += 1
            return _freeze(build())
        hit = _MEMO.get(key)
        if hit is not None:
            MEMO_STATS.hits += 1
            return hit[1]
        MEMO_STATS.misses += 1
        arrays = _freeze(build())
        _MEMO.clear()
        _MEMO[key] = (spec, arrays)
        return arrays

    hit = _MEMO.get(key)
    if hit is not None:
        MEMO_STATS.hits += 1
        _MEMO.move_to_end(key)
        return hit[1]
    MEMO_STATS.misses += 1
    arrays = None
    if shm_enabled():
        handle = _SHM_MANIFEST.get(key)
        if handle is not None:
            try:
                arrays = attach_dataset(handle)
            except (FileNotFoundError, ValueError):
                arrays = None
    if arrays is None:
        arrays = tracecache.load(key, spec.name)
    if arrays is None:
        arrays = build()
        _freeze(arrays)
        tracecache.store(key, spec.name, arrays)
    else:
        _freeze(arrays)
    _MEMO[key] = (spec, arrays)
    _MEMO.move_to_end(key)
    while len(_MEMO) > MEMO_CAP:
        _MEMO.popitem(last=False)
    return arrays


def memo_items() -> List[Tuple[DatasetSpec, Dataset]]:
    """Current memo contents (the runner exports these over shm)."""
    return list(_MEMO.values())
