"""GAP-style PageRank over a power-law graph (§IV).

The paper's PageRank analysis (§V-B) rests on its threading model:
"multiple iterations of parallelized sparse matrix multiplication",
where "the work per thread varies with the degree of each graph vertex"
— so an iteration's tail is set by whichever thread owns the heavy
vertices, and "the overall runtime can be affected more by a few
critical faults rather than the overall fault rate".

The model: vertices are partitioned across threads in *equal contiguous
ranges by vertex count* (as GAP's simple OpenMP schedule does), so edge
work per thread is skewed by the power-law degree distribution.  Each
iteration a thread streams its slice of the CSR arrays (offsets + edge
pages) and, per edge page, touches the distinct rank-vector pages its
targets live on — hub pages on every edge page (hot), tail pages rarely
(cold).  It then writes its slice of the destination rank vector and
waits at the iteration barrier.

A real numeric PageRank over the same CSR graph is provided
(:func:`pagerank_scores`) so examples can show the algorithm the access
pattern corresponds to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List

import numpy as np

from repro._units import US
from repro.mm.page import PageKind
from repro.mm.system import MemorySystem
from repro.sim.events import Barrier
from repro.sim.rng import RngTree
from repro.workloads import datasets
from repro.workloads.base import Workload, WorkloadResult, chunk_bounds
from repro.workloads.graph import CSRGraph, ENTRIES_PER_PAGE, power_law_graph


@dataclass(frozen=True)
class PageRankParams:
    """Scaled-down graph (paper footprint 12-16 GB; here ~2.5 K pages)."""

    n_vertices: int = 98_304  # 192 rank pages per vector
    avg_degree: int = 8
    power_law_alpha: float = 0.65
    n_iterations: int = 12
    n_threads: int = 12
    #: CPU work per 512-edge page: gather + multiply-accumulate at
    #: ~60 ns per edge (random-access bound).
    compute_per_edge_page_ns: int = 30 * US
    #: CPU work per distinct rank-page touch.
    compute_per_rank_page_ns: int = 500
    #: Per-trial, per-thread compute speed jitter.
    compute_jitter_sigma: float = 0.03


#: Bump when :func:`build_pagerank_dataset`'s output changes, so stale
#: on-disk cache entries invalidate themselves.
PAGERANK_DATASET_GENERATION = 1


def build_pagerank_dataset(p: PageRankParams, rng: RngTree) -> dict:
    """Build the PageRank dataset as plain arrays (cache/shm-portable).

    Everything here is a pure function of the fixed dataset seed (§IV
    reruns identical inputs): the CSR graph itself plus the per-thread
    *relative* gather traces — for each owned edge page, the edge page
    followed by the distinct rank pages its targets live on.  The trace
    is iteration-invariant and base-independent (ASLR shifts only the
    per-trial VPN bases), so it is dataset-derived too.  Per-thread
    traces are concatenated and addressed via ``trace_starts``.

    The RNG draws match the historical in-place construction exactly,
    so datasets (and therefore trials) are bit-identical to pre-cache
    builds.
    """
    graph = power_law_graph(
        p.n_vertices,
        p.n_vertices * p.avg_degree,
        rng.stream("graph"),
        alpha=p.power_law_alpha,
    )
    edge_page_ranks = graph.edge_page_rank_pages()
    n_edge_pages = graph.n_edge_pages()
    rels: List[np.ndarray] = []
    isedges: List[np.ndarray] = []
    starts = np.zeros(p.n_threads + 1, dtype=np.int64)
    touches = np.zeros(p.n_threads, dtype=np.int64)
    bounds = np.zeros((p.n_threads, 2), dtype=np.int64)
    for tid in range(p.n_threads):
        v_lo, v_hi = chunk_bounds(graph.n_vertices, p.n_threads, tid)
        e_lo = int(graph.offsets[v_lo]) // ENTRIES_PER_PAGE
        e_hi = min(-(-int(graph.offsets[v_hi]) // ENTRIES_PER_PAGE), n_edge_pages)
        pieces: List[np.ndarray] = []
        n_rank_touches = 0
        for ep in range(e_lo, e_hi):
            pieces.append(np.array([ep], dtype=np.int64))
            ranks = edge_page_ranks[ep]
            n_rank_touches += len(ranks)
            pieces.append(ranks)
        rel = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        is_edge = np.zeros(len(rel), dtype=bool)
        off = 0
        for ep in range(e_lo, e_hi):
            is_edge[off] = True
            off += 1 + len(edge_page_ranks[ep])
        rels.append(rel)
        isedges.append(is_edge)
        starts[tid + 1] = starts[tid] + len(rel)
        touches[tid] = n_rank_touches
        bounds[tid] = (e_lo, e_hi)
    return {
        "offsets": graph.offsets,
        "targets": graph.targets,
        "trace_rel": (
            np.concatenate(rels) if rels else np.empty(0, dtype=np.int64)
        ),
        "trace_isedge": (
            np.concatenate(isedges) if isedges else np.empty(0, dtype=bool)
        ),
        "trace_starts": starts,
        "trace_rank_touches": touches,
        "trace_edge_bounds": bounds,
    }


class PageRankWorkload(Workload):
    """The GAP PageRank stand-in."""

    name = "pagerank"

    def __init__(self, params: PageRankParams = PageRankParams()) -> None:
        super().__init__()
        self.params = params
        self.n_threads = params.n_threads
        self.graph: CSRGraph | None = None
        self._rng: RngTree | None = None
        self._barrier: Barrier | None = None
        #: The dataset arrays (graph CSR + per-thread gather traces);
        #: shared through the dataset layer (ASLR shifts the VPN bases
        #: per trial, so only the base-independent form is shareable).
        self._data: dict | None = None
        self._offsets_start = 0
        self._edges_start = 0
        self._rank_src_start = 0
        self._rank_dst_start = 0
        self._iterations_done = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build(self, rng: RngTree) -> int:
        self._rng = rng
        p = self.params
        spec = datasets.DatasetSpec(
            name="pagerank",
            params=repr(p),
            seed=rng.seed,
            rng_path=rng._path,
            generation=PAGERANK_DATASET_GENERATION,
        )
        self._data = datasets.get_dataset(
            spec, lambda: build_pagerank_dataset(p, rng)
        )
        self.graph = CSRGraph(
            n_vertices=p.n_vertices,
            offsets=self._data["offsets"],
            targets=self._data["targets"],
        )
        g = self.graph
        return (
            g.n_offset_pages()
            + g.n_edge_pages()
            + 2 * g.n_rank_pages()
        )

    def setup(self, system: MemorySystem) -> None:
        g = self.graph
        assert g is not None
        offsets = system.address_space.map_area(
            "pr-offsets", g.n_offset_pages(), PageKind.ANON, entropy=0.55
        )
        edges = system.address_space.map_area(
            "pr-edges", g.n_edge_pages(), PageKind.ANON, entropy=0.75
        )
        rank_src = system.address_space.map_area(
            "pr-rank-src", g.n_rank_pages(), PageKind.ANON, entropy=0.85
        )
        rank_dst = system.address_space.map_area(
            "pr-rank-dst", g.n_rank_pages(), PageKind.ANON, entropy=0.85
        )
        self._offsets_start = offsets.start_vpn
        self._edges_start = edges.start_vpn
        self._rank_src_start = rank_src.start_vpn
        self._rank_dst_start = rank_dst.start_vpn
        self._barrier = Barrier(self.params.n_threads, "pr-iteration")

    # ------------------------------------------------------------------
    # Per-thread iteration work
    # ------------------------------------------------------------------

    def _thread_edge_pages(self, tid: int) -> tuple[int, int]:
        """Edge-page range [lo, hi) owned by thread *tid*.

        Vertices are split into equal *vertex-count* ranges; the edge
        pages covering a range follow from CSR offsets — this is where
        the degree skew turns into work skew.
        """
        g = self.graph
        assert g is not None
        v_lo, v_hi = chunk_bounds(g.n_vertices, self.params.n_threads, tid)
        e_lo = int(g.offsets[v_lo]) // ENTRIES_PER_PAGE
        e_hi = -(-int(g.offsets[v_hi]) // ENTRIES_PER_PAGE)
        return e_lo, min(e_hi, g.n_edge_pages())

    def thread_body(self, system: MemorySystem, tid: int) -> Iterator[Any]:
        assert self._barrier is not None
        g = self.graph
        assert g is not None
        p = self.params
        jitter = float(
            system.rng.stream("pr", "jitter", tid).lognormal(
                0.0, p.compute_jitter_sigma
            )
        )
        per_edge_page = int(p.compute_per_edge_page_ns * jitter)
        per_rank_page = int(p.compute_per_rank_page_ns * jitter)

        data = self._data
        assert data is not None
        e_lo, e_hi = (int(b) for b in data["trace_edge_bounds"][tid])
        n_rank_touches = int(data["trace_rank_touches"][tid])
        v_lo, v_hi = chunk_bounds(g.n_vertices, p.n_threads, tid)
        # Offsets pages covering this thread's vertex range.
        off_lo = v_lo // ENTRIES_PER_PAGE
        off_hi = -(-v_hi // ENTRIES_PER_PAGE)
        offset_vpns = np.arange(
            self._offsets_start + off_lo, self._offsets_start + off_hi
        )
        # Destination rank pages this thread writes (same page span as
        # the offsets slice: both are vertex-indexed).
        dst_vpns = np.arange(
            self._rank_dst_start + off_lo, self._rank_dst_start + off_hi
        )
        # Gather-phase trace: for each owned edge page, the edge page
        # itself followed by the distinct rank pages its targets live
        # on.  The pattern repeats every iteration (PageRank's access
        # pattern is iteration-invariant); its base-independent form
        # comes from the shared dataset, only the per-trial VPN bases
        # are applied here.
        starts = data["trace_starts"]
        rel = data["trace_rel"][starts[tid]:starts[tid + 1]]
        is_edge = data["trace_isedge"][starts[tid]:starts[tid + 1]]
        gather_trace = np.where(
            is_edge, self._edges_start + rel, self._rank_src_start + rel
        )
        # Fold per-edge-page compute into a uniform per-access cost so
        # the whole gather phase is one batched access run.
        n_accesses = max(1, len(gather_trace))
        gather_compute_ns = (
            (e_hi - e_lo) * per_edge_page + n_rank_touches * per_rank_page
        ) // n_accesses

        for _iteration in range(p.n_iterations):
            # Gather phase: stream owned edge pages; per edge page touch
            # the distinct source-rank pages of its targets.
            yield from system.access_run(offset_vpns, write=False)
            yield from system.access_run(
                gather_trace,
                write=False,
                compute_ns_per_access=gather_compute_ns,
            )
            # Apply phase: write the owned slice of the new rank vector.
            yield from system.access_run(dst_vpns, write=True)
            yield from self._barrier.wait()
        if tid == 0:
            self._iterations_done = p.n_iterations
        return p.n_iterations

    def result(self) -> WorkloadResult:
        out = WorkloadResult()
        g = self.graph
        out.metrics["iterations"] = float(self._iterations_done)
        if g is not None:
            out.metrics["n_vertices"] = float(g.n_vertices)
            out.metrics["n_edges"] = float(g.n_edges)
            degrees = g.degrees()
            if len(degrees):
                out.metrics["max_degree"] = float(degrees.max())
        return out


def pagerank_scores(
    graph: CSRGraph,
    n_iterations: int = 20,
    damping: float = 0.85,
) -> np.ndarray:
    """Real PageRank over the CSR graph (numeric reference).

    Pull-free push formulation with uniform teleport; dangling mass is
    redistributed uniformly each iteration.
    """
    n = graph.n_vertices
    ranks = np.full(n, 1.0 / n)
    out_degree = graph.degrees().astype(np.float64)
    dangling = out_degree == 0
    for _ in range(n_iterations):
        contrib = np.where(dangling, 0.0, ranks / np.maximum(out_degree, 1))
        nxt = np.zeros(n)
        np.add.at(
            nxt,
            graph.targets,
            np.repeat(contrib, graph.degrees().astype(np.int64)),
        )
        dangling_mass = ranks[dangling].sum() / n
        ranks = (1 - damping) / n + damping * (nxt + dangling_mass)
    return ranks
