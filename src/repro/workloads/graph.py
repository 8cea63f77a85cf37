"""Power-law graph generation and CSR layout for PageRank.

The GAP benchmark's PageRank inputs are scale-free graphs whose degree
skew is exactly what the paper's PageRank analysis leans on: "the work
per thread varies with the degree of each graph vertex" (§V-B).  We
generate Chung-Lu-style graphs — endpoint probabilities proportional to
per-vertex weights ``(i + i0)^-alpha`` — fully vectorized, then pack
them into CSR arrays and compute the page-level layout the simulator
accesses (8-byte entries, 512 per 4 KiB page).

Low vertex indices are the hubs, so their rank-vector pages are touched
by every thread (hot), while tail pages are touched rarely — the graded
hotness spectrum generation-based policies are supposed to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.workloads.zipf import GuideTable

#: 8-byte entries per 4 KiB page.
ENTRIES_PER_PAGE = 512


@dataclass
class CSRGraph:
    """A directed graph in compressed-sparse-row form."""

    n_vertices: int
    #: offsets[v]..offsets[v+1] index into ``targets``.
    offsets: np.ndarray
    #: Concatenated out-neighbour lists.
    targets: np.ndarray

    @property
    def n_edges(self) -> int:
        """Total directed edges."""
        return int(self.targets.shape[0])

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex *v*."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degrees of all vertices."""
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Page-level layout helpers
    # ------------------------------------------------------------------

    def n_offset_pages(self) -> int:
        """Pages holding the offsets array."""
        return -(-(self.n_vertices + 1) // ENTRIES_PER_PAGE)

    def n_edge_pages(self) -> int:
        """Pages holding the targets array."""
        return max(1, -(-self.n_edges // ENTRIES_PER_PAGE))

    def n_rank_pages(self) -> int:
        """Pages holding one rank vector."""
        return -(-self.n_vertices // ENTRIES_PER_PAGE)

    def edge_page_rank_pages(self) -> List[np.ndarray]:
        """For each edge page, the *distinct* rank pages its edges read.

        This is the page-granularity access pattern of one PageRank
        iteration: processing the 512 edges of edge page *p* touches the
        rank page of each target vertex, and at accessed-bit granularity
        only the distinct pages matter.
        """
        pages: List[np.ndarray] = []
        rank_page_of = self.targets // ENTRIES_PER_PAGE
        for start in range(0, self.n_edges, ENTRIES_PER_PAGE):
            chunk = rank_page_of[start : start + ENTRIES_PER_PAGE]
            pages.append(np.unique(chunk))
        return pages


def power_law_graph(
    n_vertices: int,
    n_edges: int,
    rng: np.random.Generator,
    alpha: float = 0.65,
    i0: int = 4,
) -> CSRGraph:
    """Generate a Chung-Lu power-law graph in CSR form.

    ``alpha`` controls the skew of the expected-degree sequence
    ``w_i ∝ (i + i0)^-alpha``; both edge endpoints are drawn from it, so
    hubs attract both in- and out-edges.  Self-loops and multi-edges are
    kept (PageRank tolerates them and GAP inputs contain them).
    """
    if n_vertices < 2:
        raise ConfigError("graph needs at least 2 vertices")
    if n_edges < 1:
        raise ConfigError("graph needs at least 1 edge")
    weights = np.power(np.arange(n_vertices, dtype=np.float64) + i0, -alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    endpoints = GuideTable(cdf)
    sources = endpoints.invert(rng.random(n_edges))
    targets = endpoints.invert(rng.random(n_edges))
    # CSR: sort edges by source.
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    targets = targets[order]
    counts = np.bincount(sources, minlength=n_vertices)
    offsets = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(
        n_vertices=n_vertices,
        offsets=offsets,
        targets=targets.astype(np.int64),
    )
