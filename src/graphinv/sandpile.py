"""Sandpile groups via the cone construction.

For a connected non-complete graph G, attach an apex q joined to every
vertex v by tr(v) - deg(v) parallel edges.  The Laplacian of the resulting
multigraph H, with q's row and column deleted, is exactly the
transmission-adjacency matrix of G.  Its invariant factors therefore give
the sandpile group of H, and their product counts H's spanning trees.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .exact import AbelianGroup, SnfResult, cokernel, snf
from .graphs import DistanceProfile, Graph, distance_profile, write_graph6
from .matrices import IntMatrix, MatrixKind, build
from .spectra import GraphSpectra


class Multigraph(NamedTuple):
    """Undirected multigraph stored as a symmetric multiplicity matrix."""

    n: int
    mult: tuple[tuple[int, ...], ...]

    def laplacian(self) -> IntMatrix:
        degs = [sum(row) for row in self.mult]
        return [
            [degs[u] if u == v else -self.mult[u][v] for v in range(self.n)]
            for u in range(self.n)
        ]


def cone_graph(g: Graph, profile: DistanceProfile | None = None) -> Multigraph:
    """G plus an apex joined to each v with multiplicity tr(v) - deg(v).

    Complete graphs are rejected: every multiplicity would be zero and the
    apex would be isolated.  A precomputed ``profile`` of ``g`` skips the
    BFS.
    """
    if g.is_complete():
        raise ValueError("cone apex would be isolated")
    if profile is None:
        profile = distance_profile(g)
    n = g.n
    weights = profile.r
    rows = []
    for u in range(n):
        rows.append(tuple(
            ((g.adj[u] >> v) & 1) for v in range(n)
        ) + (weights[u],))
    rows.append(weights + (0,))
    return Multigraph(n + 1, tuple(rows))


def sandpile_group(g: Graph) -> tuple[AbelianGroup, int]:
    """Sandpile group of the cone over g, and the cone's spanning-tree count."""
    if g.is_complete():
        raise ValueError("cone apex would be isolated")
    # For connected non-complete g, Atr = L + R with R >= 0 and R != 0, so
    # Atr is positive definite: free_rank is 0 and the order is the tree count.
    group = cokernel(build(g, MatrixKind.Atr))
    return group, group.order()


def cross_check(ctx: GraphSpectra) -> bool:
    """Verify the cone identity on the context's graph: the apex-reduced
    Laplacian of the cone equals the transmission-adjacency matrix
    entrywise, and the cone Laplacian's SNF is that matrix's SNF extended
    by one zero.

    Returns False (with a note on stderr naming the graph) instead of
    raising on mismatch; ``cone_graph`` rejects a complete graph.
    """
    h = cone_graph(ctx.g, ctx.profile)
    atr = ctx.matrix(MatrixKind.Atr)
    lap = h.laplacian()
    if [row[:-1] for row in lap[:-1]] != atr:  # the apex is vertex n
        print(f"cone cross-check: reduced Laplacian differs entrywise: {write_graph6(ctx.g)}",
              file=sys.stderr)
        return False
    full = snf(lap)
    expected = snf(atr)
    if full != SnfResult(expected.factors, expected.zeros + 1, expected.n + 1):
        print(f"cone cross-check: SNF mismatch: {write_graph6(ctx.g)}", file=sys.stderr)
        return False
    return True
