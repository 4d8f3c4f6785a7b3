"""Isomorphism-free generation of free trees and small connected graphs.

Both generators grow graphs level by level (attach a new vertex to every
possible neighbourhood of every graph one size down) and reject duplicates
with a canonical certificate.  Growing is exhaustive because deleting a
leaf of a tree, or any non-cut vertex of a connected graph, lands back in
the previous level.

Each level keeps, for every class, the first candidate seen (parents in
level order, then neighbourhoods or attachment vertices in increasing
order), and lists the classes by certificate.  Candidates are visited in
that order, but some are skipped by the twin rule: if u < v are twins of
the parent (swapping them is an automorphism), a neighbourhood that
contains v but not u is skipped, and so is attaching a leaf to v.  The swap
maps the skipped candidate onto an isomorphic one from the same parent with
a smaller neighbourhood (or a smaller attachment vertex), so by induction
an isomorphic candidate was visited before it, and the skip changes neither
the first-seen representatives nor their order.  Each candidate's neighbour
lists are the parent's with the new vertex appended, and only a first-seen
candidate is built as a ``Graph``.

Certificates: trees use the classic rooted-at-centroid encoding; general
graphs use an individualisation-refinement search for the minimum
upper-triangle bitmask over all relabellings, with twin and automorphism
pruning so that highly symmetric graphs (stars, complete multipartite,
strongly regular) stay cheap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .graphs import Graph, _bits

TREE_MAX_VERTICES = 16
CONNECTED_MAX_VERTICES = 8


# ---------------------------------------------------------------------------
# Canonical certificate for arbitrary graphs.

def _refine(n: int, nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Stable colour refinement: split classes by neighbour-colour multisets.

    Returned colours are dense ranks ordered by (old colour, multiset), so
    the class order is isomorphism-invariant.  A discrete colouring is
    returned at once: refining it again cannot split anything.
    """
    ncolors = len(set(colors))
    while True:
        get = colors.__getitem__
        keys = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        if len(rank) == ncolors or len(rank) == n:
            return colors
        ncolors = len(rank)


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    # Swapping u and v is an automorphism iff they agree off {u, v}.
    mask = ~((1 << u) | (1 << v))
    return (adj[u] & mask) == (adj[v] & mask)


def _lower_twins(adj: tuple[int, ...]) -> list[int]:
    """Per vertex v, the mask of the vertices u < v that are twins of v."""
    return [sum(1 << u for u in range(v) if _twins(adj, u, v)) for v in range(len(adj))]


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, canonical upper-triangle bitmask): equal iff graphs isomorphic."""
    return g.n, _canonical_mask(g.n, g.adj, [g.neighbors(u) for u in range(g.n)])


def _canonical_mask(n: int, adj: Sequence[int], nbrs: list[list[int]]) -> int:
    """The minimum upper-triangle bitmask over the leaves of the
    individualisation-refinement search; ``nbrs[u]`` lists the neighbours
    of u, in any order.

    Two leaves with the same mask relabel the graph identically, so they
    give an automorphism.  A branch vertex that an automorphism fixing the
    node's path maps onto an already tried sibling roots a subtree with the
    same leaf masks, so it is skipped, and a new automorphism abandons the
    subtree of the shallowest branch it makes redundant in this way.
    """
    # Bit offset of row i's entries (i, i+1..n-1) in the upper triangle.
    offsets = [i * (2 * n - i - 1) // 2 for i in range(n)]
    leaves: list[tuple[int, list[int]]] = []  # the first leaf, then the best
    autos: list[list[int]] = []
    path: list[int] = []  # branch vertex per level
    tried: list[list[int]] = []  # branch vertices explored per level

    def leaf_mask(colors: list[int]) -> int:
        # Discrete colouring: colour rank is the new position.
        mask = 0
        for v in range(n):
            i = colors[v]
            row = 0
            for w in nbrs[v]:
                row |= 1 << colors[w]
            mask |= (row >> (i + 1)) << offsets[i]
        return mask

    def redundant(depth: int, v: int) -> bool:
        # Whether the automorphisms fixing path[:depth] map v onto another
        # vertex tried at that depth.
        fixed = path[:depth]
        gens = [a for a in autos if all(a[u] == u for u in fixed)]
        orbit = {v}
        stack = [v]
        while stack and gens:
            x = stack.pop()
            for a in gens:
                if a[x] not in orbit:
                    orbit.add(a[x])
                    stack.append(a[x])
        return any(u in orbit for u in tried[depth] if u != v)

    def dfs(colors: list[int]) -> int:
        # Returns the depth at which the search resumes.
        depth = len(path)
        if len(set(colors)) == n:
            mask = leaf_mask(colors)
            if not leaves:
                leaves[:] = [(mask, colors)] * 2
                return depth
            for seen, seen_colors in leaves:
                if mask == seen:
                    at = [0] * n
                    for v, i in enumerate(colors):
                        at[i] = v
                    autos.append([at[i] for i in seen_colors])
                    return next((d for d in range(depth) if redundant(d, path[d])), depth)
            if mask < leaves[1][0]:
                leaves[1] = (mask, colors)
            return depth
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next(c for c, k in enumerate(counts) if k > 1)
        tried.append([])
        for v in range(n):
            if colors[v] != target or any(_twins(adj, u, v) for u in tried[depth]):
                continue
            if autos and redundant(depth, v):
                continue
            tried[depth].append(v)
            path.append(v)
            branched = [2 * c for c in colors]
            branched[v] -= 1
            back = dfs(_refine(n, nbrs, branched))
            path.pop()
            if back < depth:
                break
        else:
            back = depth
        tried.pop()
        return back

    dfs(_refine(n, nbrs, [a.bit_count() for a in adj]))
    return leaves[1][0]


# ---------------------------------------------------------------------------
# Free trees: centroid certificate plus leaf-extension growth.

def tree_certificate(g: Graph):
    """Canonical encoding of a free tree, rooted at its centroid(s)."""
    return _tree_certificate(g.n, [g.neighbors(u) for u in range(g.n)])


def _tree_certificate(n: int, nbrs: list[list[int]]):
    if n == 1:
        return (1,)
    size = [1] * n
    parent = [-1] * n
    order: list[int] = []
    stack = [0]
    seen = 1
    while stack:
        u = stack.pop()
        order.append(u)
        for w in nbrs[u]:
            if not (seen >> w) & 1:
                seen |= 1 << w
                parent[w] = u
                stack.append(w)
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    centroids = []
    for u in range(n):
        heaviest = n - size[u]
        for w in nbrs[u]:
            if w != parent[u]:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            centroids.append(u)

    def encode(v: int, banned: int):
        subs = sorted(encode(w, v) for w in nbrs[v] if w != banned)
        return tuple(subs)

    if len(centroids) == 1:
        return 1, encode(centroids[0], -1)
    c1, c2 = centroids
    return 2, tuple(sorted((encode(c1, c2), encode(c2, c1))))


@lru_cache(maxsize=None)
def _tree_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    m = n - 1
    found: dict[object, Graph] = {}
    for small in _tree_level(m):
        adj = small.adj
        nbrs = [small.neighbors(u) for u in range(m)]
        for v, lower in enumerate(_lower_twins(adj)):
            if lower:
                continue
            cand = nbrs.copy()
            cand[v] = nbrs[v] + [m]
            cand.append([v])
            cert = _tree_certificate(n, cand)
            if cert not in found:
                rows = list(adj) + [1 << v]
                rows[v] |= 1 << m
                found[cert] = Graph(n, tuple(rows))
    return tuple(found[c] for c in sorted(found))


def generate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    if not 1 <= n <= TREE_MAX_VERTICES:
        raise ValueError(f"tree generation supports 1 <= n <= {TREE_MAX_VERTICES}")
    yield from _tree_level(n)


# ---------------------------------------------------------------------------
# Connected graphs on up to 8 vertices.

@lru_cache(maxsize=None)
def _connected_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    m = n - 1
    new = 1 << m
    new_nbrs = [_bits(nbhd) for nbhd in range(new)]
    found: dict[int, Graph] = {}
    for small in _connected_level(m):
        adj = small.adj
        nbrs = [small.neighbors(u) for u in range(m)]
        twins = [(1 << v, lower) for v, lower in enumerate(_lower_twins(adj)) if lower]
        for nbhd in range(1, new):
            if any(nbhd & vbit and lower & ~nbhd for vbit, lower in twins):
                continue
            rows = [row | new if (nbhd >> u) & 1 else row for u, row in enumerate(adj)]
            rows.append(nbhd)
            cand = [nb + [m] if (nbhd >> u) & 1 else nb for u, nb in enumerate(nbrs)]
            cand.append(new_nbrs[nbhd])
            key = _canonical_mask(n, rows, cand)
            if key not in found:
                found[key] = Graph(n, tuple(rows))
    return tuple(found[k] for k in sorted(found))


def generate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs.

    Built-in up to 8 vertices; larger corpora should be ingested as graph6
    lines from an external generator.
    """
    if not 1 <= n <= CONNECTED_MAX_VERTICES:
        raise ValueError(
            f"built-in generation supports 1 <= n <= {CONNECTED_MAX_VERTICES}; "
            "supply larger corpora as graph6 input"
        )
    yield from _connected_level(n)
