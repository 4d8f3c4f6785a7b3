"""Isomorphism-free generation of free trees and small connected graphs.

Both generators grow graphs level by level (attach a new vertex to every
possible neighbourhood of every graph one size down) and reject duplicates
with a canonical certificate.  Growing is exhaustive because deleting a
leaf of a tree, or any non-cut vertex of a connected graph, lands back in
the previous level.

One loop, ``_grow``, builds each level of both corpora: per parent (in
level order) it joins a new vertex to each neighbourhood a rule yields (in
increasing order), keeps the first candidate seen per key and lists the
level by key.  Trees pass one-vertex neighbourhoods, skipping v if it has a
twin u < v (a vertex agreeing with v off both), keyed by the centroid
certificate; connected graphs pass ``_orbit_minima``, the neighbourhoods
least in their orbit under the automorphisms the parent's canonical search
finds and its twin swaps (which that search never tries), keyed by the
canonical bitmask.  Skipping is safe under any group of the parent's
automorphisms: one taking S to S' maps the candidate joined to S onto the
one joined to S', so the orbit's least member, never skipped, is an earlier
isomorphic candidate.  Only a first-seen candidate is built as a ``Graph``.

Certificates: trees use the classic rooted-at-centroid encoding; general
graphs use an individualisation-refinement search for the minimum
upper-triangle bitmask over all relabellings, with twin and automorphism
pruning so that highly symmetric graphs (stars, complete multipartite,
strongly regular) stay cheap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Graph, _bits, _require_int

TREE_MAX_VERTICES = 16
CONNECTED_MAX_VERTICES = 8


# ---------------------------------------------------------------------------
# Canonical certificate for arbitrary graphs.

def _refine(n: int, nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Stable colour refinement: split classes by neighbour-colour multisets.

    Returned colours are dense ranks ordered by (old colour, multiset), so
    the class order is isomorphism-invariant.  A discrete colouring is
    returned at once: refining it again cannot split anything.  A lone
    vertex of colour c keys as ``(c, ())``: no other key starts with c.
    """
    ncolors = len(set(colors))
    while True:
        get, count = colors.__getitem__, colors.count
        keys = [(c, ()) if count(c) == 1 else (c, tuple(sorted(map(get, nb))))
                for c, nb in zip(colors, nbrs)]
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
    return g.n, _canonical_mask(g.n, g.adj, [g.neighbors(u) for u in range(g.n)])[0]


def _orbit(x: int, maps: list[list[int]], seen: bytearray) -> None:
    """Mark in ``seen`` the orbit of x under the group generated by ``maps``
    (``a[y]`` is the image of y), short of the members already marked."""
    orbit = [x]
    for y in orbit:
        for z in [a[y] for a in maps if not seen[a[y]]]:
            seen[z] = 1
            orbit.append(z)


def _canonical_mask(n: int, adj: Sequence[int], nbrs: list[list[int]]) -> tuple[int, list[list[int]]]:
    """The minimum upper-triangle bitmask over the leaves of the
    individualisation-refinement search, and the automorphisms it found;
    ``nbrs[u]`` lists the neighbours of u, in any order.

    Two leaves with the same mask relabel the graph identically, so they
    give an automorphism a, taking each u to ``a[u]``.  A branch vertex
    that an automorphism fixing the node's path maps onto an already tried
    sibling roots a subtree with the same leaf masks, so it is skipped, and
    a new automorphism abandons the subtree of the shallowest branch it
    makes redundant in this way.  A node's colouring is equitable, so
    individualising v first splits each class into v, its neighbours, the rest.
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
        fixed, seen = path[:depth], bytearray(n)
        _orbit(v, [a for a in autos if all(a[u] == u for u in fixed)], seen)
        return any(seen[u] for u in tried[depth] if u != v)

    def dfs(colors: list[int]) -> int:
        # Returns the depth at which the search resumes.
        depth = len(path)
        top = max(colors)
        if top == n - 1:
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
        target = next(c for c in range(n) if colors.count(c) > 1)
        tried.append([])
        for v in [v for v, c in enumerate(colors) if c == target]:
            if any(_twins(adj, u, v) for u in tried[depth]) or autos and redundant(depth, v):
                continue
            tried[depth].append(v)
            path.append(v)
            row = adj[v]
            split = [3 * c + 2 - (row >> x & 1) for x, c in enumerate(colors)]
            split[v] -= 2
            rank = {k: i for i, k in enumerate(sorted(set(split)))}
            split = [rank[k] for k in split]
            back = dfs(split if len(rank) in (top + 2, n) else _refine(n, nbrs, split))
            path.pop()
            if back < depth:
                break
        else:
            back = depth
        tried.pop()
        return back

    dfs(_refine(n, nbrs, [a.bit_count() for a in adj]))
    return leaves[1][0], autos


# ---------------------------------------------------------------------------
# Growing one level from the level below.

def _grow(n: int, parents: Sequence[Graph], neighbourhoods: Callable[..., Iterable[int]],
          key: Callable[..., object]) -> tuple[Graph, ...]:
    """Level n: each parent joined to each mask ``neighbourhoods(m, adj, nbrs)``
    yields, keeping the first graph per ``key(n, rows, cand)``, in key order."""
    m = n - 1
    new = 1 << m
    found: dict[object, Graph] = {}
    for small in parents:
        adj = small.adj
        nbrs = [small.neighbors(u) for u in range(m)]
        for nbhd in neighbourhoods(m, adj, nbrs):
            rows = [row | new if (nbhd >> u) & 1 else row for u, row in enumerate(adj)]
            rows.append(nbhd)
            cand = [nb + [m] if (nbhd >> u) & 1 else nb for u, nb in enumerate(nbrs)]
            cand.append(_bits(nbhd))
            k = key(n, rows, cand)
            if k not in found:
                found[k] = Graph(n, tuple(rows))
    return tuple(found[k] for k in sorted(found))


# ---------------------------------------------------------------------------
# Free trees: centroid certificate plus leaf-extension growth.

def tree_certificate(g: Graph):
    """Canonical encoding of a free tree, rooted at its centroid(s).
    Raises ValueError unless ``g`` is a tree."""
    if g.edge_count() != g.n - 1 or not g.is_connected():
        raise ValueError("tree certificate needs a connected graph with n - 1 edges")
    return _tree_certificate(g.n, [g.neighbors(u) for u in range(g.n)])


def _tree_certificate(n: int, nbrs: list[list[int]]):
    if n == 1:
        return (1,)
    # Breadth first from 0: in a tree the only neighbour already listed is the parent.
    parent = [-1] * n
    order = [0]
    for u in order:
        for w in nbrs[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    centroids = [u for u in range(n) if n - size[u] <= n // 2
                 and all(size[w] <= n // 2 for w in nbrs[u] if w != parent[u])]

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
    return _grow(
        n, _tree_level(n - 1),
        lambda m, adj, nbrs: (1 << v for v, lower in enumerate(_lower_twins(adj)) if not lower),
        lambda n, rows, cand: _tree_certificate(n, cand))


def generate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    _require_int("n", n)
    if not 1 <= n <= TREE_MAX_VERTICES:
        raise ValueError(f"tree generation supports 1 <= n <= {TREE_MAX_VERTICES}")
    yield from _tree_level(n)


# ---------------------------------------------------------------------------
# Connected graphs on up to 8 vertices.

def _orbit_minima(m: int, adj: tuple[int, ...], nbrs: list[list[int]]) -> Iterator[int]:
    """Nonempty neighbourhoods least in their orbit under the orbit rule's group."""
    gens = _canonical_mask(m, adj, nbrs)[1] + [
        [v if w == u else u if w == v else w for w in range(m)]
        for v, lower in enumerate(_lower_twins(adj)) for u in _bits(lower)]
    images = [[0] for _ in gens]  # image[S] = a(S), doubled one vertex at a time
    for a, image in zip(gens, images):
        for u in range(m):
            image += [s | 1 << a[u] for s in image]
    seen = bytearray(1 << m)
    for nbhd in range(1, 1 << m):
        if not seen[nbhd]:
            _orbit(nbhd, images, seen)
            yield nbhd


@lru_cache(maxsize=None)
def _connected_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    return _grow(n, _connected_level(n - 1), _orbit_minima,
                 lambda n, rows, cand: _canonical_mask(n, rows, cand)[0])


def generate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs.

    Built-in up to 8 vertices; larger corpora should be ingested as graph6
    lines from an external generator.
    """
    _require_int("n", n)
    if not 1 <= n <= CONNECTED_MAX_VERTICES:
        raise ValueError(
            f"built-in generation supports 1 <= n <= {CONNECTED_MAX_VERTICES}; "
            "supply larger corpora as graph6 input"
        )
    yield from _connected_level(n)
