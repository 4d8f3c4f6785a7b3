"""Independent brute-force oracles for the test suite.

Deliberately naive implementations (Laplace cofactor expansion, explicit
minor enumeration, Floyd-Warshall, subset sweeps, the triple-loop matrix
product, the plain-loop Berkowitz recurrence, the full-column Smith normal
form loop, the plain Jacobi rotation loop, the per-kind matrix builder, the
unpruned graph generators and their canonical search) that
share no code with the library paths they check, beyond the distance
profile the builder reads, the Smith form's square check and result type,
the Jacobi tolerance, sweep cap and result type, and the ``Graph`` type and
tree certificate the generators use.  The census reference tallies full
fingerprints from the library's ``build``, ``snf`` and ``charpoly``, which
have oracles of their own here, and checks only the census's key chain and
bipartite twins.  The edge test, the relabelling that tests apply to graphs
and the reduced Laplacian of a cone live here too.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from graphinv import spectra
from graphinv.census import MODES, CensusEntry, CensusReport
from graphinv.exact import SnfResult, _check_square, charpoly, snf
from graphinv.generators import tree_certificate
from graphinv.graphs import Graph, distance_profile, graph_from_edges
from graphinv.matrices import MatrixKind, build


# Polynomials as ascending coefficient lists over the integers.

def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def poly_neg(a):
    return [-x for x in a]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_eval(p, x):
    """Horner evaluation of an IntPolynomial (descending coefficients) at x."""
    acc = 0
    for c in p.coeffs:
        acc = acc * x + c
    return acc


def det_poly(rows):
    """Laplace expansion along the first row of a polynomial matrix."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = [0]
    for j in range(n):
        entry = rows[0][j]
        if entry == [0] or not any(entry):
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = poly_mul(entry, det_poly(minor))
        if j % 2:
            term = poly_neg(term)
        total = poly_add(total, term)
    return total


def charpoly_cofactor(m) -> tuple[int, ...]:
    """det(xI - m) by symbolic cofactor expansion; descending coefficients."""
    n = len(m)
    rows = [
        [[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(n)]
        for i in range(n)
    ]
    coeffs = det_poly(rows)
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    return tuple(reversed(coeffs))


def charpoly_berkowitz_reference(m) -> tuple[int, ...]:
    """det(xI - m) by the plain-loop form of the Berkowitz recurrence that
    ``exact.charpoly`` computes with pre-sliced blocks and ``map``;
    descending coefficients.  Kept as the reference the fast form must
    match coefficient for coefficient."""
    n = len(m)
    coeffs = [1]
    for k in range(n):
        a = m[k][k]
        row = m[k][:k]
        col = [m[i][k] for i in range(k)]
        diags = [1, -a]
        w = col
        for step in range(k):
            diags.append(-sum(r * x for r, x in zip(row, w)))
            if step + 1 < k:
                w = [sum(m[i][j] * w[j] for j in range(k)) for i in range(k)]
        new = [0] * (k + 2)
        for j, c in enumerate(coeffs):
            if c:
                for d in range(min(len(diags), k + 2 - j)):
                    new[j + d] += diags[d] * c
        coeffs = new
    return tuple(coeffs)


def snf_reference(m) -> SnfResult:
    """Smith normal form over the integers.

    Diagonalises with Euclidean row/column reduction, always pivoting on
    the entry of smallest nonzero absolute value (keeps intermediate
    growth tame at the sizes used here), then restores the divisibility
    chain with pairwise gcd/lcm exchanges on the diagonal.

    The full-column form of ``exact.snf``, kept verbatim as the reference
    its pivot-row column pass must match result for result.
    """
    n = _check_square(m)
    a = [list(row) for row in m]
    rank = 0
    for t in range(n):
        # Locate the minimal-magnitude nonzero entry of the trailing block.
        pi = pj = -1
        pbest = 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if pbest == 0 or x < pbest:
                        pbest = x
                        pi, pj = i, j
        if pi < 0:
            break
        rank += 1
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                x = a[i][t]
                if x:
                    q = x // pivot
                    if q:
                        row_i, row_t = a[i], a[t]
                        for j in range(t, n):
                            row_i[j] -= q * row_t[j]
                    if a[i][t]:
                        # Remainder is strictly smaller: promote it.
                        a[i], a[t] = a[t], a[i]
                        dirty = True
                        break
            if dirty:
                continue
            row_t = a[t]
            pivot = row_t[t]
            for j in range(t + 1, n):
                x = row_t[j]
                if x:
                    q = x // pivot
                    if q:
                        for i in range(t, n):
                            a[i][j] -= q * a[i][t]
                    if row_t[j]:
                        for i in range(t, n):
                            a[i][j], a[i][t] = a[i][t], a[i][j]
                        dirty = True
                        break
            if not dirty:
                break
    fs = sorted(abs(a[i][i]) for i in range(rank))
    # diag(a, b) ~ diag(gcd, lcm): one forward sweep yields the chain.
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if fs[j] % fs[i]:
                g = gcd(fs[i], fs[j])
                fs[i], fs[j] = g, fs[i] // g * fs[j]
    return SnfResult(tuple(fs), n - rank, n)


def det_cofactor(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
            term = m[0][j] * det_cofactor(minor)
            total += -term if j % 2 else term
    return total


def minor_gcd(m, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    n = len(m)
    g = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(n), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = gcd(g, det_cofactor(sub))
            if g == 1:
                return 1
    return g


def has_edge(g, u: int, v: int) -> bool:
    return bool((g.adj[u] >> v) & 1)


def permuted(g, perm) -> Graph:
    """Relabel: vertex u of ``g`` becomes perm[u]."""
    perm = list(perm)
    rows = [0] * g.n
    for u in range(g.n):
        row = 0
        old = g.adj[u]
        v = 0
        while old:
            if old & 1:
                row |= 1 << perm[v]
            old >>= 1
            v += 1
        rows[perm[u]] = row
    return Graph(g.n, tuple(rows))


def triangular_and_chang_graphs() -> list[Graph]:
    """T(8), the line graph of K8, then the three Chang graphs: all four are
    strongly regular with parameters (28, 12, 6, 4) and pairwise
    non-isomorphic.  Each Chang graph is T(8) Seidel-switched on the K8 edges
    of a perfect matching, an 8-cycle or a 3-cycle plus a 5-cycle."""
    pairs = list(combinations(range(8), 2))
    index = {p: i for i, p in enumerate(pairs)}
    t8 = {(i, j) for i, j in combinations(range(28), 2) if set(pairs[i]) & set(pairs[j])}
    switch_sets = (
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        [(i, i + 1) for i in range(7)] + [(0, 7)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    )
    graphs = [graph_from_edges(28, t8)]
    for switched in switch_sets:
        inside = {index[e] for e in switched}
        flips = {(i, j) for i, j in combinations(range(28), 2) if (i in inside) != (j in inside)}
        graphs.append(graph_from_edges(28, t8 ^ flips))
    return graphs


def rook_and_shrikhande_graphs() -> list[Graph]:
    """The 4x4 rook graph and the Shrikhande graph, both strongly regular
    with parameters (16, 6, 2, 2) and not isomorphic."""
    rook = [(i, j) for i, j in combinations(range(16), 2) if i // 4 == j // 4 or i % 4 == j % 4]
    shrikhande = set()
    for x in range(16):
        a, b = divmod(x, 4)
        for da, db in ((0, 1), (1, 0), (1, 1)):
            y = (a + da) % 4 * 4 + (b + db) % 4
            shrikhande.add((min(x, y), max(x, y)))
    return [graph_from_edges(16, rook), graph_from_edges(16, shrikhande)]


def distances_floyd_warshall(g):
    """All-pairs distances; None entries mark unreachable pairs."""
    n = g.n
    inf = n + 1
    d = [[0 if i == j else (1 if has_edge(g, i, j) else inf) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return [[None if x == inf else x for x in row] for row in d]


def conductance_bruteforce(g):
    """Minimum |boundary|/|S| over nonempty S with |S| <= n/2, via explicit
    vertex-set enumeration and edge loops."""
    n = g.n
    edges = g.edges()
    best = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            boundary = sum(1 for u, v in edges if (u in s) != (v in s))
            ratio = Fraction(boundary, size)
            if best is None or ratio < best:
                best = ratio
    return best


def conductance_fraction_loop(g):
    """The mask sweep of ``graphs.conductance`` with one ``Fraction`` per
    subset: the minimum ratio and the first subset, in mask order, that
    attains it."""
    n = g.n
    best = None
    best_set = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > n // 2:
            continue
        boundary = 0
        for u in range(n):
            if (mask >> u) & 1:
                boundary += (g.adj[u] & ~mask).bit_count()
        ratio = Fraction(boundary, size)
        if best is None or ratio < best:
            best = ratio
            best_set = mask
    return best, tuple(u for u in range(n) if (best_set >> u) & 1)


# Kinds whose definition involves distances or transmissions; these require
# a connected graph (distance_profile raises otherwise).
DISTANCE_KINDS = frozenset({
    MatrixKind.D, MatrixKind.DL, MatrixKind.DQ,
    MatrixKind.Atr, MatrixKind.AtrPlus,
    MatrixKind.Ddeg, MatrixKind.DdegPlus,
    MatrixKind.R,
})


def build_reference(g, kind, profile=None):
    """The per-kind branch form of ``matrices.build``, kept as the reference
    the table-driven form must match entry for entry."""
    n = g.n
    if kind in DISTANCE_KINDS:
        if profile is None:
            profile = distance_profile(g)
        dist, tr, deg = profile.dist, profile.tr, profile.deg
    else:
        dist, tr = None, None
        deg = g.degree_sequence()

    if kind is MatrixKind.A:
        return [[(g.adj[u] >> v) & 1 for v in range(n)] for u in range(n)]
    if kind is MatrixKind.L:
        return [
            [deg[u] if u == v else -((g.adj[u] >> v) & 1) for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.Q:
        return [
            [deg[u] if u == v else (g.adj[u] >> v) & 1 for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.D:
        return [list(row) for row in dist]
    if kind is MatrixKind.DL:
        return [
            [tr[u] if u == v else -dist[u][v] for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.DQ:
        return [
            [tr[u] if u == v else dist[u][v] for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.Atr:
        return [
            [tr[u] if u == v else -((g.adj[u] >> v) & 1) for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.AtrPlus:
        return [
            [tr[u] if u == v else (g.adj[u] >> v) & 1 for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.Ddeg:
        return [
            [deg[u] if u == v else -dist[u][v] for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.DdegPlus:
        return [
            [deg[u] if u == v else dist[u][v] for v in range(n)]
            for u in range(n)
        ]
    if kind is MatrixKind.R:
        return [
            [tr[u] - deg[u] if u == v else 0 for v in range(n)]
            for u in range(n)
        ]
    raise ValueError(f"unknown matrix kind {kind!r}")


@lru_cache(maxsize=None)
def full_fingerprints(g, kinds) -> tuple:
    """Per kind, the full Smith form and charpoly coefficients of g's
    matrix, each matrix built from g itself.  Cached, since two tests
    check the census against the same trees."""
    profile = distance_profile(g)
    return tuple((snf(m), charpoly(m).coeffs) for m in (build(g, kind, profile) for kind in kinds))


def mate_counts_reference(graphs, kinds) -> CensusReport:
    """``run_census(graphs, kinds)`` without its key chain or bipartite
    twins: every graph's ``full_fingerprints``, counted in one table per
    (kind, mode)."""
    kinds = tuple(kinds)
    tables = {(kind, mode): Counter() for kind in kinds for mode in MODES}
    total = 0
    for g in graphs:
        total += 1
        for kind, (invariants, coeffs) in zip(kinds, full_fingerprints(g, kinds)):
            tables[(kind, "spectral")][coeffs] += 1
            tables[(kind, "invariant")][invariants] += 1
    return CensusReport(g.n, total, tuple(
        CensusEntry(kind, mode, sum(c for c in tables[(kind, mode)].values() if c >= 2), total)
        for kind in MatrixKind for mode in MODES if (kind, mode) in tables))


# Dense integer matrix helpers that only the tests use.

def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_reference(a, b):
    """The row-by-row triple loop for ``matrices.mat_mul``."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x:
                for j in range(m):
                    out[i][j] += x * b[t][j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def row_sums(m) -> list[int]:
    return [sum(row) for row in m]


def is_symmetric(m) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def reduced_laplacian(h, q: int):
    """Laplacian of the multigraph ``h`` with row and column ``q`` deleted."""
    lap = h.laplacian()
    keep = [i for i in range(h.n) if i != q]
    return [[lap[i][j] for j in keep] for i in keep]


# The cyclic Jacobi loop with its per-k index test and repeated row lookups.

def eigenvalues_symmetric_reference(m) -> spectra.Spectrum:
    """The plain rotation loop for ``spectra.eigenvalues_symmetric``; it
    reads ``spectra.JACOBI_MAX_SWEEPS`` at call time, as the library does."""
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix not symmetric")
    tol = spectra.default_tol(m)
    threshold = tol * tol
    a = [[float(x) for x in row] for row in m]
    if n == 1:
        return spectra.Spectrum((a[0][0],), tol)
    for sweep in range(spectra.JACOBI_MAX_SWEEPS + 1):
        off = 0.0
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                off += 2.0 * row_p[q] * row_p[q]
        if off < threshold:
            break
        if sweep == spectra.JACOBI_MAX_SWEEPS:
            raise ValueError(f"Jacobi iteration did not converge within {spectra.JACOBI_MAX_SWEEPS} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q][q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
    return spectra.Spectrum(tuple(sorted(a[i][i] for i in range(n))), tol)


# Isomorph-free generation without twin pruning, and the canonical search
# that decodes every neighbour list from the adjacency rows.

def _refine_reference(n, nbrs, colors):
    ncolors = len(set(colors))
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v])))
            for v in range(n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def _twins_reference(adj, u, v):
    mask = ~((1 << u) | (1 << v))
    return (adj[u] & mask) == (adj[v] & mask)


def canonical_key_reference(g):
    """(n, minimum upper-triangle bitmask over the search's leaves), by the
    individualisation-refinement search with full re-refinement."""
    n = g.n
    if n == 1:
        return 1, 0
    adj = g.adj
    nbrs = [[v for v in range(n) if (adj[u] >> v) & 1] for u in range(n)]
    colors = _refine_reference(n, nbrs, [adj[u].bit_count() for u in range(n)])
    best = None

    def leaf_mask(colors):
        vert_at = [0] * n
        for v in range(n):
            vert_at[colors[v]] = v
        mask = 0
        bit = 0
        for i in range(n):
            row = adj[vert_at[i]]
            for j in range(i + 1, n):
                if (row >> vert_at[j]) & 1:
                    mask |= 1 << bit
                bit += 1
        return mask

    def dfs(colors):
        nonlocal best
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            mask = leaf_mask(colors)
            if best is None or mask < best:
                best = mask
            return
        cell = [v for v in range(n) if colors[v] == target]
        tried = []
        for v in cell:
            if any(_twins_reference(adj, u, v) for u in tried):
                continue
            tried.append(v)
            branched = [2 * c for c in colors]
            branched[v] -= 1
            dfs(_refine_reference(n, nbrs, branched))

    dfs(colors)
    return n, best


def connected_candidates(small):
    """Every one-vertex extension of ``small``: the new vertex n-1 joined
    to each nonempty ``nbhd`` in increasing order."""
    n = small.n + 1
    for nbhd in range(1, 1 << (n - 1)):
        rows = [small.adj[u] | (((nbhd >> u) & 1) << (n - 1)) for u in range(n - 1)]
        rows.append(nbhd)
        yield Graph(n, tuple(rows))


@lru_cache(maxsize=None)
def connected_level_reference(n):
    """First-seen representative of each class over every extension of
    every graph one size down, sorted by canonical key."""
    if n == 1:
        return (Graph(1, (0,)),)
    found = {}
    for small in connected_level_reference(n - 1):
        for g in connected_candidates(small):
            found.setdefault(canonical_key_reference(g), g)
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def tree_level_reference(n):
    """First-seen representative of each class over every leaf attachment
    to every tree one size down, sorted by certificate."""
    if n == 1:
        return (Graph(1, (0,)),)
    found = {}
    for small in tree_level_reference(n - 1):
        for v in range(n - 1):
            rows = list(small.adj) + [1 << v]
            rows[v] |= 1 << (n - 1)
            g = Graph(n, tuple(rows))
            found.setdefault(tree_certificate(g), g)
    return tuple(found[c] for c in sorted(found))
