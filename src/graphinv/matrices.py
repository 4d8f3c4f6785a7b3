"""Exact integer matrices derived from a graph.

Ten symmetric matrix kinds are supported, all combinations of a diagonal
part (degrees or transmissions) with an off-diagonal part (adjacency or
distances), plus the bare building blocks:

    A            adjacency
    L  = deg - A        Q  = deg + A
    D            distance
    DL = tr - D         DQ = tr + D
    Atr = tr - A        AtrPlus  = tr + A
    Ddeg = deg - D      DdegPlus = deg + D
    R  = tr - deg       (diagonal)

Entries are plain Python ints, so nothing ever overflows downstream in the
Smith normal form or characteristic polynomial computations.
"""

from __future__ import annotations

from enum import Enum

from .graphs import DistanceProfile, Graph, distance_profile

IntMatrix = list[list[int]]


class MatrixKind(Enum):
    A = "A"
    L = "L"
    Q = "Q"
    D = "D"
    DL = "DL"
    DQ = "DQ"
    Atr = "Atr"
    AtrPlus = "AtrPlus"
    Ddeg = "Ddeg"
    DdegPlus = "DdegPlus"
    R = "R"


KIND_ORDER = tuple(MatrixKind)

# Kinds whose definition involves distances or transmissions; these require
# a connected graph (distance_profile raises otherwise).
DISTANCE_KINDS = frozenset({
    MatrixKind.D, MatrixKind.DL, MatrixKind.DQ,
    MatrixKind.Atr, MatrixKind.AtrPlus,
    MatrixKind.Ddeg, MatrixKind.DdegPlus,
    MatrixKind.R,
})


def build(g: Graph, kind: MatrixKind, profile: DistanceProfile | None = None) -> IntMatrix:
    """Construct the requested matrix of ``g`` with exact integer entries.

    A precomputed ``profile`` skips the per-call BFS; callers looping over
    kinds should supply one.
    """
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


def row_sums(m: IntMatrix) -> list[int]:
    return [sum(row) for row in m]


# ---------------------------------------------------------------------------
# Generic helpers on dense integer matrices.

def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_o = out[i]
        for t in range(k):
            x = row_a[t]
            if x:
                row_b = b[t]
                for j in range(m):
                    row_o[j] += x * row_b[j]
    return out


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(m: IntMatrix) -> int:
    return sum(m[i][i] for i in range(len(m)))


def is_symmetric(m: IntMatrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
