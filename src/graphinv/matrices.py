"""Exact integer matrices derived from a graph.

Every kind is a diagonal part plus or minus an off-diagonal part, or one
of the bare building blocks:

    A            adjacency
    L  = deg - A        Q  = deg + A
    D            distance
    DL = tr - D         DQ = tr + D
    Atr = tr - A        AtrPlus  = tr + A
    Ddeg = deg - D      DdegPlus = deg + D
    R  = tr - deg       (diagonal)

``RECIPES`` holds that split for each kind as a triple (diagonal source,
sign, off-diagonal source), and ``build`` runs one code path for all of
them.  A kind needs a ``DistanceProfile``, and so a connected graph, when
its diagonal uses transmissions or its off-diagonal part uses distances;
``A``, ``L`` and ``Q`` work on any graph.

Entries are plain Python ints, so nothing ever overflows downstream in the
Smith normal form or characteristic polynomial computations.
"""

from __future__ import annotations

from enum import Enum
from operator import mul, neg, sub

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


# Diagonal sources, by the name ``RECIPES`` uses; a diagonal of None is zero.
_DIAGONALS = {
    "deg": lambda g, profile: g.degree_sequence(),
    "tr": lambda g, profile: profile.tr,
    "tr - deg": lambda g, profile: map(sub, profile.tr, profile.deg),
}

# kind -> (diagonal source, sign of the off-diagonal part, off-diagonal
# source: "A" for adjacency, "D" for distances, None with sign 0 for none).
RECIPES: dict[MatrixKind, tuple[str | None, int, str | None]] = {
    MatrixKind.A: (None, 1, "A"),
    MatrixKind.L: ("deg", -1, "A"),
    MatrixKind.Q: ("deg", 1, "A"),
    MatrixKind.D: (None, 1, "D"),
    MatrixKind.DL: ("tr", -1, "D"),
    MatrixKind.DQ: ("tr", 1, "D"),
    MatrixKind.Atr: ("tr", -1, "A"),
    MatrixKind.AtrPlus: ("tr", 1, "A"),
    MatrixKind.Ddeg: ("deg", -1, "D"),
    MatrixKind.DdegPlus: ("deg", 1, "D"),
    MatrixKind.R: ("tr - deg", 0, None),
}


def build(g: Graph, kind: MatrixKind, profile: DistanceProfile | None = None) -> IntMatrix:
    """Construct the requested matrix of ``g`` with exact integer entries.

    A precomputed ``profile`` skips the per-call BFS; callers looping over
    kinds should supply one.
    """
    recipe = RECIPES.get(kind)
    if recipe is None:
        raise ValueError(f"unknown matrix kind {kind!r}")
    diagonal, sign, off = recipe
    if profile is None and (diagonal in ("tr", "tr - deg") or off == "D"):
        profile = distance_profile(g)  # raises on a disconnected graph
    n = g.n
    if sign == 0:
        m = [[0] * n for _ in range(n)]
    else:
        rows = profile.dist if off == "D" else [[(a >> v) & 1 for v in range(n)] for a in g.adj]
        m = [list(map(neg, row)) for row in rows] if sign < 0 else [list(row) for row in rows]
    if diagonal is not None:
        for u, x in enumerate(_DIAGONALS[diagonal](g, profile)):
            m[u][u] = x
    return m


# ---------------------------------------------------------------------------
# Generic helpers on dense integer matrices.

def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))  # a b with no rows has no columns
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def trace(m: IntMatrix) -> int:
    return sum(m[i][i] for i in range(len(m)))
