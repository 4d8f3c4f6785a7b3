"""Exact integer matrices derived from a graph.

Every kind is an optional diagonal part plus or minus an off-diagonal part:

    A            adjacency
    L  = deg - A        Q  = deg + A
    D            distance
    DL = tr - D         DQ = tr + D
    Atr = tr - A        AtrPlus  = tr + A
    Ddeg = deg - D      DdegPlus = deg + D

``RECIPES`` holds that split for each kind as a triple (diagonal source,
sign, off-diagonal source), and ``build`` runs one code path for all of
them.  The diagonal R = tr - deg of the paper's split Atr = L + R is no
kind: ``DistanceProfile.r`` holds it.  A kind needs a ``DistanceProfile``,
and so a connected graph, when its diagonal uses transmissions or its
off-diagonal part uses distances; ``A``, ``L`` and ``Q`` work on any graph.

Entries are plain Python ints, so nothing ever overflows downstream in the
Smith normal form or characteristic polynomial computations.
"""

from __future__ import annotations

from enum import Enum
from operator import mul, neg

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


# kind -> (diagonal source: None for zero, "deg" for degrees, "tr" for
# transmissions; sign of the off-diagonal part, +1 or -1; off-diagonal
# source: "A" for adjacency, "D" for distances).
RECIPES: dict[MatrixKind, tuple[str | None, int, str]] = {
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
    if profile is None and (diagonal == "tr" or off == "D"):
        profile = distance_profile(g)  # raises on a disconnected graph
    n = g.n
    rows = profile.dist if off == "D" else [[(a >> v) & 1 for v in range(n)] for a in g.adj]
    m = [list(map(neg, row)) for row in rows] if sign < 0 else [list(row) for row in rows]
    if diagonal is not None:
        for u, x in enumerate(profile.tr if diagonal == "tr" else g.degree_sequence()):
            m[u][u] = x
    return m


# ---------------------------------------------------------------------------
# Generic helpers on dense integer matrices.

def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))  # a b with no rows has no columns
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def trace(m: IntMatrix) -> int:
    return sum(m[i][i] for i in range(len(m)))
