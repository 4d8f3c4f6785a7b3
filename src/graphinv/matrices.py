"""Exact integer matrices derived from a graph.

Every kind is an optional diagonal part plus or minus an off-diagonal part:

    A            adjacency
    L  = deg - A        Q  = deg + A
    D            distance
    DL = tr - D         DQ = tr + D
    Atr = tr - A        AtrPlus  = tr + A
    Ddeg = deg - D      DdegPlus = deg + D

``RECIPES`` holds that split for each kind as a triple (diagonal source,
sign, off-diagonal source), and ``build_kinds`` runs one code path for all
of them, building any number of kinds of one graph at once; ``build`` is
its one-kind case.  The diagonal R = tr - deg of the paper's split Atr =
L + R is no kind: ``DistanceProfile.r`` holds it.  A kind needs a
``DistanceProfile``, and so a connected graph, when its diagonal uses
transmissions or its off-diagonal part uses distances; ``A``, ``L`` and
``Q`` work on any graph.

Entries are plain Python ints, so nothing ever overflows downstream in the
Smith normal form or characteristic polynomial computations.
"""

from __future__ import annotations

from enum import Enum
from operator import mul, neg
from typing import Sequence

from .graphs import DistanceProfile, Graph, distance_profile

IntMatrix = list[list[int]]


class MatrixKind(Enum):
    # Members are singletons and compare by identity, so hash them by identity
    # too: a C-level hash in place of Enum.__hash__, which is Python code.
    __hash__ = object.__hash__

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
    kinds should supply one, or call ``build_kinds``.
    """
    return build_kinds(g, (kind,), profile)[0]


def build_kinds(g: Graph, kinds: Sequence[MatrixKind],
                profile: DistanceProfile | None = None) -> list[IntMatrix]:
    """The matrices of ``g`` for ``kinds``, in that order, each with its own
    row lists.  The 0/1 adjacency rows are extracted once for all the kinds
    that read them, and a distance profile is taken, unless given, only if
    some kind reads transmissions or distances."""
    recipes = list(map(RECIPES.get, kinds))
    if None in recipes:
        raise ValueError(f"unknown matrix kind {kinds[recipes.index(None)]!r}")
    if profile is None and any(diagonal == "tr" or off == "D" for diagonal, _, off in recipes):
        profile = distance_profile(g)  # raises on a disconnected graph
    n = g.n
    adjacency = None
    matrices = []
    for diagonal, sign, off in recipes:
        if off == "D":
            rows = profile.dist
        else:
            if adjacency is None:
                adjacency = [[(a >> v) & 1 for v in range(n)] for a in g.adj]
            rows = adjacency
        m = [list(map(neg, row)) for row in rows] if sign < 0 else [list(row) for row in rows]
        if diagonal is not None:
            for u, x in enumerate(profile.tr if diagonal == "tr" else g.degree_sequence()):
                m[u][u] = x
        matrices.append(m)
    return matrices


# ---------------------------------------------------------------------------
# Generic helpers on dense integer matrices.

def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))  # a b with no rows has no columns
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def trace(m: IntMatrix) -> int:
    return sum(m[i][i] for i in range(len(m)))
