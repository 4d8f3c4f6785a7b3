"""Closed-form Smith normal forms for particular graph families, and worked examples.

These are formula-only oracles (no matrix is ever built), used as
independent cross-checks of the generic elimination in ``exact``:

* complete graphs, for both the diagonal-minus and diagonal-plus families,
* stars, for the degree-distance pair,
* the distance matrix of trees, which depends only on the vertex count.

Degenerate tiny parameters are resolved by what direct computation gives
(a trailing formula value of 0 is a genuine zero diagonal entry, and the
two-vertex tree is hard-coded).  ``EXAMPLES`` holds worked examples' values.
"""

from __future__ import annotations

from .exact import SnfResult
from .graphs import _require_int, cricket_graph, cycle_graph, path_graph
from .matrices import MatrixKind

MINUS_FAMILY = (MatrixKind.Atr, MatrixKind.Ddeg, MatrixKind.L)
PLUS_FAMILY = (MatrixKind.AtrPlus, MatrixKind.DdegPlus, MatrixKind.Q)
STAR_FAMILY = (MatrixKind.Ddeg, MatrixKind.DdegPlus)

# The worked examples as (name, graph, wants): a kind's Smith diagonal, the cone
# Laplacian's ("cone"), or ``sandpile_group``'s ((torsion, free rank), tree count),
# Z_7 + Z_812 for the cricket.  P3 shares K3's DdegPlus Smith form (1, 1, 4).
EXAMPLES = (
    ("cricket", cricket_graph(), {"Atr": (1, 1, 1, 7, 812), "cone": (1, 1, 1, 7, 812, 0),
                                  "sandpile": (((7, 812), 0), 5684)}),
    ("C5", cycle_graph(5), {"A": (1, 1, 1, 1, 2), "L": (1, 1, 1, 5, 0),
                            "Atr": (1, 1, 1, 41, 164), "AtrPlus": (1, 1, 1, 29, 232)}),
    ("P3", path_graph(3), {"DdegPlus": (1, 1, 4)}),
)


def _as_result(diagonal: list[int], n: int) -> SnfResult:
    factors = tuple(d for d in diagonal if d)
    return SnfResult(factors, n - len(factors), n)


def snf_complete(kind: MatrixKind, n: int) -> SnfResult:
    """SNF of the chosen matrix of the complete graph on n >= 2 vertices.

    On complete graphs the transmission-adjacency, degree-distance and
    Laplacian matrices coincide, with SNF diag(1, n, ..., n, 0); their
    signless counterparts coincide with SNF diag(1, n-2, ..., n-2,
    2(n-1)(n-2)).
    """
    _require_int("n", n)
    if n < 2:
        raise ValueError("complete-graph formulas need n >= 2")
    if kind in MINUS_FAMILY:
        return _as_result([1] + [n] * (n - 2) + [0], n)
    if kind in PLUS_FAMILY:
        return _as_result([1] + [n - 2] * (n - 2) + [2 * (n - 1) * (n - 2)], n)
    raise ValueError(f"no complete-graph closed form for kind {kind.value}")


def snf_star(kind: MatrixKind, m: int) -> SnfResult:
    """SNF of the degree-distance matrices of the star with m >= 1 leaves.

    The plus form is diag(1, ..., 1, 2m(m-1)); the minus form splits on
    whether 3 divides 2m + 1:

        diag(1, 3, ..., 3, 2m(m-1))     when 3 | 2m + 1,
        diag(1, 1, 3, ..., 3, 6m(m-1))  otherwise.
    """
    _require_int("m", m)
    if m < 1:
        raise ValueError("star formulas need at least one leaf")
    n = m + 1
    if kind is MatrixKind.DdegPlus:
        return _as_result([1] * m + [2 * m * (m - 1)], n)
    if kind is MatrixKind.Ddeg:
        if (2 * m + 1) % 3 == 0:
            return _as_result([1] + [3] * (m - 1) + [2 * m * (m - 1)], n)
        return _as_result([1, 1] + [3] * (m - 2) + [6 * m * (m - 1)], n)
    raise ValueError(f"no star closed form for kind {kind.value}")


def snf_tree_distance(n_plus_1: int) -> SnfResult:
    """SNF of the distance matrix of any tree on ``n_plus_1`` vertices:
    diag(1, 1, 2, ..., 2, 2n) with n = n_plus_1 - 1.  Every tree of a given
    order shares it.  The two-vertex case degenerates to diag(1, 1).
    """
    _require_int("n_plus_1", n_plus_1)
    if n_plus_1 < 2:
        raise ValueError("tree distance formula needs at least 2 vertices")
    n = n_plus_1 - 1
    if n == 1:
        return SnfResult((1, 1), 0, 2)
    return _as_result([1, 1] + [2] * (n - 2) + [2 * n], n_plus_1)


def det_tree_distance(n_plus_1: int) -> int:
    """Determinant of the distance matrix of any tree on n+1 vertices:
    (-1)^n * n * 2^(n-1)."""
    _require_int("n_plus_1", n_plus_1)
    if n_plus_1 < 1:
        raise ValueError("need at least 1 vertex")
    n = n_plus_1 - 1
    if n == 0:
        return 0
    return (-1) ** n * n * (1 << (n - 1))
