import random

import pytest

from graphinv.graphs import (
    complete_graph,
    cricket_graph,
    cycle_graph,
    distance_profile,
    graph_from_edges,
)
from graphinv.generators import generate_connected_graphs, generate_trees
from graphinv.census import BIPARTITE_TWINS
from graphinv.matrices import RECIPES, MatrixKind, build, mat_mul
from oracles import build_reference, is_symmetric, mat_add, mat_mul_reference, permuted, row_sums

ALL_KINDS = list(MatrixKind)


def test_cricket_transmission_adjacency_matrix():
    want = [
        [6, 0, 0, -1, -1],
        [0, 7, 0, 0, -1],
        [0, 0, 7, 0, -1],
        [-1, 0, 0, 6, -1],
        [-1, -1, -1, -1, 4],
    ]
    assert build(cricket_graph(), MatrixKind.Atr) == want


def test_complete_graph_coincidences():
    for n in range(2, 7):
        kn = complete_graph(n)
        assert build(kn, MatrixKind.Atr) == build(kn, MatrixKind.Ddeg) == build(kn, MatrixKind.L)
        assert build(kn, MatrixKind.AtrPlus) == build(kn, MatrixKind.DdegPlus) == build(kn, MatrixKind.Q)


def test_single_vertex_distance():
    assert build(complete_graph(1), MatrixKind.D) == [[0]]


def test_row_sums():
    for n in range(2, 6):
        for g in generate_connected_graphs(n):
            assert row_sums(build(g, MatrixKind.L)) == [0] * n
    assert row_sums(build(cycle_graph(5), MatrixKind.Atr)) == [4] * 5
    assert row_sums(build(complete_graph(4), MatrixKind.Atr)) == [0] * 4


def test_laplacian_decomposition_of_atr():
    # tr(G) - A splits as (deg(G) - A) + diag(tr - deg) entrywise.
    for n in range(2, 9):
        for g in generate_connected_graphs(n):
            prof = distance_profile(g)
            lhs = build(g, MatrixKind.Atr, prof)
            r = [[x if u == v else 0 for v in range(n)] for u, x in enumerate(prof.r)]
            assert lhs == mat_add(build(g, MatrixKind.L, prof), r)


def test_plus_minus_pairs_sum_to_doubled_diagonal():
    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            prof = distance_profile(g)
            s = mat_add(build(g, MatrixKind.Ddeg, prof), build(g, MatrixKind.DdegPlus, prof))
            assert s == [[2 * prof.deg[u] if u == v else 0 for v in range(n)] for u in range(n)]
            s = mat_add(build(g, MatrixKind.Atr, prof), build(g, MatrixKind.AtrPlus, prof))
            assert s == [[2 * prof.tr[u] if u == v else 0 for v in range(n)] for u in range(n)]


def test_every_kind_is_diagonal_plus_or_minus_off_diagonal():
    # Every kind is X + s*B: X a diagonal of zeros, degrees or transmissions,
    # s = +-1, and B = A or D, each with a zero diagonal.  A bipartite twin
    # pair differs only in the sign of A, which conjugating by the +-1
    # diagonal S of a 2-colouring negates.
    assert list(RECIPES) == ALL_KINDS
    for kind, (diagonal, sign, off) in RECIPES.items():
        assert diagonal in (None, "deg", "tr") and sign in (1, -1) and off in ("A", "D"), kind
    for key, twin in BIPARTITE_TWINS.items():
        (d1, s1, o1), (d2, s2, o2) = RECIPES[key], RECIPES[twin]
        assert d1 == d2 and o1 == o2 == "A" and s1 == -s2, key


def test_all_kinds_symmetric():
    for g in (cricket_graph(), cycle_graph(6), complete_graph(5)):
        for kind in ALL_KINDS:
            assert is_symmetric(build(g, kind))


def test_permutation_equivariance():
    rng = random.Random(3)
    for g in (cricket_graph(), cycle_graph(6)):
        prof = distance_profile(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        for kind in ALL_KINDS:
            m = build(g, kind, prof)
            mh = build(h, kind)
            for u in range(g.n):
                for v in range(g.n):
                    assert mh[perm[u]][perm[v]] == m[u][v]


def test_distance_kinds_reject_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    for kind in (MatrixKind.D, MatrixKind.Atr, MatrixKind.Ddeg):
        with pytest.raises(ValueError, match="not connected"):
            build(g, kind)
    # purely adjacency-based kinds tolerate disconnected graphs
    assert build(g, MatrixKind.A)[0][1] == 1
    assert row_sums(build(g, MatrixKind.L)) == [0] * 4


def test_build_matches_reference():
    corpus = [g for n in range(1, 8) for g in generate_connected_graphs(n)]
    corpus += [t for n in range(2, 11) for t in generate_trees(n)]
    for g in corpus:
        prof = distance_profile(g)
        for kind in ALL_KINDS:
            want = build_reference(g, kind)
            assert build(g, kind) == want
            assert build(g, kind, prof) == want


def test_build_matches_reference_on_disconnected_graph():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for kind in (MatrixKind.A, MatrixKind.L, MatrixKind.Q):
        assert build(g, kind) == build_reference(g, kind)


def test_mat_mul_matches_triple_loop():
    rng = random.Random(5)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)) for _ in range(200)]
    for rows, inner, cols in shapes:
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        assert mat_mul(a, b) == mat_mul_reference(a, b)
