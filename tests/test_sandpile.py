import pytest

from graphinv import matrices, sandpile, spectra
from graphinv.exact import SnfResult, cokernel, determinant, snf
from graphinv.generators import generate_connected_graphs
from graphinv.graphs import complete_graph, cricket_graph, cycle_graph, distance_profile, path_graph
from graphinv.matrices import MatrixKind, build
from graphinv.sandpile import cone_graph, cross_check, sandpile_group
from graphinv.spectra import GraphSpectra
from oracles import reduced_laplacian


def test_cone_graph_cricket():
    h = cone_graph(cricket_graph())
    assert h.n == 6
    apex = [h.mult[u][5] for u in range(5)]
    assert apex == [4, 6, 6, 4, 0]
    assert h.mult[5][5] == 0


def test_cone_graph_cycle_and_path():
    h = cone_graph(cycle_graph(5))
    assert [h.mult[u][5] for u in range(5)] == [4] * 5
    h = cone_graph(path_graph(3))
    assert [h.mult[u][3] for u in range(3)] == [2, 0, 2]


def test_cone_rejects_complete():
    for n in range(2, 6):
        for fn in (cone_graph, sandpile_group):
            with pytest.raises(ValueError, match="isolated"):
                fn(complete_graph(n))
        with pytest.raises(ValueError, match="isolated"):
            cross_check(GraphSpectra(complete_graph(n)))


def test_sandpile_group_cycle5():
    group, tau = sandpile_group(cycle_graph(5))
    assert group.torsion == (41, 164)
    assert tau == 41 * 164


def test_cross_check_examples():
    assert cross_check(GraphSpectra(cricket_graph()))
    assert cross_check(GraphSpectra(cycle_graph(5)))
    assert cross_check(GraphSpectra(path_graph(3)))


def test_cross_check_builds_one_profile(monkeypatch):
    # cone_graph and build once each ran their own BFS
    calls = []

    def counting(g):
        calls.append(g)
        return distance_profile(g)

    for module in (sandpile, matrices, spectra):
        monkeypatch.setattr(module, "distance_profile", counting)
    for g in (cricket_graph(), cycle_graph(5), path_graph(3)):
        calls.clear()
        assert cross_check(GraphSpectra(g))
        assert calls == [g]
        assert cone_graph(g, distance_profile(g)) == cone_graph(g)


def test_cross_check_builds_one_laplacian(monkeypatch):
    calls = []
    laplacian = sandpile.Multigraph.laplacian

    def counting(h):
        calls.append(h)
        return laplacian(h)

    monkeypatch.setattr(sandpile.Multigraph, "laplacian", counting)
    for g in (cricket_graph(), cycle_graph(5), path_graph(3)):
        calls.clear()
        assert cross_check(GraphSpectra(g))
        assert calls == [cone_graph(g)]


def test_cross_check_notes_name_the_graph(monkeypatch, capsys):
    # under verify the notes print mid-sweep, so each must name its graph;
    # the generated P3 is Bo
    p3 = next(g for g in generate_connected_graphs(3) if not g.is_complete())
    laplacian = sandpile.Multigraph.laplacian
    with monkeypatch.context() as m:
        m.setattr(sandpile.Multigraph, "laplacian", lambda h: [[r + 1 for r in row] for row in laplacian(h)])
        assert not cross_check(GraphSpectra(p3))
    assert capsys.readouterr().err == "cone cross-check: reduced Laplacian differs entrywise: Bo\n"
    monkeypatch.setattr(sandpile, "snf", lambda matrix: SnfResult((), 0, 0))
    assert not cross_check(GraphSpectra(p3))
    assert capsys.readouterr().err == "cone cross-check: SNF mismatch: Bo\n"


def test_cross_check_sweep():
    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            if g.is_complete():
                continue
            assert cross_check(GraphSpectra(g))


def test_spanning_tree_count_is_reduction_independent():
    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            if g.is_complete():
                continue
            _, tau = sandpile_group(g)
            h = cone_graph(g)
            for q in range(h.n):
                assert determinant(reduced_laplacian(h, q)) == tau


def test_cone_torsion_matches_reduced_torsion():
    for n in range(2, 6):
        for g in generate_connected_graphs(n):
            if g.is_complete():
                continue
            h = cone_graph(g)
            assert cokernel(h.laplacian()).torsion == cokernel(build(g, MatrixKind.Atr)).torsion
