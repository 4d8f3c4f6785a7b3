import pytest

from graphinv import closedforms, verify
from graphinv.closedforms import (
    det_tree_distance,
    snf_complete,
    snf_star,
    snf_tree_distance,
)
from graphinv.exact import SnfResult, determinant, snf
from graphinv.generators import generate_trees
from graphinv.graphs import complete_graph, path_graph, star_graph
from graphinv.matrices import MatrixKind, build


def test_snf_complete_examples():
    assert snf_complete(MatrixKind.L, 4).diagonal() == (1, 4, 4, 0)
    assert snf_complete(MatrixKind.Q, 4).diagonal() == (1, 2, 2, 12)
    # degenerate n = 2 in the plus family collapses to a zero entry
    assert snf_complete(MatrixKind.Q, 2) == snf(build(complete_graph(2), MatrixKind.Q))


def test_snf_complete_agrees_with_direct_computation():
    minus = (MatrixKind.Atr, MatrixKind.Ddeg, MatrixKind.L)
    plus = (MatrixKind.AtrPlus, MatrixKind.DdegPlus, MatrixKind.Q)
    for n in range(2, 16):
        kn = complete_graph(n)
        for kind in minus + plus:
            assert snf_complete(kind, n) == snf(build(kn, kind))


def test_snf_complete_errors():
    with pytest.raises(ValueError):
        snf_complete(MatrixKind.A, 5)
    with pytest.raises(ValueError):
        snf_complete(MatrixKind.L, 1)


def test_snf_star_examples():
    assert snf_star(MatrixKind.DdegPlus, 3).diagonal() == (1, 1, 1, 12)
    assert snf_star(MatrixKind.Ddeg, 4).diagonal() == (1, 3, 3, 3, 24)   # 3 | 2m+1
    assert snf_star(MatrixKind.Ddeg, 3).diagonal() == (1, 1, 3, 36)      # 3 does not divide 2m+1


def test_snf_star_agrees_with_direct_computation():
    for m in range(1, 16):
        star = star_graph(m)
        for kind in (MatrixKind.Ddeg, MatrixKind.DdegPlus):
            assert snf_star(kind, m) == snf(build(star, kind))


def test_snf_star_errors():
    with pytest.raises(ValueError):
        snf_star(MatrixKind.Atr, 3)
    with pytest.raises(ValueError):
        snf_star(MatrixKind.Ddeg, 0)


def test_snf_tree_distance_examples():
    assert snf_tree_distance(3).diagonal() == (1, 1, 4)
    assert snf_tree_distance(8).diagonal() == (1, 1, 2, 2, 2, 2, 2, 14)
    # the two-vertex tree degenerates: direct computation gives diag(1, 1)
    assert snf_tree_distance(2) == snf(build(path_graph(2), MatrixKind.D))
    with pytest.raises(ValueError):
        snf_tree_distance(1)


def test_tree_distance_formulas_on_all_small_trees():
    for n in range(2, 11):
        want_snf = snf_tree_distance(n)
        want_det = det_tree_distance(n)
        for t in generate_trees(n):
            d = build(t, MatrixKind.D)
            assert snf(d) == want_snf
            assert determinant(d) == want_det


def test_det_tree_distance_values():
    # (-1)^n * n * 2^(n-1) with n = vertex count - 1
    assert det_tree_distance(2) == -1
    assert det_tree_distance(3) == 4
    assert det_tree_distance(4) == -12
    assert det_tree_distance(8) == -7 * 64


def _snf(*diagonal):
    factors = tuple(d for d in diagonal if d)
    return SnfResult(factors, len(diagonal) - len(factors), len(diagonal))


def test_closed_forms_failure_lines(monkeypatch):
    # each closed form in turn returns a wrong value; verify.closed_forms(4)
    # checks K2..K4 on six kinds, stars with 1..4 leaves on two, and the
    # four trees with n <= 4 (A_, Bo, Cs, Cq) on SNF and determinant
    wrong = _snf(7)
    assert (f"complete n=2 kind=Atr: {_snf(1, 0)} != {wrong}"
            == "complete n=2 kind=Atr: SnfResult(factors=(1,), zeros=1, n=2) "
               "!= SnfResult(factors=(7,), zeros=0, n=1)")
    complete = [(2, (1, 0), (1, 0)), (3, (1, 3, 0), (1, 1, 4)), (4, (1, 4, 4, 0), (1, 2, 2, 12))]
    stars = [(1, (1, 0), (1, 0)), (2, (1, 1, 12), (1, 1, 4)),
             (3, (1, 1, 3, 36), (1, 1, 1, 12)), (4, (1, 3, 3, 3, 24), (1, 1, 1, 1, 24))]
    trees = [(2, "A_"), (3, "Bo"), (4, "Cs"), (4, "Cq")]
    expected = {
        "snf_complete": [f"complete n={n} kind={kind}: {_snf(*d)} != {wrong}"
                         for n, minus, plus in complete
                         for kinds, d in ((("Atr", "Ddeg", "L"), minus),
                                          (("AtrPlus", "DdegPlus", "Q"), plus))
                         for kind in kinds],
        "snf_star": [f"star m={m} kind={kind}: {_snf(*d)} != {wrong}"
                     for m, ddeg, plus in stars
                     for kind, d in (("Ddeg", ddeg), ("DdegPlus", plus))],
        "snf_tree_distance": [f"tree distance SNF n={n}: {g6}" for n, g6 in trees],
        "det_tree_distance": [f"tree distance det n={n}: {g6}" for n, g6 in trees],
    }
    assert verify.closed_forms(4) == (11, 34, [])

    def patch(m, name):
        m.setattr(closedforms, name, lambda *args: 7 if name.startswith("det") else wrong)

    for name, lines in expected.items():
        with monkeypatch.context() as m:
            patch(m, name)
            assert verify.closed_forms(4) == (11, 34, lines)
    # all four at once: families in order, each tree's SNF line before its det line
    for name in expected:
        patch(monkeypatch, name)
    tree_pairs = zip(expected["snf_tree_distance"], expected["det_tree_distance"])
    assert verify.closed_forms(4) == (
        11, 34, expected["snf_complete"] + expected["snf_star"] + [line for pair in tree_pairs for line in pair])
