import ast
import sys
from pathlib import Path

import pytest

from graphinv.census import completeness_check
from graphinv.closedforms import det_tree_distance, snf_complete, snf_star, snf_tree_distance
from graphinv.graphs import complete_graph, cycle_graph, graph_from_edges, path_graph, star_graph
from graphinv.matrices import MatrixKind

SRC = Path(__file__).resolve().parent.parent / "src" / "graphinv"


def test_package_imports_only_the_standard_library():
    # every absolute import, including those inside functions
    tops = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                tops.setdefault(module.split(".")[0], path.name)
    assert "multiprocessing" in tops  # imported inside census functions only
    assert {top: where for top, where in tops.items() if top not in sys.stdlib_module_names} == {}


def test_readme_library_sketch_runs_as_written():
    # each "expr  # value" line of the sketch must hold as repr(expr) == value
    readme = (SRC.parent.parent / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        value = lines[node.end_lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and value:
            assert repr(eval(ast.get_source_segment(block, node), namespace)) == value.strip()
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == sum("  # " in line for line in lines) == 5


def test_public_names_are_pinned():
    # removing or adding a public name must edit this tuple; submodules are
    # not public names, but stay reachable as attributes
    import graphinv

    assert tuple(graphinv.__all__) == (
        "AbelianGroup", "BoundReport", "CensusEntry", "CensusReport", "DistanceProfile", "Graph",
        "Graph6ParseError", "GraphSpectra", "InequalityRecord", "IntMatrix", "IntPolynomial",
        "MatrixKind", "Multigraph", "SnfResult", "Spectrum", "build", "canonical_key", "charpoly",
        "check_conductance_bracket", "check_extreme_bounds", "check_lambda1_bracket",
        "check_moments", "check_shift_lemmas", "check_weyl_sandwich", "cokernel", "complete_graph",
        "completeness_check", "conductance", "cone_graph", "cricket_graph", "cross_check",
        "cycle_graph", "det_tree_distance", "determinant", "distance_profile",
        "eigenvalues_symmetric", "generate_connected_graphs", "generate_trees", "graph_from_edges",
        "iter_graph6", "parse_graph6", "path_graph", "petersen_graph", "report_tsv", "run_census",
        "sandpile_group", "snf", "snf_complete", "snf_star", "snf_tree_distance", "star_graph",
        "tree_census", "tree_certificate", "triangle_count", "wiener_indices", "write_graph6",
    )
    assert graphinv.census.run_census is graphinv.run_census


@pytest.mark.parametrize("call, good, name", [
    (complete_graph, 3, "vertex count"),
    (path_graph, 3, "vertex count"),
    (cycle_graph, 5, "vertex count"),
    (star_graph, 2, "leaves"),
    (lambda n: graph_from_edges(n, []), 3, "vertex count"),
    (lambda n: snf_complete(MatrixKind.Ddeg, n), 3, "n"),
    (lambda m: snf_star(MatrixKind.Ddeg, m), 2, "m"),
    (snf_tree_distance, 4, "n_plus_1"),
    (det_tree_distance, 4, "n_plus_1"),
    (lambda n: completeness_check(n, [MatrixKind.Ddeg]), 3, "n"),
], ids=["complete_graph", "path_graph", "cycle_graph", "star_graph", "graph_from_edges",
        "snf_complete", "snf_star", "snf_tree_distance", "det_tree_distance", "completeness_check"])
def test_entry_points_reject_a_non_integer_order(call, good, name):
    # a float order once raised a raw TypeError, and a bool one was taken
    # as 1: star_graph(True) built a 2-vertex graph
    call(good)
    for bad in (float(good), True):
        with pytest.raises(ValueError, match=f"^{name} is not an integer: {bad!r}$"):
            call(bad)
