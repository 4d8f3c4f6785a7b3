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


# One instance of each public record, its repr as the frozen dataclasses
# that the records once were printed it, and its field names in order.
RECORDS = [
    ("path_graph(3)", "Graph(n=3, adj=(2, 5, 2))", ("n", "adj")),
    ("distance_profile(path_graph(3))",
     "DistanceProfile(dist=((0, 1, 2), (1, 0, 1), (2, 1, 0)), tr=(3, 2, 3), deg=(1, 2, 1))",
     ("dist", "tr", "deg")),
    ("snf([[2, 0], [0, 0]])", "SnfResult(factors=(2,), zeros=1, n=2)", ("factors", "zeros", "n")),
    ("charpoly([[0, 1], [1, 0]])", "IntPolynomial(coeffs=(1, 0, -1))", ("coeffs",)),
    ("sandpile_group(cycle_graph(5))[0]", "AbelianGroup(torsion=(41, 164), free_rank=0)",
     ("torsion", "free_rank")),
    ("cone_graph(path_graph(3))",
     "Multigraph(n=4, mult=((0, 1, 0, 2), (1, 0, 1, 0), (0, 1, 0, 2), (2, 0, 2, 0)))", ("n", "mult")),
    ("run_census(generate_connected_graphs(3), [MatrixKind.Atr]).entries[0]",
     "CensusEntry(kind=<MatrixKind.Atr: 'Atr'>, mode='spectral', mate_count=0, total=2)",
     ("kind", "mode", "mate_count", "total")),
    ("run_census(generate_connected_graphs(3), [MatrixKind.Atr], ['invariant'])",
     "CensusReport(n=3, total=2, entries=(CensusEntry(kind=<MatrixKind.Atr: 'Atr'>, mode='invariant', "
     "mate_count=0, total=2),))", ("n", "total", "entries")),
    ("eigenvalues_symmetric([[2, 1], [1, 2]])",
     "Spectrum(eigenvalues=(0.9999999999999998, 2.999999999999999), tol=3.0000000000000004e-09)",
     ("eigenvalues", "tol")),
    ("InequalityRecord(name='x', left=1, right=2.5, tol=0.0, holds=True)",
     "InequalityRecord(name='x', left=1, right=2.5, tol=0.0, holds=True, applicable=True)",
     ("name", "left", "right", "tol", "holds", "applicable")),
    ("check_lambda1_bracket(GraphSpectra(path_graph(2)))",
     "BoundReport(checks=(InequalityRecord(name='min(tr - deg) <= min_eig(Atr)', left=0, right=0.0, "
     "tol=2e-09, holds=True, applicable=True), InequalityRecord(name='min_eig(Atr) <= mean(tr - deg)', "
     "left=0.0, right=0.0, tol=2e-09, holds=True, applicable=True)))", ("checks",)),
]


@pytest.mark.parametrize("expr, text, names", RECORDS, ids=[text.split("(")[0] for _, text, _ in RECORDS])
def test_records_keep_the_contracts_of_frozen_dataclasses(expr, text, names):
    # the records are tuples, so they also equal a plain tuple of their
    # fields and support len, iteration and ordering (README)
    import graphinv

    namespace = vars(graphinv).copy()
    record = eval(expr, namespace)
    fields = tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    assert type(record)._fields == names
    assert hash(record) == hash(fields)
    assert record == fields and tuple(record) == fields
    assert type(record)(**dict(zip(names, fields))) == record
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0])
