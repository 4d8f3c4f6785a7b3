import ast
import sys
from pathlib import Path

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
