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
