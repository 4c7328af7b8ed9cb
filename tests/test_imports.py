"""Module structure checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "facemlp"


def nested_imports(tree: ast.AST):
    """(function name, line) of every import inside a function body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield func.name, node.lineno


def test_no_module_imports_inside_a_function():
    # A lazy import is how an import cycle between two modules hides; the
    # modules import each other at the top or not at all.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line} in {name}()"
                  for name, line in nested_imports(tree)]
    assert found == []
