"""Module structure checks over the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "facemlp"

# Calls that import a module at run time: __import__(name) and
# importlib.import_module(name), also when bound as a bare import_module.
IMPORT_CALLS = {"__import__", "import_module"}


def imports(node: ast.AST) -> bool:
    """Whether node is an import statement or a call that imports."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        return name in IMPORT_CALLS
    return False


def nested_imports(tree: ast.AST):
    """(function name, line) of every import inside a function body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if imports(node):
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


def test_nested_imports_sees_import_calls():
    tree = ast.parse(
        "import importlib\n"
        "from importlib import import_module\n"
        "def a():\n"
        "    return importlib.import_module('facemlp.mlp')\n"
        "def b():\n"
        "    return import_module('facemlp.mlp')\n"
        "def c():\n"
        "    return __import__('facemlp.mlp')\n"
        "def d():\n"
        "    from . import mlp\n"
        "def e():\n"
        "    return importlib.reload\n")
    assert list(nested_imports(tree)) == [("a", 4), ("b", 6), ("c", 8),
                                          ("d", 10)]


def test_the_cli_imports_no_process_pool_machinery():
    # The pool forks its children with os.fork; multiprocessing and
    # concurrent.futures would only add to every command's start-up.
    script = ("import sys, facemlp.cli; print(sorted(m for m in sys.modules"
              " if m.startswith(('multiprocessing', 'concurrent'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"
