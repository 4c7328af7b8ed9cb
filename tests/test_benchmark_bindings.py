"""The facemlp names that the benchmark under perfbench/ binds.

perfbench/ imports and wraps facemlp functions by name, and checks the
stored artifacts by file name. Its scripts are read here with ast, never
imported or run, so a rename or a format change that would break the
benchmark fails this suite first.
"""

import ast
import importlib
from pathlib import Path

import pytest

from facemlp import eigenspace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def assigned_literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned a literal")


def facemlp_bindings(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, attribute) for every `from facemlp... import` name and
    every attribute read off a module bound by `from facemlp import`."""
    modules = {}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "facemlp":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("facemlp."):
            bound += [(node.module[len("facemlp."):], a.name)
                      for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            bound.append((modules[node.value.id], node.attr))
    return bound


def test_traced_layer_functions_resolve():
    layers = assigned_literal(parse("tracing.py"), "LAYER_FUNCTIONS")
    assert "eigenspace" in layers
    for module, names in layers.items():
        home = importlib.import_module(f"facemlp.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("script", ["measure.py", "tracing.py"])
def test_facemlp_names_the_scripts_read_resolve(script):
    bound = facemlp_bindings(parse(script))
    assert bound
    for module, name in bound:
        home = importlib.import_module(f"facemlp.{module}")
        assert hasattr(home, name), f"{script} reads facemlp.{module}.{name}"


def test_measure_checks_the_eigenspace_file_by_its_name():
    assert assigned_literal(parse("measure.py"), "EIGENSPACE_FILE") \
        == eigenspace.EIGENSPACE_FILENAME
