"""The facemlp names that the benchmark under perfbench/ binds.

perfbench/ imports and wraps facemlp functions by name, calls them, and
checks the stored artifacts by file name. Its scripts are read here with
ast, never imported or run, so a rename, a signature change or a format
change that would break the benchmark fails this suite first.
"""

import ast
import importlib
import inspect
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


def facemlp_imports(tree: ast.Module):
    """The facemlp modules bound by `from facemlp import`, and the names
    bound by `from facemlp.<module> import`, each as local name to
    module or to (module, name)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "facemlp":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("facemlp."):
            names.update((a.asname or a.name,
                          (node.module[len("facemlp."):], a.name))
                         for a in node.names)
    return modules, names


def facemlp_bindings(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, attribute) for every `from facemlp... import` name and
    every attribute read off a module bound by `from facemlp import`."""
    modules, names = facemlp_imports(tree)
    bound = list(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            bound.append((modules[node.value.id], node.attr))
    return bound


def facemlp_calls(tree: ast.Module):
    """(module, name, call) for every call of `module.name(...)` on a
    module bound by `from facemlp import`, or of a name bound by
    `from facemlp.<module> import`."""
    modules, names = facemlp_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            calls.append((modules[func.value.id], func.attr, node))
        elif isinstance(func, ast.Name) and func.id in names:
            calls.append((*names[func.id], node))
    return calls


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


@pytest.mark.parametrize("script", ["measure.py", "tracing.py"])
def test_facemlp_calls_the_scripts_make_bind(script):
    calls = facemlp_calls(parse(script))
    assert calls
    for module, name, call in calls:
        where = f"{script}:{call.lineno} calls facemlp.{module}.{name}"
        assert not any(isinstance(a, ast.Starred) for a in call.args) \
            and all(k.arg for k in call.keywords), f"{where} with unpacking"
        signature = inspect.signature(
            getattr(importlib.import_module(f"facemlp.{module}"), name))
        try:
            signature.bind(*call.args, **{k.arg: k.value
                                          for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
