"""The facemlp names that the benchmark under perfbench/ binds.

perfbench/ imports and wraps facemlp functions by name, calls them, and
checks the stored artifacts by file name. Its scripts are read here with
ast, never imported or run, so a rename, a signature change or a format
change that would break the benchmark fails this suite first. The last
two tests train a tiny model set: one reads every result field that
perfbench reads, the other matches train's stdout against the pattern
perfbench counts trained nets with.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from facemlp import classifiers, cli, eigenspace, evaluator, parallel
from facemlp.mlp import TrainingConfig

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


def test_result_fields_the_tracer_and_checks_read(tmp_path):
    # perfbench reads these off real results; a result type that drops
    # or renames one breaks the benchmark, not this suite's other tests.
    rng = np.random.default_rng(0)
    vectors = [rng.normal(loc=c, size=6) for c in (1, 2, 3) for _ in range(4)]
    space = eigenspace.compute_eigenspace(vectors, m=3)
    assert space.dim == 6
    samples = [(eigenspace.project(space, v), 1 + i // 4)
               for i, v in enumerate(vectors)]
    config = TrainingConfig(learning_rate=0.5, goal=1e-2, max_epochs=50)

    jobs = classifiers.build_ocon_jobs(samples, 3, config)
    outcomes = parallel.run_pool(jobs, parallel.PoolConfig(workers=1))
    assert [o.class_id for o in outcomes] == [1, 2, 3]
    assert all(o.compute_seconds > 0 for o in outcomes)
    acon = classifiers.train_acon(samples, 4, config)
    for trace in [o.model.trace for o in outcomes] + [acon.trace]:
        assert isinstance(trace.epochs_run, int) and trace.epochs_run >= 1
        assert isinstance(trace.goal_met, bool)
        assert trace.wall_time > 0

    # check_worker_invariance persists each of train_ocon(...).models.
    models = classifiers.train_ocon(samples, 3, config,
                                    pool=parallel.PoolConfig(workers=1)).models
    assert [m.class_id for m in models] == [1, 2, 3]
    store = parallel.WeightStore((tmp_path / "a", tmp_path / "b"))
    for model in models:
        name = parallel.class_filename(model.class_id)
        assert parallel.persist(model, store).written \
            == [tmp_path / "a" / name, tmp_path / "b" / name]
    report = evaluator.evaluate_all(acon, samples,
                                    evaluator.Protocol(n_pos=2, n_neg=2))
    assert [r.n_test for r in report.per_class] == [4, 4, 4]


def compiled_pattern(tree: ast.Module, name: str) -> re.Pattern:
    """The pattern assigned as `name = re.compile(r"...", re.FLAG)`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            pattern, *flags = node.value.args
            return re.compile(ast.literal_eval(pattern),
                              sum(getattr(re, f.attr) for f in flags))
    raise AssertionError(f"{name} is not assigned a compiled pattern")


def test_train_prints_the_net_lines_measure_counts(tmp_path, capsys):
    net_line = compiled_pattern(parse("measure.py"), "_NET_LINE")
    data, store = tmp_path / "data", str(tmp_path / "store")
    assert cli.main(["synth", "--out", str(data), "--classes", "3",
                     "--train", "4", "--test", "2", "--side", "8"]) == 0
    for mode, nets in (("ocon", ["1", "2", "3"]), ("acon", [None])):
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--store", store,
                         "--mode", mode, "--components", "6",
                         "--goal", "1e-2", "--max-epochs", "3000"]) == 0
        matches = net_line.findall(capsys.readouterr().out)
        assert [(c or None, met) for c, met in matches] \
            == [(c, "goal met") for c in nets], mode
