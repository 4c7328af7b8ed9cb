"""tools/same_outputs.py runs the benchmark's shapes and train flags.

The byte-identity tool copies perfbench/measure.py's desk and orl
workloads and train flags rather than importing the benchmark. These
tests read measure.py with ast, never importing or running it, and fail
when the tool's copy drifts from the benchmark's.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_assignments() -> dict[str, ast.expr]:
    tree = ast.parse((ROOT / "perfbench" / "measure.py").read_text())
    return {t.id: node.value for node in tree.body
            if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


def benchmark_workloads() -> dict[str, dict]:
    """WORKLOADS' entries as name -> the keyword fields of Workload(...)."""
    workloads = measure_assignments()["WORKLOADS"]
    return {ast.literal_eval(key): {k.arg: ast.literal_eval(k.value)
                                    for k in call.keywords}
            for key, call in zip(workloads.keys, workloads.values)}


def flags(argv: list[str]) -> dict[str, str]:
    """A `train --flag value ...` argv's values by flag."""
    return dict(zip(argv[1::2], argv[2::2]))


def test_shapes_are_the_benchmark_workloads():
    workloads = benchmark_workloads()
    shapes = load_tool().SHAPES
    assert set(shapes) == {"desk", "orl"} <= set(workloads)
    for name, (classes, per_class, side, components) in shapes.items():
        wl = workloads[name]
        assert (classes, per_class, per_class, side, components) == (
            wl["classes"], wl["train"], wl["test"], wl["side"],
            wl["components"]), name


def test_train_flags_are_the_benchmark_flags():
    constants = {name: ast.literal_eval(value)
                 for name, value in measure_assignments().items()
                 if name in ("GOAL", "MAX_EPOCHS", "WORKERS")}
    tool = load_tool()
    for shape in tool.SHAPES:
        steps = dict(tool.steps(shape))
        for mode in ("ocon", "acon"):
            train = flags(steps[f"train_{mode}"])
            assert float(train["--goal"]) == constants["GOAL"]
            assert int(train["--max-epochs"]) == constants["MAX_EPOCHS"]
        assert int(flags(steps["train_ocon"])["--workers"]) \
            == constants["WORKERS"]
