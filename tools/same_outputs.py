#!/usr/bin/env python3
"""Check that the working tree's facemlp writes the same bytes as REV's.

    python3 tools/same_outputs.py REV

REV is any git revision. Its src/ is extracted with `git archive` into a
temporary directory. Then, for each of the two trees and for the desk and
orl shapes of the benchmark (perfbench/measure.py's WORKLOADS), the CLI
runs the benchmark's steps in a temporary directory of its own:

    synth --seed 1                   with the workload's shape
    train --mode ocon --workers 2    into a two-root store
    train --mode acon                into the same store
    evaluate --mode ocon|acon        with --format csv and --format table

Both trains use --goal 1e-3 --max-epochs 20000 and the workload's
--components. Every file the steps write (the data set and both store
roots, traces/ included) and every step's exit code, stdout and stderr
are then compared byte for byte. Each path that differs is printed, and
so is each step that exits non-zero in the working tree: two trees that
fail the same way compare nothing. The exit code is 1 if any output
differs or any working-tree step fails, 0 otherwise, and 2 on a usage
error or a revision git cannot archive.

The script uses only the standard library and writes nothing inside the
repository.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (classes, train and test images per class, image side, components), as
# in perfbench/measure.py's WORKLOADS.
SHAPES = {"desk": (10, 20, 16, 20), "orl": (40, 5, 100, 40)}
TRAIN = ["--goal", "1e-3", "--max-epochs", "20000"]
STORE = "store/a:store/b"


def steps(shape: str) -> list[tuple[str, list[str]]]:
    classes, per_class, side, components = SHAPES[shape]
    out = [("synth", ["synth", "--out", "data", "--classes", str(classes),
                      "--train", str(per_class), "--test", str(per_class),
                      "--side", str(side), "--seed", "1"])]
    for mode in ("ocon", "acon"):
        workers = ["--workers", "2"] if mode == "ocon" else []
        out.append((f"train_{mode}",
                    ["train", "--data", "data", "--store", STORE,
                     "--mode", mode, "--components", str(components),
                     *TRAIN, *workers]))
    for mode in ("ocon", "acon"):
        for fmt in ("csv", "table"):
            out.append((f"evaluate_{mode}_{fmt}",
                        ["evaluate", "--data", "data", "--store", STORE,
                         "--mode", mode, "--format", fmt]))
    return out


def run_tree(src: Path, shape: str, work: Path) -> dict[str, bytes]:
    """Run every step with src on the import path, in a new directory
    work; returns each output (step streams and every file written) by
    relative path."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    outputs = {}
    for name, argv in steps(shape):
        proc = subprocess.run([sys.executable, "-m", "facemlp.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        outputs[f"{name}.exit"] = str(proc.returncode).encode()
        outputs[f"{name}.stdout"] = proc.stdout
        outputs[f"{name}.stderr"] = proc.stderr
    for path in sorted(work.rglob("*")):
        if path.is_file():
            outputs[path.relative_to(work).as_posix()] = path.read_bytes()
    return outputs


def extract_src(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py REV", file=sys.stderr)
        return 2
    differ = failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        try:
            base = extract_src(argv[0], tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {argv[0]}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for shape in SHAPES:
            old, new = (run_tree(src, shape, tmp / f"{shape}_{label}")
                        for label, src in (("rev", base), ("tree", ROOT / "src")))
            for path in sorted(old.keys() | new.keys()):
                if old.get(path) != new.get(path):
                    differ += 1
                    print(f"{shape}: {path} differs")
            print(f"{shape}: {len(old.keys() | new.keys())} outputs compared")
            for name, _ in steps(shape):
                code = new[f"{name}.exit"].decode()
                if code != "0":
                    failed += 1
                    print(f"{shape}: {name} exits {code} in the working tree")
    print("failed" if failed else "different" if differ else "identical")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
