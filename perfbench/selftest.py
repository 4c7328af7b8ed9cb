#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny shape (3 classes, side 8).

    python3 perfbench/selftest.py

Checks that:
* every metric BENCHMARK.json declares is emitted, with its unit, by an
  untraced and a traced run, and nothing else is;
* a corrupted replica is counted as a failed operation;
* without the package source the benchmark exits non-zero and prints no
  result.
Takes about half a minute and exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402  (needs src on sys.path)

TIMEOUT_S = 170


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def run_bench(cwd: Path, trace: int, workload: str = "tiny"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def declared_metrics_are_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        expect(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1,
               f"trace {trace}: {result['failed']} of "
               f"{result['attempted']} operations failed")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(emitted == declared,
               f"trace {trace}: emitted metrics differ from {key}: "
               f"{sorted(set(emitted) ^ set(declared))}")
        expect(all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values()),
               f"trace {trace}: a metric value is not a number")


def corrupt_replica_is_counted() -> None:
    wl = measure.WORKLOADS["tiny"]
    run_dir = measure.WORK / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ledger = measure.Ledger()
        data, _ = measure.set_up(wl, 1, run_dir, ledger)
        rep = measure.run_pipeline(wl, data, run_dir / "rep0",
                                   measure.subprocess_runner(run_dir), ledger)
        expect(ledger.failed == 0, f"clean store failed: {ledger.failures}")

        victim = rep.roots[1] / "class_1.wts"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victim.write_bytes(bytes(raw))
        ledger = measure.Ledger()
        measure.check_store(wl, rep.roots, data, rep.reports, ledger)
        expect(ledger.failed_frac > 0, "corrupted replica was not counted")
        expect(all("class_1.wts" in f for f in ledger.failures),
               f"unexpected failures: {ledger.failures}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def refuses_without_source() -> None:
    measure.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=measure.WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(tmp), 0, workload="desk")
    expect(proc.returncode != 0, "ran without the package source")
    expect(not proc.stdout.strip(), "printed a result without the source")


def main() -> int:
    failed = 0
    for check in (declared_metrics_are_emitted, corrupt_replica_is_counted,
                  refuses_without_source):
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
