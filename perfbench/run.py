#!/usr/bin/env python3
"""facemlp benchmark: the CLI pipeline end to end, or per layer when traced.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

One client runs the real CLI as sequential subprocesses, a closed loop:
`train --mode ocon`, `train --mode acon`, `evaluate --mode ocon`,
`evaluate --mode acon`, each repetition against a fresh two-root store,
until --seconds are spent. `facemlp synth` is the set-up, run several
times. Every output is checked (see measure.py). End-to-end times are
scaled to a reference host speed (see hostprobe.py). The run prints a
table of each metric's value and quartiles, then, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 1 it first runs one untraced repetition, then repeats the
steps in-process through `facemlp.cli.main` with timing wrappers around
each layer (tracing.py), and reports the per-layer metrics instead.

--workload takes a comma-separated list; with more than one workload the
metric names in the last line are prefixed with the workload name.
Full records (environment, every sample, failures, spans) are written to
.perfbench_work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="desk,orl")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "facemlp" / "cli.py").is_file():
        print(f"error: no facemlp source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # imports facemlp, so only after the path is set

    names = args.workload.split(",")
    unknown = [n for n in names if n not in measure.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; "
              f"choose from {sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    results = [measure.run(measure.WORKLOADS[n], args.seed, args.seconds,
                           bool(args.trace)) for n in names]

    metrics = {}
    for name, result in zip(names, results):
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value["value"],
                                        "unit": value["unit"]}
    failed = sum(r["ops"]["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"]["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
