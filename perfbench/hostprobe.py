#!/usr/bin/env python3
"""How fast each vCPU runs, and where the measured program ran on them.

The reference host is a shared 2-vCPU VM. Each vCPU's speed flips between
two states about 1.8x apart, several times a second, independently of the
other vCPU, and the share of time spent slow drifts over minutes. Two runs
of the same code can therefore differ by a third. So the benchmark scales
each CLI call's wall time to one fixed speed:

* one sampler process per vCPU, pinned to it, times a fixed CPU loop every
  PERIOD_S through the whole run;
* while a CLI call runs, `HostProbe.wait` polls every POLL_S how much CPU
  time each thread of the call's process tree got, and on which vCPU;
* `HostProbe.factor` weighs the readings of the vCPU each slice of that
  CPU time ran on, at the time it ran.

A sampler on the vCPU a job runs on predicts the job's time closely; one
on the other vCPU does not, because the two flip independently.

Run as a script with a vCPU number, this module is that vCPU's sampler: it
pins itself, prints "ready", then takes one reading every PERIOD_S seconds
until its standard input closes; then it prints its readings,
[[start, seconds], ...], as JSON and exits.

    python3 perfbench/hostprobe.py 0 < /dev/null
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.25
POLL_S = 0.1
ITERATIONS = 300
# After a sleep the first loops run up to 3x slower while the vCPU wakes
# and its caches fill, which the steps, busy from start to end, do not
# see. A reading is therefore the mean of the last loops of a burst.
BURST_LOOPS = 3
KEPT_LOOPS = 2
# The loop's time on the reference host in its fast state (2 vCPUs,
# Python 3.11.7, NumPy 2.4.6). Scaled times are seconds at that speed.
REFERENCE_S = 0.0019

# 512 kB, about the eigensolver's working set: a neighbour that crowds the
# caches slows the loop as it slows the program. A 64x64 matrix, which
# stays in L1, tracked interpreter start-up less well.
_SIDE = 256
_MATRIX = (np.arange(_SIDE * _SIDE, dtype=np.float64).reshape(_SIDE, _SIDE)
           / _SIDE ** 2)


def probe_loop() -> float:
    """CPU seconds of one fixed loop, a reading of the vCPU's speed.

    It mixes Python-level loops and small NumPy row operations, the mix
    the Jacobi eigensolve and the training loop spend their time in. It
    calls no BLAS routine, so it starts no thread. It counts CPU time, not
    wall time: when the sampler shares its vCPU with the measured program,
    the time it waits for its turn says nothing of the host.
    """
    work = _MATRIX.copy()
    total = 0.0
    started = time.thread_time()
    for i in range(ITERATIONS):
        # Rows 37 apart, so the loop touches the whole matrix.
        p, q = (i * 37) % (_SIDE - 1), (i * 259) % (_SIDE - 1) + 1
        row = work[p, :].copy()
        work[p, :] = 0.6 * row - 0.8 * work[q, :]
        work[q, :] = 0.8 * row + 0.6 * work[q, :]
        total += float(work[p, p]) * 1e-9
    return time.thread_time() - started


def reading() -> float:
    """One reading: a warm probe_loop time, from a burst of them."""
    times = [probe_loop() for _ in range(BURST_LOOPS)]
    return statistics.fmean(times[-KEPT_LOOPS:])


class Wall(float):
    """Wall seconds of one CLI call. `usage` is where its process tree ran:
    (time, vCPU, CPU seconds) slices, as `HostProbe.wait` records them."""

    usage: list[tuple[float, int, float]] | tuple = ()


def _tree_threads(pid: int) -> list[tuple[tuple[int, str], int, int]]:
    """((pid, tid), last vCPU, CPU nanoseconds) of every thread of pid and
    of its descendants. Threads that end while being read are skipped."""
    threads, stack = [], [pid]
    while stack:
        proc = stack.pop()
        try:
            tids = os.listdir(f"/proc/{proc}/task")
        except OSError:
            continue
        for tid in tids:
            base = f"/proc/{proc}/task/{tid}"
            try:
                with open(f"{base}/schedstat") as f:
                    ns = int(f.read().split()[0])
                with open(f"{base}/stat") as f:
                    # Field 39, the vCPU it last ran on, counted after the
                    # command name, which may itself hold spaces.
                    cpu = int(f.read().rsplit(")", 1)[1].split()[36])
                with open(f"{base}/children") as f:
                    stack.extend(int(c) for c in f.read().split())
            except (OSError, ValueError, IndexError):
                continue
            threads.append(((proc, tid), cpu, ns))
    return threads


class HostProbe:
    """The vCPUs' speed over the length of a `with` block.

    Each sampler takes one reading every PERIOD_S, 3-5% of its vCPU.
    """

    def __init__(self):
        self.readings: dict[int, list[tuple[float, float]]] = {}
        self._procs: dict[int, subprocess.Popen] = {}

    def __enter__(self) -> "HostProbe":
        for cpu in sorted(os.sched_getaffinity(0)):
            self._procs[cpu] = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # Wait out the samplers' own start-up, so it does not compete
        # with the first thing measured.
        for proc in self._procs.values():
            proc.stdout.readline()
        return self

    def __exit__(self, *exc) -> None:
        procs, self._procs = self._procs, {}
        outputs = {}
        try:
            for cpu, proc in procs.items():
                outputs[cpu], _ = proc.communicate(input="", timeout=30)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        for cpu, proc in procs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"host sampler {cpu} exited "
                                   f"{proc.returncode}")
            self.readings[cpu] = [tuple(r) for r in json.loads(outputs[cpu])]

    def wait(self, proc: subprocess.Popen, timeout: float) -> tuple[str, list]:
        """proc.communicate(), also recording where proc's tree ran.

        Returns (stdout, usage), usage as in `Wall`. Raises
        subprocess.TimeoutExpired after timeout seconds.
        """
        deadline = time.perf_counter() + timeout
        usage, seen = [], {}
        while True:
            try:
                stdout, _ = proc.communicate(timeout=POLL_S)
                return stdout, usage
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    raise
            now = time.perf_counter()
            for key, cpu, ns in _tree_threads(proc.pid):
                spent = ns - seen.get(key, 0)
                seen[key] = ns
                if spent > 0:
                    usage.append((now - POLL_S / 2, cpu, spent / 1e9))

    def _nearest(self, cpu: int, at: float) -> float:
        readings = self.readings[cpu]
        i = bisect.bisect_left(readings, (at,))
        near = readings[max(i - 1, 0):i + 1]
        return min(near, key=lambda r: abs(r[0] - at))[1]

    def factor(self, usage: list | None = None) -> float:
        """What a wall time is worth at REFERENCE_S.

        A job doing fixed work spends CPU seconds c_i on vCPUs whose
        readings r_i are inversely proportional to their speed; at
        reference speed the same work takes sum(c_i * REFERENCE_S / r_i).
        The factor is that over sum(c_i): the CPU-weighted mean of
        REFERENCE_S / r_i. With no usage (a call shorter than POLL_S) it
        falls back to all readings of the run, equally weighted.
        """
        if not usage:
            usage = [(t, cpu, 1.0) for cpu, rs in self.readings.items()
                     for t, _ in rs]
        total = sum(c for _, _, c in usage)
        return REFERENCE_S * sum(c / self._nearest(cpu, t)
                                 for t, cpu, c in usage) / total


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    readings = []
    print("ready", flush=True)
    while True:
        started = time.perf_counter()
        readings.append((started, reading()))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    json.dump(readings, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
