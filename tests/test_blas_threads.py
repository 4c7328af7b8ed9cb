"""No stored byte depends on the BLAS thread count.

The eigensolve's Gram product, the lockstep OCON kernel and the ACON net
all run through BLAS calls that OpenBLAS may split across threads. The
same script runs in fresh interpreters at OPENBLAS_NUM_THREADS=1 and 4
and prints a digest of everything it would store; the digests must match.
A host with fewer than 4 cores shows only the splits that 4 threads make
on it, so a wider host can still exercise splits that this test does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import facemlp

SCRIPT = r"""
import hashlib, sys, tempfile
from pathlib import Path

import numpy as np

from facemlp.eigenspace import compute_eigenspace, save_eigenspace
from facemlp.mlp import (AconModel, ClassModel, Topology, TrainingConfig,
                         train, train_group)
from facemlp.parallel import persist, persist_acon
from facemlp.store import WeightStore

rng = np.random.default_rng(9)
config = TrainingConfig(goal=1e-12, max_epochs=50)
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    store = WeightStore((root,))
    save_eigenspace(compute_eigenspace(rng.uniform(size=(200, 10_000)), 40),
                    root / "eigenspace.txt")

    x = rng.normal(size=(200, 40))
    labels = np.arange(200) % 40
    targets = [(labels == c)[:, None].astype(np.float64) for c in range(20)]
    group = train_group(Topology((40, 20, 1)), x, targets, config,
                        list(range(20)))
    histories = []
    for cid, (weights, trace) in enumerate(group):
        persist(ClassModel(cid, weights), store)
        histories.append(trace.mse_history)

    one_hot = (labels[:, None] == np.arange(40)).astype(np.float64)
    weights, trace = train(Topology((40, 60, 40)), x, one_hot, config)
    persist_acon(AconModel(tuple(range(40)), weights), store)
    histories.append(trace.mse_history)

    digest = hashlib.sha256(repr(histories).encode())
    for path in sorted(root.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sys.stdout.write(digest.hexdigest())
"""


def stored_digest(threads: int) -> str:
    src = Path(facemlp.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stored_bytes_do_not_depend_on_blas_thread_count():
    assert stored_digest(1) == stored_digest(4)
