"""Distributes per-class training jobs and replicates the results.

The pool is a set of local worker processes standing in for the separate
machines a networked deployment would use: jobs are independent, training
is seed-deterministic, so the outcome is bit-identical however the jobs
are spread. The jobs share one topology and one sample count, so each
worker's jobs train as one lockstep stack (mlp.train_group), sharing
NumPy's per-call overhead without changing any net's arithmetic:
processes split the classes, lockstep speeds up each process.

The weight-file codec lives here too: persist and load encode and decode
a net's text body, and facemlp.store frames it with its checksum,
replicates it to every root and fails over between the replicas.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    Diverged,
    FormatError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
)
from .mlp import AconModel, ClassModel, Topology, TrainingConfig, Weights, train_group
from .store import (
    PersistOutcome,
    WeightStore,
    read_replicated,
    verify,
    write_replicated,
)

ACON_FILENAME = "acon.wts"


@dataclass(eq=False)
class TrainingJob:
    class_id: int
    task: list
    topology: Topology
    config: TrainingConfig

    def __post_init__(self):
        if not self.task:
            raise InvalidConfig(f"job for class {self.class_id} has no samples")


@dataclass(frozen=True)
class PoolConfig:
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")


@dataclass(eq=False)
class JobOutcome:
    """Result slot for one job; exactly one of model/exception is set.

    compute_seconds is the job's share, in proportion to the epochs it
    ran, of its bucket's training time, so a bucket's compute times sum
    to its real compute time.
    """

    class_id: int
    model: ClassModel | None = None
    exception: BaseException | None = None
    compute_seconds: float = 0.0


def allocate(jobs: list[TrainingJob], pool: PoolConfig) -> list[list[TrainingJob]]:
    """Split jobs across workers round robin: job i goes to worker i mod W.

    OCON tasks all hold the same n relabelled samples, so balancing by
    task size would build the same buckets.
    """
    if not jobs:
        raise InvalidConfig("no jobs to allocate")
    buckets: list[list[TrainingJob]] = [[] for _ in range(pool.workers)]
    for i, job in enumerate(jobs):
        buckets[i % pool.workers].append(job)
    return buckets


def _run_job_list(jobs: list[TrainingJob]):
    """Run a bucket's jobs into one JobOutcome each, in job order.

    Never raises, so one failure cannot sink a batch: a job's exception
    is kept in its outcome. The bucket's jobs share a topology and a
    sample count (run_pool checks), so they train as one lockstep stack
    through a single train_group call. Each job gets a share of the
    elapsed time, in proportion to the epochs it ran, so a bucket's
    compute times sum to its real compute time.
    """
    started = time.perf_counter()
    try:
        trained = train_group(jobs[0].topology, [job.task for job in jobs],
                              [job.config for job in jobs])
    except Exception as exc:    # captured per job, reported in outcome
        trained = [exc] * len(jobs)
    elapsed = time.perf_counter() - started
    epochs = [_epochs_spent(result) for result in trained]
    total = sum(epochs)
    outcomes = []
    for job, result, spent in zip(jobs, trained, epochs):
        share = spent / total if total else 1.0 / len(jobs)
        if isinstance(result, Exception):
            model, err = None, result
        else:
            model, err = ClassModel(job.class_id, *result), None
        outcomes.append(JobOutcome(job.class_id, model, err, elapsed * share))
    return outcomes


def _epochs_spent(result) -> int:
    """Epochs a train_group entry used: its trace's, or where it diverged."""
    if isinstance(result, Diverged):
        return result.epoch
    if isinstance(result, Exception):
        return 0
    return result[1].epochs_run


def run_pool(jobs: list[TrainingJob], pool: PoolConfig) -> list[JobOutcome]:
    """Execute all jobs and gather the workers' outcomes by class_id.

    Worker count never changes the trained weights, only the wall time:
    jobs share no state, each is deterministic, and a job's arithmetic is
    the same whichever stack it trains in. A job that raises is reported
    in its outcome; the remaining jobs, those of its own stack included,
    still complete. An empty job list, duplicate class ids, or jobs that
    differ in topology or sample count are an InvalidConfig at every
    worker count, before any training.
    """
    if not jobs:
        raise InvalidConfig("no jobs to run")
    ids = [j.class_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise InvalidConfig(f"duplicate class ids in job list: {ids}")
    if len({(j.topology, len(j.task)) for j in jobs}) > 1:
        raise InvalidConfig("jobs must share one topology and sample count")

    if pool.workers == 1:
        outcomes = _run_job_list(jobs)
    else:
        buckets = [b for b in allocate(jobs, pool) if b]
        ctx = multiprocessing.get_context("fork")
        outcomes = []
        with ProcessPoolExecutor(max_workers=len(buckets),
                                 mp_context=ctx) as executor:
            futures = [executor.submit(_run_job_list, bucket)
                       for bucket in buckets]
            for fut in futures:
                outcomes.extend(fut.result())
    outcomes.sort(key=lambda o: o.class_id)
    return outcomes


def _serialize(header: str, weights: Weights) -> bytes:
    lines = [header, " ".join(str(s) for s in weights.layer_sizes)]
    for w, b in zip(weights.weights, weights.biases):
        for row in w:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        lines.append(" ".join(f"{x:.17g}" for x in b))
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse(raw: bytes, expected_magic: str, path: Path):
    try:
        lines = verify(raw, path).decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a weight file") from exc
    if len(lines) < 3:
        raise FormatError(f"{path}: truncated weight file")
    magic = lines[0].split()
    if not magic or magic[0] != expected_magic:
        raise FormatError(f"{path}: expected {expected_magic} header")
    try:
        header_ids = [int(t) for t in magic[1:]]
        sizes = [int(t) for t in lines[1].split()]
        numbers = [float(t) for line in lines[2:] for t in line.split()]
    except ValueError as exc:
        raise FormatError(f"{path}: malformed numeric field") from exc
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise FormatError(f"{path}: bad layer sizes {sizes}")

    expected = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    if len(numbers) != expected:
        raise FormatError(
            f"{path}: expected {expected} parameters, found {len(numbers)}"
        )
    ws, bs = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        ws.append(np.array(numbers[pos : pos + fan_out * fan_in])
                  .reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        bs.append(np.array(numbers[pos : pos + fan_out]))
        pos += fan_out
    return header_ids, Weights(ws, bs)


def class_filename(class_id: int) -> str:
    return f"class_{class_id}.wts"


def persist(model: ClassModel, store: WeightStore) -> PersistOutcome:
    """Write the model to every root; every replica is byte-identical.

    Roots that cannot be written are reported as StoreErrors in the
    outcome. Raises only when no replica at all could be written.
    """
    body = _serialize(f"OCONW1 {model.class_id}", model.weights)
    return write_replicated(store, class_filename(model.class_id), body)


def read_weight_file(path: str | Path) -> ClassModel:
    """Parse and checksum-validate one OCON weight file."""
    path = Path(path)
    header_ids, weights = _parse(path.read_bytes(), "OCONW1", path)
    if len(header_ids) != 1:
        raise FormatError(f"{path}: header must carry exactly one class id")
    return ClassModel(header_ids[0], weights)


def load(class_id: int, store: WeightStore,
         on_skip: Callable | None = None) -> ClassModel:
    """Fetch a class model from the first root holding a valid replica.

    A replica that is corrupt or holds another class is passed over and
    reported to on_skip; only when every root fails does the class
    become WeightsUnavailable.
    """
    def read(path: Path) -> ClassModel:
        model = read_weight_file(path)
        if model.class_id != class_id:
            raise FormatError(f"{path}: holds class {model.class_id}")
        return model

    model = read_replicated(store, class_filename(class_id), read, on_skip)
    if model is None:
        raise WeightsUnavailable(class_id)
    return model


def persist_acon(model: AconModel, store: WeightStore) -> PersistOutcome:
    """Replicate the single all-classes net; header carries the id order."""
    header = "ACONW1 " + " ".join(str(c) for c in model.class_ids)
    return write_replicated(store, ACON_FILENAME,
                            _serialize(header, model.weights))


def _read_acon(path: Path) -> AconModel:
    class_ids, weights = _parse(path.read_bytes(), "ACONW1", path)
    return AconModel(tuple(class_ids), weights)


def load_acon(store: WeightStore,
              on_skip: Callable | None = None) -> AconModel:
    """The all-classes net from the first root holding a valid replica."""
    model = read_replicated(store, ACON_FILENAME, _read_acon, on_skip)
    if model is None:
        raise StoreError(f"no valid replica of {ACON_FILENAME} in any root")
    return model
