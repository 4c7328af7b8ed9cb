"""Distributes per-class training jobs and replicates the results.

The pool is a set of local worker processes standing in for the separate
machines a networked deployment would use: jobs are independent, training
is seed-deterministic, so the outcome is bit-identical however the jobs
are spread. Within a worker, the jobs that share a topology and a sample
count train in lockstep (mlp.train_group), which shares NumPy's per-call
overhead among them without changing any net's arithmetic: processes
split the classes, lockstep speeds up each process. Weights are persisted
as checksummed text files replicated to every store root, and loads fail
over between replicas.
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import AconModel, ClassModel
from .errors import (
    ChecksumMismatch,
    Diverged,
    FormatError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
)
from .mlp import Topology, TrainingConfig, Weights, train_group

ALLOCATION_POLICIES = ("round_robin", "largest_first")
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

    @property
    def size(self) -> int:
        return len(self.task)


@dataclass(frozen=True)
class PoolConfig:
    workers: int = 1
    allocation: str = "round_robin"

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if self.allocation not in ALLOCATION_POLICIES:
            raise InvalidConfig(
                f"allocation must be one of {ALLOCATION_POLICIES}"
            )


@dataclass(frozen=True)
class WeightStore:
    """Ordered list of replica directories."""

    roots: tuple[Path, ...]

    def __post_init__(self):
        roots = tuple(Path(r) for r in self.roots)
        if not roots:
            raise InvalidConfig("store needs at least one root")
        object.__setattr__(self, "roots", roots)


@dataclass(eq=False)
class JobOutcome:
    """Result slot for one job; exactly one of model/error is set.

    queue_wait is the gap between the job becoming runnable (its bucket
    submitted and the bucket's previous lockstep group done) and the
    moment its own group started. compute_seconds is the job's share of
    its group's training time, in proportion to the epochs it ran, so the
    compute times of a bucket sum to the bucket's real compute time.
    """

    class_id: int
    model: ClassModel | None = None
    error: str | None = None
    exception: BaseException | None = None
    queue_wait: float = 0.0
    compute_seconds: float = 0.0


@dataclass(eq=False)
class PersistOutcome:
    written: list[Path] = field(default_factory=list)
    errors: list[StoreError] = field(default_factory=list)


def allocate(jobs: list[TrainingJob], pool: PoolConfig) -> list[list[TrainingJob]]:
    """Split jobs across workers.

    round_robin sends job i to worker i mod W. largest_first sorts by
    descending task size (ties by class_id) and hands each job to the
    currently lightest-loaded worker, lowest index winning ties. Both are
    deterministic.
    """
    if not jobs:
        raise InvalidConfig("no jobs to allocate")
    buckets: list[list[TrainingJob]] = [[] for _ in range(pool.workers)]
    if pool.allocation == "round_robin":
        for i, job in enumerate(jobs):
            buckets[i % pool.workers].append(job)
        return buckets
    loads = [0] * pool.workers
    for job in sorted(jobs, key=lambda j: (-j.size, j.class_id)):
        target = loads.index(min(loads))
        buckets[target].append(job)
        loads[target] += job.size
    return buckets


def _run_job_list(jobs: list[TrainingJob], submitted_at: float):
    """Run a bucket's jobs; never raises, so one failure cannot sink a batch.

    Jobs that share a topology and a sample count form a group, in order
    of first appearance, and each group trains in lockstep through
    train_group. A job's queue wait counts from the later of the bucket's
    submission and the end of the previous group to the start of its own
    group. Its compute time is its share of the group's elapsed time, in
    proportion to the epochs it ran, so a bucket's compute times sum to
    its real compute time.

    Returns plain tuples because the results may cross a process
    boundary.
    """
    groups: dict[tuple[Topology, int], list[TrainingJob]] = {}
    for job in jobs:
        groups.setdefault((job.topology, job.size), []).append(job)

    results = []
    ready_at = submitted_at
    for (topology, _), group in groups.items():
        picked_up = time.monotonic()
        started = time.perf_counter()
        try:
            trained = train_group(topology, [job.task for job in group],
                                  [job.config for job in group])
        except Exception as exc:    # captured per job, reported in outcome
            trained = [exc] * len(group)
        elapsed = time.perf_counter() - started
        epochs = [_epochs_spent(result) for result in trained]
        total = sum(epochs)
        for job, result, spent in zip(group, trained, epochs):
            share = spent / total if total else 1.0 / len(group)
            if isinstance(result, Exception):
                weights, trace, err = None, None, result
            else:
                (weights, trace), err = result, None
            results.append((job.class_id, weights, trace, err,
                            picked_up - ready_at, elapsed * share))
        ready_at = time.monotonic()
    return results


def _epochs_spent(result) -> int:
    """Epochs a train_group entry used: its trace's, or where it diverged."""
    if isinstance(result, Diverged):
        return result.epoch
    if isinstance(result, Exception):
        return 0
    return result[1].epochs_run


def run_pool(jobs: list[TrainingJob], pool: PoolConfig) -> list[JobOutcome]:
    """Execute all jobs and gather per-job outcomes sorted by class_id.

    Worker count never changes the trained weights, only the wall time:
    jobs share no state, each is deterministic, and a job's arithmetic is
    the same whichever lockstep group it trains in. A job that raises is
    reported in its outcome; the remaining jobs, those of its own group
    included, still complete.
    """
    ids = [j.class_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise InvalidConfig(f"duplicate class ids in job list: {ids}")

    if pool.workers == 1:
        raw = _run_job_list(jobs, time.monotonic())
    else:
        buckets = [b for b in allocate(jobs, pool) if b]
        ctx = multiprocessing.get_context("fork")
        raw = []
        with ProcessPoolExecutor(max_workers=len(buckets),
                                 mp_context=ctx) as executor:
            futures = [executor.submit(_run_job_list, bucket, time.monotonic())
                       for bucket in buckets]
            for fut in futures:
                raw.extend(fut.result())

    by_id = {job.class_id: job for job in jobs}
    outcomes = []
    for class_id, weights, trace, err, waited, compute in raw:
        if err is None:
            model = ClassModel(class_id, by_id[class_id].topology,
                               weights, trace)
            outcomes.append(JobOutcome(class_id, model=model,
                                       queue_wait=waited,
                                       compute_seconds=compute))
        else:
            outcomes.append(JobOutcome(class_id, error=str(err),
                                       exception=err, queue_wait=waited,
                                       compute_seconds=compute))
    outcomes.sort(key=lambda o: o.class_id)
    return outcomes


def _serialize(header: str, weights: Weights) -> bytes:
    lines = [header, " ".join(str(s) for s in weights.layer_sizes)]
    for w, b in zip(weights.weights, weights.biases):
        for row in w:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        lines.append(" ".join(f"{x:.17g}" for x in b))
    body = ("\n".join(lines) + "\n").encode("ascii")
    return body + f"CRC32 {zlib.crc32(body):08x}\n".encode("ascii")


def _parse(raw: bytes, expected_magic: str, path: Path):
    marker = raw.rfind(b"CRC32 ")
    if marker <= 0 or raw[marker - 1 : marker] != b"\n":
        raise FormatError(f"{path}: missing checksum trailer")
    body = raw[:marker]
    try:
        stated = int(raw[marker + 6 :].split()[0], 16)
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed checksum trailer") from exc
    if zlib.crc32(body) != stated:
        raise ChecksumMismatch(f"{path}: payload does not match checksum")

    lines = body.decode("ascii").splitlines()
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
    return header_ids, sizes, Weights(ws, bs)


def class_filename(class_id: int) -> str:
    return f"class_{class_id}.wts"


def persist(model: ClassModel, store: WeightStore) -> PersistOutcome:
    """Write the model to every root; every replica is byte-identical.

    Roots that cannot be written are reported as StoreErrors in the
    outcome. Raises only when no replica at all could be written.
    """
    payload = _serialize(f"OCONW1 {model.class_id}", model.weights)
    return _replicate(payload, class_filename(model.class_id), store)


def _replicate(payload: bytes, filename: str, store: WeightStore) -> PersistOutcome:
    outcome = PersistOutcome()
    for root in store.roots:
        try:
            Path(root).mkdir(parents=True, exist_ok=True)
            target = Path(root) / filename
            target.write_bytes(payload)
            outcome.written.append(target)
        except OSError as exc:
            outcome.errors.append(StoreError(f"{root}: {exc}"))
    if not outcome.written:
        raise StoreError(
            f"no replica written for {filename}: "
            + "; ".join(str(e) for e in outcome.errors)
        )
    return outcome


def read_weight_file(path: str | Path) -> ClassModel:
    """Parse and checksum-validate one OCON weight file."""
    path = Path(path)
    raw = path.read_bytes()
    header_ids, sizes, weights = _parse(raw, "OCONW1", path)
    if len(header_ids) != 1:
        raise FormatError(f"{path}: header must carry exactly one class id")
    return ClassModel(header_ids[0], Topology(tuple(sizes)), weights)


def load(class_id: int, store: WeightStore) -> ClassModel:
    """Fetch a class model from the first root holding a valid replica.

    Missing or corrupt replicas are skipped; only when every root fails
    does the class become WeightsUnavailable.
    """
    for root in store.roots:
        path = Path(root) / class_filename(class_id)
        try:
            model = read_weight_file(path)
        except (OSError, FormatError, ChecksumMismatch):
            continue
        if model.class_id == class_id:
            return model
    raise WeightsUnavailable(class_id)


def persist_acon(model: AconModel, store: WeightStore) -> PersistOutcome:
    """Replicate the single all-classes net; header carries the id order."""
    header = "ACONW1 " + " ".join(str(c) for c in model.class_ids)
    return _replicate(_serialize(header, model.weights), ACON_FILENAME, store)


def load_acon(store: WeightStore) -> AconModel:
    for root in store.roots:
        path = Path(root) / ACON_FILENAME
        try:
            raw = path.read_bytes()
            class_ids, sizes, weights = _parse(raw, "ACONW1", path)
            return AconModel(tuple(class_ids), Topology(tuple(sizes)), weights)
        except (OSError, FormatError, ChecksumMismatch):
            continue
    raise StoreError(f"no valid replica of {ACON_FILENAME} in any root")
