"""Distributes per-class training jobs and replicates the results.

The pool is a set of local worker processes standing in for the separate
machines a networked deployment would use: jobs are independent, training
is seed-deterministic, so the outcome is bit-identical however the jobs
are spread. An OconRun holds the inputs, hidden width and config once,
and each job only its class's targets, so a worker's jobs train as one
lockstep stack (mlp.train_group), sharing NumPy's per-call overhead with
no change to any net's arithmetic: processes split the classes, lockstep
speeds up each process. The calling process is the pool's last worker:
it trains the last bucket while a forked child per other bucket pipes
its outcomes back, so one worker forks nothing. A net fails alone only
by diverging; any other failure fails its own bucket, wherever it ran.

The weight-file codec lives here too: persist and load encode and decode
a net's text body, and facemlp.store frames it with its checksum,
replicates it to every root and fails over between the replicas.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatch, FormatError, InvalidConfig,
                     StoreError, WeightsUnavailable, WorkerDied)
from .mlp import (AconModel, ClassModel, Topology, TrainingConfig, Weights,
                  train_group, unflatten)
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
    """One class's (n, 1) 0/1 target column over its run's input matrix."""

    class_id: int
    targets: np.ndarray


@dataclass(eq=False)
class OconRun:
    """The pool's input: the (n, d) training matrix, the hidden width and
    the config that every OCON net, a (d, hidden, 1) net, shares, and one
    job per class. Job c trains from seed config.seed + c, so retraining
    one class disturbs no other. Any fault in these (no (n, d) inputs,
    hidden < 1, targets not an (n, 1) column, a negative seed) fails the
    whole run as it is built, so it cannot fail differently at different
    worker counts.
    """

    inputs: np.ndarray
    hidden: int
    config: TrainingConfig
    jobs: list[TrainingJob]

    def __post_init__(self):
        ids = [j.class_id for j in self.jobs]
        if not ids or len(set(ids)) != len(ids):
            raise InvalidConfig(f"a run needs one job per class, got ids {ids}")
        if np.ndim(self.inputs) != 2 or not np.size(self.inputs):
            raise InvalidConfig(f"run inputs shape {np.shape(self.inputs)}, "
                                f"expected a non-empty (n, d) matrix")
        if self.hidden < 1:
            raise InvalidConfig(f"hidden width must be >= 1, got {self.hidden}")
        wanted = (len(self.inputs), 1)
        for job in self.jobs:
            if np.shape(job.targets) != wanted:
                raise DimensionMismatch(f"class {job.class_id} targets shape "
                                        f"{np.shape(job.targets)}, expected {wanted}")
            seed = self.config.seed + job.class_id
            if seed < 0:
                raise InvalidConfig(f"class {job.class_id} trains from seed {seed} < 0")

    @property
    def topology(self) -> Topology:
        """Every net's layer sizes: (input width, hidden, 1)."""
        return Topology((self.inputs.shape[1], self.hidden, 1))


@dataclass(frozen=True)
class PoolConfig:
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")


@dataclass(eq=False)
class JobOutcome:
    """Result slot for one job; exactly one of model/exception is set."""

    class_id: int
    model: ClassModel | None = None
    exception: BaseException | None = None

    @property
    def compute_seconds(self) -> float:
        """The job's share of its stack's training time from train_group:
        its trace's or its Diverged's wall_time; 0.0 if it never trained."""
        timed = self.model.trace if self.model is not None else self.exception
        return getattr(timed, "wall_time", 0.0)


def allocate(run: OconRun, pool: PoolConfig) -> list[list[TrainingJob]]:
    """Split the run's jobs round robin, job i to worker i mod W, over at
    most one worker per job.

    Every job's epoch costs the same, as all train on the run's inputs at
    one topology, but its epoch count is unknown until it trains, so no
    split made in advance balances the buckets. At the ORL shape (40
    classes, seed 7) the nets took 471 to 1,517 epochs, and two buckets
    got 12,568 and 16,498 net-epochs.
    """
    workers = min(pool.workers, len(run.jobs))
    return [run.jobs[w::workers] for w in range(workers)]


def _run_job_list(run: OconRun, jobs: list[TrainingJob]):
    """Run a bucket of the run's jobs into one JobOutcome each, in order.

    The jobs train as one lockstep stack through a single train_group
    call at the run's topology, inputs and config, each from seed
    config.seed + class_id; its per-net time shares are the outcomes'
    compute_seconds. A net that diverges keeps its Diverged in its
    outcome; any other exception is the bucket's, for run_pool to catch.
    """
    trained = train_group(run.topology, run.inputs,
                          [j.targets for j in jobs], run.config,
                          [run.config.seed + j.class_id for j in jobs])
    return [JobOutcome(job.class_id, exception=result)
            if isinstance(result, Exception)
            else JobOutcome(job.class_id, ClassModel(job.class_id, *result))
            for job, result in zip(jobs, trained)]


def _gather(bucket: list[TrainingJob], outcomes: Callable) -> list[JobOutcome]:
    try:
        return outcomes()
    except Exception as exc:    # the bucket's: each job reports it
        return [JobOutcome(j.class_id, exception=exc) for j in bucket]


def _fork(run: OconRun, bucket: list[TrainingJob], children: dict) -> list:
    """Fork a child that pipes the bucket's outcomes back, and enter it as
    children[pid] = (bucket, read end); its outcomes come at the reap, so
    none are returned. A fork that fails closes the pipe and raises. The
    child leaves by os._exit: no return to the caller, no flush."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        children[pid] = bucket, os.fdopen(read, "rb")
        return []
    try:
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(_gather(bucket, lambda: _run_job_list(run, bucket)), pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _reap(pid: int, pipe) -> list[JobOutcome]:
    """A child's outcomes, read to EOF before the wait: no payload deadlocks."""
    with pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise WorkerDied(f"pool worker {pid} " + (f"was killed by signal {-code}"
                         if code < 0 else f"exited with status {code}"))
    return pickle.loads(data)


def run_pool(run: OconRun, pool: PoolConfig) -> list[JobOutcome]:
    """Train every job of the run and gather the outcomes by class_id.

    Worker count never changes the trained weights, only the wall time:
    jobs share no state, each is deterministic, and a job's arithmetic is
    the same whichever stack it trains in. The last bucket trains in this
    process, each other one in a forked child. A diverging net fails
    alone; any other failure (WorkerDied for a dead child, OSError for a
    fork that failed) fails its own bucket. No child outlives the call,
    even if this process raises.
    """
    *forked, own = allocate(run, pool)
    children = {}                       # pid -> (bucket, pipe) until reaped
    outcomes = []
    try:
        for bucket in forked:
            outcomes += _gather(bucket, lambda: _fork(run, bucket, children))
        outcomes += _gather(own, lambda: _run_job_list(run, own))
        for pid, (bucket, pipe) in list(children.items()):
            outcomes += _gather(bucket, lambda: _reap(pid, pipe))
            del children[pid]
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, 9)             # SIGKILL, which no handler catches
            os.waitpid(pid, 0)
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
    if len(set(header_ids)) != len(header_ids):
        raise FormatError(f"{path}: header repeats a class id")
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise FormatError(f"{path}: bad layer sizes {sizes}")

    expected = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    if len(numbers) != expected:
        raise FormatError(
            f"{path}: expected {expected} parameters, found {len(numbers)}"
        )
    values = np.array(numbers)      # each layer's weight rows, then its bias
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value")
    return header_ids, unflatten(values, sizes)


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


def _check_width(path: Path, weights: Weights, width: int | None) -> None:
    """Reject a net whose input width is not width, unless width is None."""
    if width is not None and weights.layer_sizes[0] != width:
        raise DimensionMismatch(f"{path}: input width "
                                f"{weights.layer_sizes[0]}, expected {width}")


def load(class_id: int, store: WeightStore, on_skip: Callable | None = None,
         width: int | None = None) -> ClassModel:
    """Fetch a class model from the first root holding a valid replica.

    A replica that is corrupt, holds another class or, when width is
    given, takes another input width (the eigenspace's components) is
    passed over and reported to on_skip; only when every root fails does
    the class become WeightsUnavailable.
    """
    def read(path: Path) -> ClassModel:
        model = read_weight_file(path)
        if model.class_id != class_id:
            raise FormatError(f"{path}: holds class {model.class_id}")
        _check_width(path, model.weights, width)
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


def load_acon(store: WeightStore, on_skip: Callable | None = None,
              width: int | None = None,
              class_ids: list[int] | None = None) -> AconModel:
    """The all-classes net from the first root holding a valid replica.

    A replica that is corrupt or, when these are given, takes another
    input width than width or scores another set of classes than
    class_ids is passed over and reported to on_skip.
    """
    def read(path: Path) -> AconModel:
        ids, weights = _parse(path.read_bytes(), "ACONW1", path)
        model = AconModel(tuple(ids), weights)
        _check_width(path, weights, width)
        if class_ids is not None and sorted(ids) != sorted(class_ids):
            raise FormatError(f"{path}: holds classes {sorted(ids)}, "
                              f"expected {sorted(class_ids)}")
        return model

    model = read_replicated(store, ACON_FILENAME, read, on_skip)
    if model is None:
        raise StoreError(f"no valid replica of {ACON_FILENAME} in any root")
    return model
