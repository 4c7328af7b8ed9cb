import errno
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facemlp import errors, parallel
from facemlp.classifiers import (AconModel, ClassModel, build_ocon_jobs,
                                 train_ocon)
from facemlp.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    Diverged,
    FormatError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
    WorkerDied,
)
from facemlp.mlp import Topology, TrainingConfig, init_weights, train
from facemlp.parallel import (
    JobOutcome,
    OconRun,
    PoolConfig,
    TrainingJob,
    WeightStore,
    allocate,
    class_filename,
    load,
    load_acon,
    persist,
    persist_acon,
    read_weight_file,
    run_pool,
)
from facemlp.store import frame, verify

HIDDEN = 3
TOPO = Topology((2, HIDDEN, 1))      # every net of a run over INPUTS
CFG = TrainingConfig(learning_rate=0.3, momentum=0.8, goal=1e-2,
                     max_epochs=400, seed=0)


# Every job of a run trains on this one input matrix.
INPUTS = np.random.default_rng(0).uniform(-1, 1, (6, 2))


def sample_targets(class_id):
    return np.random.default_rng(class_id).integers(0, 2, (6, 1)) * 1.0


def make_jobs(count, targets=None):
    """A run of classes 1..count; targets maps a class id to its own."""
    targets = targets or {}
    return OconRun(INPUTS, HIDDEN, CFG,
                   [TrainingJob(i, targets.get(i, sample_targets(i)))
                    for i in range(1, count + 1)])


def random_model(class_id, seed, sizes=(3, 4, 1)):
    w = init_weights(Topology(sizes), seed)
    rng = np.random.default_rng(seed + 1000)
    for arr in w.weights:
        arr += rng.normal(scale=2.0, size=arr.shape)
    return ClassModel(class_id, w)


def test_allocate_round_robin_even_split():
    buckets = allocate(make_jobs(10), PoolConfig(workers=10))
    assert [len(b) for b in buckets] == [1] * 10


def test_allocate_round_robin_modular():
    buckets = allocate(make_jobs(10), PoolConfig(workers=4))
    assert [len(b) for b in buckets] == [3, 3, 2, 2]
    assert [j.class_id for j in buckets[0]] == [1, 5, 9]


def test_allocate_round_robin_never_idles_a_worker():
    for n in range(4, 12):
        buckets = allocate(make_jobs(n), PoolConfig(workers=4))
        assert all(buckets)


def test_allocate_rejects_empty():
    with pytest.raises(InvalidConfig):
        allocate(make_jobs(0), PoolConfig())


@pytest.mark.parametrize("workers", [1, 2])
def test_run_pool_rejects_empty_at_every_worker_count(workers):
    with pytest.raises(InvalidConfig):
        run_pool(make_jobs(0), PoolConfig(workers=workers))


def test_pool_config_validation():
    with pytest.raises(InvalidConfig):
        PoolConfig(workers=0)


def test_run_pool_results_sorted_and_complete():
    outcomes = run_pool(make_jobs(5), PoolConfig(workers=1))
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4, 5]
    assert all(o.model is not None for o in outcomes)
    assert all(o.compute_seconds > 0.0 for o in outcomes)
    assert all(o.compute_seconds == o.model.trace.wall_time for o in outcomes)


def test_run_pool_parallel_equals_sequential():
    jobs = make_jobs(6)
    seq = run_pool(jobs, PoolConfig(workers=1))
    par = run_pool(jobs, PoolConfig(workers=3))
    for a, b in zip(seq, par):
        assert a.class_id == b.class_id
        for x, y in zip(a.model.weights.weights, b.model.weights.weights):
            assert np.array_equal(x, y)
        assert a.model.trace.mse_history == b.model.trace.mse_history


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_pool_forks_one_process_fewer_than_its_workers(monkeypatch,
                                                           workers):
    # The calling process trains the last bucket, so W workers start W - 1
    # processes and one worker starts none; the outcomes stay the same.
    reference = run_pool(make_jobs(4), PoolConfig(workers=1))
    started = []
    fork = os.fork

    def counting_fork():
        started.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    outcomes = run_pool(make_jobs(4), PoolConfig(workers=workers))
    assert started == [os.getpid()] * (workers - 1)
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4]
    for a, b in zip(reference, outcomes):
        assert same_models(a.model, b.model)


# Targets whose squared error is non-finite on the first update.
DIVERGING = np.full((6, 1), 1e160)


def test_run_pool_isolates_failures():
    outcomes = run_pool(make_jobs(3, {2: DIVERGING}), PoolConfig(workers=1))
    assert outcomes[0].model is not None
    assert outcomes[2].model is not None
    assert outcomes[1].model is None
    assert isinstance(outcomes[1].exception, Diverged)
    assert "epoch" in str(outcomes[1].exception)
    # One clock: the diverged job's time per epoch is the trained jobs'.
    trace = outcomes[0].model.trace
    rate = trace.wall_time / trace.epochs_run
    assert rate > 0
    for o in outcomes:
        epochs = (o.exception.epoch if o.model is None
                  else o.model.trace.epochs_run)
        np.testing.assert_allclose(o.compute_seconds / epochs, rate, rtol=1e-9)


def test_run_pool_failure_capture_crosses_processes():
    outcomes = run_pool(make_jobs(2, {1: DIVERGING}), PoolConfig(workers=2))
    assert outcomes[0].model is None
    assert isinstance(outcomes[0].exception, Diverged)
    assert outcomes[0].exception.epoch == 1
    assert outcomes[1].model is not None


# One instance of every error class: a job's exception crosses the process
# boundary in its JobOutcome, so each must pickle with its fields intact.
ERROR_CASES = [
    errors.FacemlpError("base"),
    errors.UnsupportedFormat("not a PGM"),
    errors.TruncatedImage("payload ended"),
    errors.UnsupportedDepth("maxval 65535"),
    errors.FileError("missing file"),
    errors.ManifestSyntax("bad role", 7),
    errors.InvalidConfig("workers must be >= 1"),
    errors.DimensionMismatch("3 != 4"),
    errors.InsufficientData("too few vectors"),
    errors.FormatError("truncated"),
    errors.Diverged(12),
    errors.EmptyClass("no samples"),
    errors.NoCounterexamples("no negatives"),
    errors.InsufficientClasses("need >= 2 classes"),
    errors.StoreError("no root"),
    errors.ChecksumMismatch("crc"),
    errors.WeightsUnavailable(5),
    errors.WorkerDied("pool worker 4242 was killed by signal 9"),
    errors.ProtocolError(3, "no negative exemplars available"),
]


def error_classes(cls=errors.FacemlpError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def test_outcomes_and_errors_survive_pickle():
    assert {type(e) for e in ERROR_CASES} == set(error_classes())
    for exc in ERROR_CASES:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc) and copy.args == exc.args
        assert vars(copy) == vars(exc)

    [outcome] = run_pool(make_jobs(1), PoolConfig(workers=1))
    copy = pickle.loads(pickle.dumps(outcome))
    assert (copy.class_id, copy.exception) == (1, None)
    assert copy.compute_seconds == outcome.compute_seconds
    assert copy.model.weights.layer_sizes == outcome.model.weights.layer_sizes
    assert same_models(copy.model, outcome.model)
    assert vars(copy.model.trace) == vars(outcome.model.trace)


def same_models(a, b) -> bool:
    arrays = zip(a.weights.weights + a.weights.biases,
                 b.weights.weights + b.weights.biases)
    return (all(x.tobytes() == y.tobytes() for x, y in arrays)
            and a.trace.mse_history == b.trace.mse_history)


@settings(max_examples=8, deadline=None)
@given(classes=st.integers(2, 7), seed=st.integers(0, 1000))
@example(classes=5, seed=0)
def test_ocon_weights_identical_across_worker_counts(classes, seed):
    # Classes hold 2, 3 or 4 samples, but every class's job trains on all
    # of them, so one worker trains every net in a single stack.
    rng = np.random.default_rng(seed)
    samples = [(rng.normal(size=3), cid) for cid in range(1, classes + 1)
               for _ in range(2 + cid % 3)]
    config = TrainingConfig(learning_rate=0.5, momentum=0.8, goal=1e-3,
                            max_epochs=150, seed=seed)

    def trained(workers):
        return train_ocon(samples, 4, config, PoolConfig(workers))

    groups = []
    real_train_group = parallel.train_group

    def counting_train_group(topology, inputs, targets, config, seeds):
        groups.append(len(targets))
        return real_train_group(topology, inputs, targets, config, seeds)

    parallel.train_group = counting_train_group
    try:
        single = trained(1)
    finally:
        parallel.train_group = real_train_group
    assert groups == [classes]

    for workers in (2, 3):
        for a, b in zip(single.models, trained(workers).models):
            assert a.class_id == b.class_id
            assert same_models(a, b)


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_stay_isolated_inside_a_lockstep_group(workers):
    # Round robin over 2 workers puts jobs 1, 3 and 5 in one bucket, so
    # the diverging job 3 shares a group with good jobs at either worker
    # count. Each good net must equal the same net trained alone from its
    # own seed, config.seed + class_id. A job with bad targets fails the
    # run as it is built, whatever the worker count.
    with pytest.raises(DimensionMismatch, match="class 4 targets shape"):
        make_jobs(5, {3: DIVERGING, 4: np.zeros((6, 2))})
    run = make_jobs(5, {3: DIVERGING})
    outcomes = run_pool(run, PoolConfig(workers=workers))
    assert isinstance(outcomes[2].exception, Diverged)
    assert outcomes[2].exception.epoch == 1
    for job, outcome in zip(run.jobs, outcomes):
        if job.class_id == 3:
            assert outcome.model is None
            continue
        weights, trace = train(TOPO, INPUTS, job.targets,
                               replace(CFG, seed=CFG.seed + job.class_id))
        alone = ClassModel(job.class_id, weights, trace)
        assert same_models(outcome.model, alone)
    assert all(o.compute_seconds > 0 for o in outcomes)


@pytest.mark.parametrize("targets", [np.zeros((6, 2)), np.zeros((5, 1)),
                                     np.zeros(6)],
                         ids=["wide", "short", "vector"])
def test_run_rejects_targets_that_are_not_a_column_over_its_inputs(targets):
    with pytest.raises(DimensionMismatch, match=r"expected \(6, 1\)"):
        make_jobs(3, {2: targets})


def test_a_negative_seed_fails_the_run_as_it_is_built():
    # Job c trains from seed config.seed + c. Class -1 at seed 0 would
    # start from seed -1, which init_weights cannot draw from; had that
    # failed its bucket, it would fail other classes at 1 worker than at 2.
    rng = np.random.default_rng(3)
    samples = [(rng.normal(size=2), cid) for cid in (-1, 1, 2, 3)
               for _ in range(2)]
    config = replace(CFG, seed=0)
    with pytest.raises(InvalidConfig, match="class -1 .* seed -1"):
        build_ocon_jobs(samples, 3, config)
    run = build_ocon_jobs(samples, 3, replace(config, seed=1))
    one, two = (run_pool(run, PoolConfig(w)) for w in (1, 2))
    assert [o.class_id for o in one] == [o.class_id for o in two] == [-1, 1, 2, 3]
    assert all(o.model is not None for o in one + two)
    assert all(same_models(a.model, b.model) for a, b in zip(one, two))


@pytest.mark.parametrize("first", [1, 2], ids=["forked", "own"])
def test_a_bucket_that_raises_fails_each_of_its_jobs(monkeypatch, first):
    # A failure that is not one net's divergence belongs to the bucket:
    # every job of the bucket reports it, the other bucket completes. At 2
    # workers jobs 1 and 3 train in a fork, jobs 2 and 4 in this process.
    reference = run_pool(make_jobs(4), PoolConfig(workers=1))
    real = parallel.train_group

    def failing(topology, inputs, targets, config, seeds):
        if seeds[0] == CFG.seed + first:
            raise MemoryError("no room for the stack")
        return real(topology, inputs, targets, config, seeds)

    monkeypatch.setattr(parallel, "train_group", failing)
    outcomes = run_pool(make_jobs(4), PoolConfig(workers=2))
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4]
    for a, b in zip(reference, outcomes):
        if b.class_id in (first, first + 2):
            assert b.model is None and isinstance(b.exception, MemoryError)
            assert b.compute_seconds == 0.0
        else:
            assert same_models(a.model, b.model)


def test_a_dead_worker_fails_only_the_forked_buckets(monkeypatch):
    # A forked process that dies fails its bucket: each of its jobs
    # reports WorkerDied, while the nets this process trained stand byte
    # for byte. The fork inherits the patched train_group.
    reference = run_pool(make_jobs(5), PoolConfig(workers=1))
    parent, real = os.getpid(), parallel.train_group

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(parallel, "train_group", dying)
    outcomes = run_pool(make_jobs(5), PoolConfig(workers=2))
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4, 5]
    for a, b in zip(reference, outcomes):
        if b.class_id % 2:              # jobs 1, 3, 5: the forked bucket
            assert b.model is None
            assert isinstance(b.exception, WorkerDied)
            assert str(b.exception).endswith(" exited with status 1")
        else:
            assert b.exception is None
            assert same_models(a.model, b.model)


def test_a_dead_worker_fails_only_its_own_bucket(monkeypatch):
    # At 3 workers jobs 1 and 4 train in one fork, 2 and 5 in another and
    # 3 in this process. The first fork is killed by a signal: its jobs
    # report WorkerDied, and both other buckets stand byte for byte.
    reference = run_pool(make_jobs(5), PoolConfig(workers=1))
    real = parallel.train_group

    def dying(topology, inputs, targets, config, seeds):
        if seeds[0] == CFG.seed + 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(topology, inputs, targets, config, seeds)

    monkeypatch.setattr(parallel, "train_group", dying)
    outcomes = run_pool(make_jobs(5), PoolConfig(workers=3))
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4, 5]
    for a, b in zip(reference, outcomes):
        if b.class_id in (1, 4):
            assert b.model is None
            assert isinstance(b.exception, WorkerDied)
            assert str(b.exception).endswith(
                f" was killed by signal {signal.SIGKILL:d}")
        else:
            assert b.exception is None
            assert same_models(a.model, b.model)


def test_a_failed_fork_fails_only_its_own_bucket(monkeypatch):
    # A fork that raises (EAGAIN at the process limit) starts no process:
    # its pipe is closed, each job of its bucket reports the error, and
    # the bucket this process trains stands byte for byte. At 3 workers
    # jobs 1 and 4, and 2 and 5, were to fork; job 3 trains here.
    reference = run_pool(make_jobs(5), PoolConfig(workers=1))

    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    open_fds = len(os.listdir("/dev/fd"))
    outcomes = run_pool(make_jobs(5), PoolConfig(workers=3))
    assert len(os.listdir("/dev/fd")) == open_fds
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4, 5]
    for a, b in zip(reference, outcomes):
        if b.class_id == 3:
            assert b.exception is None
            assert same_models(a.model, b.model)
        else:
            assert b.model is None
            assert isinstance(b.exception, BlockingIOError)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_outlives_a_clean_run():
    assert len(run_pool(make_jobs(5), PoolConfig(workers=3))) == 5
    assert_no_child_left()


def test_no_child_outlives_a_run_whose_own_bucket_raises(monkeypatch):
    # SystemExit is no Exception, so run_pool does not catch it as the
    # bucket's failure: it propagates, and the forks, still training for
    # a minute, are killed and reaped on the way out.
    parent, real = os.getpid(), parallel.train_group

    def stalling(*args):
        if os.getpid() == parent:
            raise SystemExit(143)
        time.sleep(60)
        return real(*args)

    monkeypatch.setattr(parallel, "train_group", stalling)
    started = time.monotonic()
    with pytest.raises(SystemExit):
        run_pool(make_jobs(5), PoolConfig(workers=3))
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_run_pool_rejects_duplicate_ids():
    with pytest.raises(InvalidConfig):
        OconRun(INPUTS, HIDDEN, CFG, [TrainingJob(1, sample_targets(1)),
                                      TrainingJob(1, sample_targets(2))])


def test_job_requires_samples():
    with pytest.raises(InvalidConfig):
        OconRun(np.empty((0, 2)), HIDDEN, CFG,
                [TrainingJob(1, np.empty((0, 1)))])


def test_a_run_derives_its_topology_from_its_inputs():
    # Every net of a run is (input width, hidden, 1), so the run cannot
    # name another width than its matrix's. A run whose nets cannot be
    # built fails as it is built, not in each bucket.
    jobs = make_jobs(2).jobs
    assert make_jobs(2).topology == TOPO
    assert OconRun(INPUTS[:, :1], 5, CFG, jobs).topology == Topology((1, 5, 1))
    for inputs, hidden in ((INPUTS, 0), (INPUTS[:, 0], HIDDEN),
                           (np.empty((6, 0)), HIDDEN)):
        with pytest.raises(InvalidConfig):
            OconRun(inputs, hidden, CFG, jobs)


def test_persist_replicates_identically(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    outcome = persist(random_model(3, seed=1), store)
    assert len(outcome.written) == 2
    assert not outcome.errors
    blobs = [p.read_bytes() for p in outcome.written]
    assert blobs[0] == blobs[1]
    assert blobs[0].splitlines()[0] == b"OCONW1 3"
    assert blobs[0].splitlines()[-1].startswith(b"CRC32 ")


def test_persist_survives_one_bad_root(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    store = WeightStore((blocker, tmp_path / "ok"))
    outcome = persist(random_model(1, seed=2), store)
    assert len(outcome.written) == 1
    assert len(outcome.errors) == 1
    assert isinstance(outcome.errors[0], StoreError)


def test_persist_fails_with_no_writable_root(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("x")
    with pytest.raises(StoreError):
        persist(random_model(1, seed=2), WeightStore((blocker,)))


def test_persist_load_roundtrip_is_exact(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = random_model(7, seed=11)
    persist(model, store)
    loaded = load(7, store)
    assert loaded.class_id == 7
    assert loaded.weights.layer_sizes == model.weights.layer_sizes
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)
    for x, y in zip(loaded.weights.biases, model.weights.biases):
        assert np.array_equal(x, y)


def test_load_fails_over_to_second_root(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = random_model(2, seed=5)
    persist(model, store)
    (tmp_path / "a" / class_filename(2)).unlink()
    loaded = load(2, store)
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)


def test_any_single_root_loss_is_tolerated(tmp_path):
    model = random_model(4, seed=9)
    for victim in ("a", "b"):
        root_a, root_b = tmp_path / f"{victim}1", tmp_path / f"{victim}2"
        store = WeightStore((root_a, root_b))
        persist(model, store)
        doomed = root_a if victim == "a" else root_b
        (doomed / class_filename(4)).unlink()
        assert load(4, store).class_id == 4


def test_corruption_detected_and_failed_over(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = random_model(5, seed=6)
    persist(model, store)
    victim = tmp_path / "a" / class_filename(5)
    raw = bytearray(victim.read_bytes())
    raw[60] ^= 0x01
    victim.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        read_weight_file(victim)
    loaded = load(5, store)
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)


def test_load_reports_a_replica_holding_another_class(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    persist(random_model(2, seed=5), store)
    persist(random_model(3, seed=6), store)
    stray = tmp_path / "a" / class_filename(2)
    stray.write_bytes((tmp_path / "a" / class_filename(3)).read_bytes())
    skipped = []
    loaded = load(2, store, lambda path, exc: skipped.append((path, exc)))
    assert loaded.class_id == 2
    assert [path for path, _ in skipped] == [stray]
    assert isinstance(skipped[0][1], FormatError)


def test_load_exhaustion(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    with pytest.raises(WeightsUnavailable) as err:
        load(9, store)
    assert err.value.class_id == 9


def test_read_rejects_foreign_header(tmp_path):
    store = WeightStore((tmp_path / "a",))
    persist_acon_model = AconModel((1, 2),
                                   init_weights(Topology((2, 2, 2)), 0))
    persist_acon(persist_acon_model, store)
    with pytest.raises(FormatError):
        read_weight_file(tmp_path / "a" / "acon.wts")


def test_read_rejects_parameter_count_mismatch(tmp_path):
    store = WeightStore((tmp_path / "a",))
    persist(random_model(1, seed=0, sizes=(2, 2, 1)), store)
    path = tmp_path / "a" / class_filename(1)
    lines = path.read_bytes().splitlines(keepends=True)
    # drop one parameter line, then restore a matching checksum
    import zlib
    body = b"".join(lines[:-2])
    path.write_bytes(body + b"CRC32 %08x\n" % zlib.crc32(body))
    with pytest.raises(FormatError):
        read_weight_file(path)


def test_missing_trailer_rejected(tmp_path):
    p = tmp_path / "x.wts"
    p.write_bytes(b"OCONW1 1\n2 1\n0 0\n0\n")
    with pytest.raises(FormatError):
        read_weight_file(p)


def test_non_ascii_body_with_valid_checksum_rejected(tmp_path):
    p = tmp_path / "class_1.wts"
    p.write_bytes(frame(b"OCONW1 1\n2 1\n0 \xff\n0\n"))
    with pytest.raises(FormatError):
        read_weight_file(p)


@pytest.mark.parametrize("body, reason", [
    (b"OCONW1 1\n2 1\n", "truncated weight file"),
    (b"OCONW1 1\n2 1\n0 x\n0\n", "malformed numeric field"),
    (b"OCONW1 1\n2 0\n0\n", "bad layer sizes"),
    (b"OCONW1 1 2\n2 1\n0 0\n0\n", "exactly one class id")],
    ids=["short", "non_numeric", "zero_layer", "two_ids"])
def test_load_fails_over_a_weight_file_the_codec_rejects(tmp_path, body,
                                                         reason):
    # Each body is framed with a valid CRC, so the codec rejects it, not
    # the checksum, and the read fails over to the next root.
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = random_model(1, seed=3, sizes=(2, 1))
    persist(model, store)
    victim = tmp_path / "a" / class_filename(1)
    victim.write_bytes(frame(body))
    with pytest.raises(FormatError, match=reason):
        read_weight_file(victim)
    skipped = []
    loaded = load(1, store, lambda path, exc: skipped.append(path))
    assert skipped == [victim]
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)


def test_acon_roundtrip(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    w = init_weights(Topology((3, 4, 2)), seed=2)
    model = AconModel((2, 6), w)
    persist_acon(model, store)
    loaded = load_acon(store)
    assert loaded.class_ids == (2, 6)
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)


def test_acon_failover_and_exhaustion(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    w = init_weights(Topology((2, 3, 2)), seed=4)
    persist_acon(AconModel((1, 2), w), store)
    (tmp_path / "a" / "acon.wts").unlink()
    assert load_acon(store).class_ids == (1, 2)
    (tmp_path / "b" / "acon.wts").unlink()
    with pytest.raises(StoreError):
        load_acon(store)


def set_first_weight(path, token: bytes) -> None:
    """Replace a weight file's first weight with token, recomputing the
    checksum so that only the value is wrong."""
    lines = verify(path.read_bytes(), path).split(b"\n")
    lines[2] = b" ".join([token, *lines[2].split()[1:]])
    path.write_bytes(frame(b"\n".join(lines)))


@pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf"])
def test_load_fails_over_a_non_finite_class_weight(tmp_path, token):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = random_model(1, seed=3)
    persist(model, store)
    victim = tmp_path / "a" / class_filename(1)
    set_first_weight(victim, token)
    with pytest.raises(FormatError, match="non-finite value"):
        read_weight_file(victim)
    skipped = []
    loaded = load(1, store, lambda path, exc: skipped.append(path))
    assert skipped == [victim]
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)
    set_first_weight(tmp_path / "b" / class_filename(1), token)
    with pytest.raises(WeightsUnavailable):
        load(1, store)


@pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf"])
def test_load_acon_fails_over_a_non_finite_weight(tmp_path, token):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    model = AconModel((1, 2), init_weights(Topology((2, 3, 2)), seed=4))
    persist_acon(model, store)
    set_first_weight(tmp_path / "a" / "acon.wts", token)
    skipped = []
    loaded = load_acon(store, lambda path, exc: skipped.append(exc))
    assert [str(e).endswith("non-finite value") for e in skipped] == [True]
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)
    set_first_weight(tmp_path / "b" / "acon.wts", token)
    with pytest.raises(StoreError):
        load_acon(store)


def test_store_requires_roots():
    with pytest.raises(InvalidConfig):
        WeightStore(())


def test_seventeen_digit_precision_in_file(tmp_path):
    # a value with no short decimal form must survive the text round trip
    w = init_weights(Topology((2, 1)), seed=0)
    w.weights[0][0, 0] = 0.1 + 0.2
    w.weights[0][0, 1] = np.pi
    model = ClassModel(8, w)
    store = WeightStore((tmp_path / "a",))
    persist(model, store)
    loaded = load(8, store)
    assert loaded.weights.weights[0][0, 0] == 0.1 + 0.2
    assert loaded.weights.weights[0][0, 1] == np.pi
