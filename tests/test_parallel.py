import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facemlp import errors, parallel
from facemlp.classifiers import AconModel, ClassModel, train_ocon
from facemlp.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    Diverged,
    FormatError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
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

TOPO = Topology((2, 3, 1))
CFG = TrainingConfig(learning_rate=0.3, momentum=0.8, goal=1e-2,
                     max_epochs=400, seed=0)


# Every job of a run trains on this one input matrix.
INPUTS = np.random.default_rng(0).uniform(-1, 1, (6, 2))


def sample_targets(class_id):
    return np.random.default_rng(class_id).integers(0, 2, (6, 1)) * 1.0


def make_jobs(count, targets=None):
    """A run of classes 1..count; targets maps a class id to its own."""
    targets = targets or {}
    return OconRun(INPUTS, TOPO, CFG,
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
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        counting_start)
    outcomes = run_pool(make_jobs(4), PoolConfig(workers=workers))
    assert len(started) == workers - 1
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
    # A forked process that dies breaks the executor: each forked job
    # reports BrokenProcessPool, while the nets this process trained stand
    # byte for byte. The fork inherits the patched train_group.
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
            assert isinstance(b.exception, BrokenProcessPool)
        else:
            assert b.exception is None
            assert same_models(a.model, b.model)


def test_run_pool_rejects_duplicate_ids():
    with pytest.raises(InvalidConfig):
        OconRun(INPUTS, TOPO, CFG, [TrainingJob(1, sample_targets(1)),
                                    TrainingJob(1, sample_targets(2))])


def test_job_requires_samples():
    with pytest.raises(InvalidConfig):
        OconRun(np.empty((0, 2)), TOPO, CFG,
                [TrainingJob(1, np.empty((0, 1)))])


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
