import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facemlp import parallel
from facemlp.classifiers import AconModel, ClassModel, train_ocon
from facemlp.cli import OVERHEAD_WARN_RATIO
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
    ALLOCATION_POLICIES,
    JobOutcome,
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

TOPO = Topology((2, 3, 1))
CFG = TrainingConfig(learning_rate=0.3, momentum=0.8, goal=1e-2,
                     max_epochs=400, seed=0)


def sample_task(class_id, n=6):
    rng = np.random.default_rng(class_id)
    return [(rng.uniform(-1, 1, 2), float(i % 2)) for i in range(n)]


def make_jobs(count, task_sizes=None):
    jobs = []
    for i in range(1, count + 1):
        size = task_sizes[i - 1] if task_sizes else 6
        jobs.append(TrainingJob(i, sample_task(i, size), TOPO, CFG))
    return jobs


def random_model(class_id, seed, sizes=(3, 4, 1)):
    w = init_weights(Topology(sizes), seed)
    rng = np.random.default_rng(seed + 1000)
    for arr in w.weights:
        arr += rng.normal(scale=2.0, size=arr.shape)
    return ClassModel(class_id, Topology(sizes), w)


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


def test_allocate_largest_first_balances():
    jobs = make_jobs(4, task_sizes=[9, 5, 5, 1])
    buckets = allocate(jobs, PoolConfig(workers=2,
                                        allocation="largest_first"))
    loads = [sum(j.size for j in b) for b in buckets]
    assert loads == [10, 10]
    assert [j.class_id for j in buckets[0]] == [1, 4]
    assert [j.class_id for j in buckets[1]] == [2, 3]


def test_allocate_largest_first_ties_by_class_id():
    jobs = make_jobs(3, task_sizes=[4, 4, 4])
    buckets = allocate(jobs, PoolConfig(workers=3,
                                        allocation="largest_first"))
    assert [b[0].class_id for b in buckets] == [1, 2, 3]


def test_allocate_rejects_empty():
    with pytest.raises(InvalidConfig):
        allocate([], PoolConfig())


def test_pool_config_validation():
    with pytest.raises(InvalidConfig):
        PoolConfig(workers=0)
    with pytest.raises(InvalidConfig):
        PoolConfig(allocation="fastest")


def test_run_pool_results_sorted_and_complete():
    outcomes = run_pool(make_jobs(5), PoolConfig(workers=1))
    assert [o.class_id for o in outcomes] == [1, 2, 3, 4, 5]
    assert all(o.model is not None for o in outcomes)
    assert all(o.queue_wait >= 0.0 for o in outcomes)
    assert all(o.compute_seconds > 0.0 for o in outcomes)


def test_queue_wait_excludes_earlier_jobs_compute():
    # With one worker every job shares a bucket; a job's wait must not
    # include the training time of the jobs ahead of it.
    outcomes = run_pool(make_jobs(6), PoolConfig(workers=1))
    total_wait = sum(o.queue_wait for o in outcomes)
    total_compute = sum(o.compute_seconds for o in outcomes)
    assert total_wait < OVERHEAD_WARN_RATIO * total_compute


def test_run_pool_parallel_equals_sequential():
    jobs = make_jobs(6)
    seq = run_pool(jobs, PoolConfig(workers=1))
    par = run_pool(jobs, PoolConfig(workers=3))
    for a, b in zip(seq, par):
        assert a.class_id == b.class_id
        for x, y in zip(a.model.weights.weights, b.model.weights.weights):
            assert np.array_equal(x, y)
        assert a.model.trace.mse_history == b.model.trace.mse_history


def test_run_pool_isolates_failures():
    jobs = make_jobs(3)
    # non-finite squared error on the first update
    jobs[1] = TrainingJob(2, [(np.zeros(2), 1e160)], TOPO, CFG)
    outcomes = run_pool(jobs, PoolConfig(workers=1))
    assert outcomes[0].model is not None
    assert outcomes[2].model is not None
    assert outcomes[1].model is None
    assert isinstance(outcomes[1].exception, Diverged)
    assert "epoch" in outcomes[1].error


def test_run_pool_failure_capture_crosses_processes():
    jobs = make_jobs(2)
    jobs[0] = TrainingJob(1, [(np.zeros(2), 1e160)], TOPO, CFG)
    outcomes = run_pool(jobs, PoolConfig(workers=2))
    assert outcomes[0].model is None
    assert isinstance(outcomes[0].exception, Diverged)
    assert outcomes[0].exception.epoch == 1
    assert outcomes[1].model is not None


def same_models(a, b) -> bool:
    arrays = zip(a.weights.weights + a.weights.biases,
                 b.weights.weights + b.weights.biases)
    return (all(x.tobytes() == y.tobytes() for x, y in arrays)
            and a.trace.mse_history == b.trace.mse_history)


@settings(max_examples=8, deadline=None)
@given(classes=st.integers(2, 7),
       allocation=st.sampled_from(ALLOCATION_POLICIES),
       max_negatives=st.sampled_from([None, 3]),
       seed=st.integers(0, 1000))
@example(classes=5, allocation="round_robin", max_negatives=3, seed=0)
def test_ocon_weights_identical_across_worker_counts(
        classes, allocation, max_negatives, seed):
    # Classes hold 2, 3 or 4 samples; capping negatives then gives tasks
    # of several sizes, so a bucket holds more than one lockstep group.
    rng = np.random.default_rng(seed)
    samples = [(rng.normal(size=3), cid) for cid in range(1, classes + 1)
               for _ in range(2 + cid % 3)]
    config = TrainingConfig(learning_rate=0.5, momentum=0.8, goal=1e-3,
                            max_epochs=150, seed=seed)

    def trained(workers):
        return train_ocon(samples, Topology((3, 4, 1)), config,
                          PoolConfig(workers, allocation), max_negatives)

    groups = []
    real_train_group = parallel.train_group

    def counting_train_group(topology, batches, configs):
        groups.append(len(batches))
        return real_train_group(topology, batches, configs)

    parallel.train_group = counting_train_group
    try:
        single = trained(1)
    finally:
        parallel.train_group = real_train_group
    assert sum(groups) == classes
    if max_negatives is not None and classes >= 3:
        assert len(groups) > 1

    for workers in (2, 3):
        for a, b in zip(single.models, trained(workers).models):
            assert a.class_id == b.class_id
            assert same_models(a, b)


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_stay_isolated_inside_a_lockstep_group(workers):
    # Round robin over 2 workers puts jobs 1 and 3 in one bucket, so the
    # diverging job 3 and the bad-width job 4 share groups with good jobs
    # at either worker count.
    jobs = make_jobs(5)
    jobs[2] = TrainingJob(3, [(np.zeros(2), 1e160)] * 6, TOPO, CFG)
    jobs[3] = TrainingJob(4, [(np.zeros(3), 0.0)] * 6, TOPO, CFG)
    outcomes = run_pool(jobs, PoolConfig(workers=workers))
    assert isinstance(outcomes[2].exception, Diverged)
    assert outcomes[2].exception.epoch == 1
    assert isinstance(outcomes[3].exception, DimensionMismatch)
    for job, outcome in zip(jobs, outcomes):
        if job.class_id in (3, 4):
            assert outcome.model is None
            continue
        weights, trace = train(job.topology, job.task, job.config)
        alone = ClassModel(job.class_id, job.topology, weights, trace)
        assert same_models(outcome.model, alone)
    assert all(o.compute_seconds > 0 for o in outcomes if o.class_id != 4)


def test_run_pool_rejects_duplicate_ids():
    jobs = [TrainingJob(1, sample_task(1), TOPO, CFG),
            TrainingJob(1, sample_task(2), TOPO, CFG)]
    with pytest.raises(InvalidConfig):
        run_pool(jobs, PoolConfig())


def test_job_requires_samples():
    with pytest.raises(InvalidConfig):
        TrainingJob(1, [], TOPO, CFG)


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
    assert loaded.topology.layer_sizes == model.topology.layer_sizes
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


def test_load_exhaustion(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    with pytest.raises(WeightsUnavailable) as err:
        load(9, store)
    assert err.value.class_id == 9


def test_read_rejects_foreign_header(tmp_path):
    store = WeightStore((tmp_path / "a",))
    persist_acon_model = AconModel((1, 2), Topology((2, 2, 2)),
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


def test_acon_roundtrip(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    w = init_weights(Topology((3, 4, 2)), seed=2)
    model = AconModel((2, 6), Topology((3, 4, 2)), w)
    persist_acon(model, store)
    loaded = load_acon(store)
    assert loaded.class_ids == (2, 6)
    for x, y in zip(loaded.weights.weights, model.weights.weights):
        assert np.array_equal(x, y)


def test_acon_failover_and_exhaustion(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    w = init_weights(Topology((2, 3, 2)), seed=4)
    persist_acon(AconModel((1, 2), Topology((2, 3, 2)), w), store)
    (tmp_path / "a" / "acon.wts").unlink()
    assert load_acon(store).class_ids == (1, 2)
    (tmp_path / "b" / "acon.wts").unlink()
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
    model = ClassModel(8, Topology((2, 1)), w)
    store = WeightStore((tmp_path / "a",))
    persist(model, store)
    loaded = load(8, store)
    assert loaded.weights.weights[0][0, 0] == 0.1 + 0.2
    assert loaded.weights.weights[0][0, 1] == np.pi
