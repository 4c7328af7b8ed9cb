import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemlp.classifiers import (
    AconModel,
    ClassModel,
    OconEnsemble,
    build_acon_task,
    build_ocon_task,
    classify_acon,
    classify_ocon,
    train_acon,
    train_ocon,
    verify,
)
from facemlp.errors import (
    DimensionMismatch,
    EmptyClass,
    InsufficientClasses,
    NoCounterexamples,
)
from facemlp.mlp import TrainingConfig, Weights, forward


def labeled(vec_class_pairs):
    return [(np.asarray(v, dtype=np.float64), c) for v, c in vec_class_pairs]


def keyed_subnet(class_id, dim, key_gain=50.0):
    """Single-layer net that fires iff feature[class_id - 1] is positive."""
    w = np.zeros((1, dim))
    w[0, class_id - 1] = key_gain
    return ClassModel(class_id, Weights([w], [np.zeros(1)]))


def test_build_ocon_task_relabels_in_order():
    samples = labeled([([0.0], 1), ([1.0], 1), ([2.0], 2),
                       ([3.0], 2), ([4.0], 2)])
    task = build_ocon_task(1, samples)
    assert [t for _, t in task] == [1.0, 1.0, 0.0, 0.0, 0.0]
    assert [f[0] for f, _ in task] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_build_ocon_task_full_scale_counts():
    samples = labeled([([float(c)], c) for c in range(1, 11)
                       for _ in range(20)])
    task = build_ocon_task(7, samples)
    targets = [t for _, t in task]
    assert targets.count(1.0) == 20
    assert targets.count(0.0) == 180


def test_build_ocon_task_errors():
    samples = labeled([([0.0], 1), ([1.0], 2)])
    with pytest.raises(EmptyClass):
        build_ocon_task(3, samples)
    with pytest.raises(NoCounterexamples):
        build_ocon_task(1, labeled([([0.0], 1), ([1.0], 1)]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=30))
def test_build_ocon_target_multiset(class_ids):
    if len(set(class_ids)) < 2:
        return
    samples = labeled([([float(i)], c) for i, c in enumerate(class_ids)])
    for cid in set(class_ids):
        task = build_ocon_task(cid, samples)
        targets = [t for _, t in task]
        assert targets.count(1.0) == class_ids.count(cid)
        assert targets.count(0.0) == len(class_ids) - class_ids.count(cid)


def test_build_acon_task_one_hot():
    samples = labeled([([0.0], 1), ([1.0], 2), ([2.0], 3)])
    task, class_ids = build_acon_task(samples)
    assert class_ids == [1, 2, 3]
    np.testing.assert_array_equal(task[1][1], [0.0, 1.0, 0.0])
    for _, target in task:
        assert target.sum() == 1.0


def test_build_acon_task_sorted_ids():
    samples = labeled([([0.0], 9), ([1.0], 2), ([2.0], 5)])
    _, class_ids = build_acon_task(samples)
    assert class_ids == [2, 5, 9]


def test_build_acon_task_needs_two_classes():
    with pytest.raises(InsufficientClasses):
        build_acon_task(labeled([([0.0], 1), ([1.0], 1)]))


def separable_two_class(per_class=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for cid, center in ((1, 0.2), (2, 0.8)):
        for _ in range(per_class):
            out.append((center + rng.normal(0, 0.05, dim), cid))
    return out


def test_train_ocon_separates_two_classes():
    samples = separable_two_class()
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=20000, seed=0)
    ensemble = train_ocon(samples, 6, cfg)
    assert ensemble.class_ids == [1, 2]
    assert all(m.trace.goal_met for m in ensemble.models)
    for f, cid in samples:
        predicted, scores = classify_ocon(ensemble, f)
        assert predicted == cid
        assert len(scores) == 2


def test_train_ocon_traces_are_distinct():
    samples = separable_two_class()
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=20000, seed=0)
    ensemble = train_ocon(samples, 6, cfg)
    histories = [tuple(m.trace.mse_history) for m in ensemble.models]
    assert histories[0] != histories[1]


def test_train_ocon_is_deterministic():
    samples = separable_two_class()
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-2,
                         max_epochs=5000, seed=3)
    a = train_ocon(samples, config=cfg)
    b = train_ocon(samples, config=cfg)
    for ma, mb in zip(a.models, b.models):
        for x, y in zip(ma.weights.weights, mb.weights.weights):
            assert np.array_equal(x, y)


def test_train_ocon_needs_two_classes():
    with pytest.raises(InsufficientClasses):
        train_ocon(labeled([([0.0, 0.0], 1)]), config=TrainingConfig())


def test_train_acon_learns_separable_data():
    samples = separable_two_class()
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=20000, seed=0)
    model = train_acon(samples, config=cfg)
    assert model.class_ids == (1, 2)
    assert model.weights.layer_sizes == (4, 60, 2)
    for f, cid in samples:
        predicted, scores = classify_acon(model, f)
        assert predicted == cid
        assert len(scores) == 2


def test_classify_ocon_argmax():
    ensemble = OconEnsemble([keyed_subnet(c, 4) for c in (1, 2, 3, 4)], 4)
    f = np.full(4, -1.0)
    f[2] = 1.0
    predicted, scores = classify_ocon(ensemble, f)
    assert predicted == 3
    assert len(scores) == 4
    assert scores[2] > 0.99


def test_classify_ocon_tie_takes_lowest_id():
    # identical subnets guarantee an exact score tie
    w = np.ones((1, 3))
    models = [ClassModel(cid, Weights([w.copy()], [np.zeros(1)]))
              for cid in (5, 2, 9)]
    predicted, scores = classify_ocon(OconEnsemble(models, 3), np.ones(3))
    assert predicted == 2
    assert scores[0] == scores[1] == scores[2]


def test_classify_ocon_evaluates_every_subnet(monkeypatch):
    import facemlp.classifiers as mod

    calls = []
    real = forward

    def counting(weights, x):
        calls.append(1)
        return real(weights, x)

    monkeypatch.setattr(mod, "forward", counting)
    ensemble = OconEnsemble([keyed_subnet(c, 6) for c in range(1, 7)], 6)
    f = np.full(6, -1.0)
    f[0] = 1.0  # class 1 scores ~1.0 immediately
    classify_ocon(ensemble, f)
    assert len(calls) == 6


def test_classify_acon_argmax_and_ids():
    w = Weights([np.zeros((3, 2)), np.array([[4.0, 0.0, 0.0],
                                             [0.0, 8.0, 0.0],
                                             [0.0, 0.0, 2.0]])],
                [np.zeros(3), np.array([-2.0, 0.0, -1.0])])
    model = AconModel((4, 7, 9), w)
    predicted, scores = classify_acon(model, np.zeros(2))
    # hidden layer sits at 0.5, so output pre-activations are 0, 4, 0
    assert predicted == 7
    assert len(scores) == 3


def test_classify_acon_tie_takes_lowest_id():
    w = Weights([np.zeros((2, 2)), np.zeros((3, 2))],
                [np.zeros(2), np.zeros(3)])
    model = AconModel((8, 3, 6), w)
    predicted, scores = classify_acon(model, np.array([1.0, -1.0]))
    assert scores[0] == scores[1] == scores[2] == 0.5
    assert predicted == 3


def test_classify_dimension_mismatch():
    ensemble = OconEnsemble([keyed_subnet(1, 4), keyed_subnet(2, 4)], 4)
    with pytest.raises(DimensionMismatch):
        classify_ocon(ensemble, np.zeros(5))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 99), min_size=2, max_size=8, unique=True))
def test_argmax_invariant_under_monotone_transform(percents):
    scores = [p / 100.0 for p in percents]
    models = []
    for i, s in enumerate(scores, start=1):
        # single-unit net with constant output sigma(b) = s
        b = np.array([np.log(s / (1 - s))])
        models.append(ClassModel(i, Weights([np.zeros((1, 1))], [b])))
    ensemble = OconEnsemble(models, 1)
    first, raw = classify_ocon(ensemble, np.zeros(1))
    assert first == 1 + int(np.argmax(raw))
    # scaling all scores by the same monotone map keeps the winner
    assert first == 1 + int(np.argmax(2.0 * raw + 1.0))


def test_verify_threshold_boundary():
    assert verify(0.9, 0.5)
    assert verify(0.5, 0.5)
    assert not verify(0.4999, 0.5)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        OconEnsemble([keyed_subnet(1, 4), keyed_subnet(1, 4)], 4)
    with pytest.raises(DimensionMismatch):
        OconEnsemble([keyed_subnet(1, 4)], 5)


def test_acon_model_validation():
    w = Weights([np.zeros((2, 2)), np.zeros((3, 2))],
                [np.zeros(2), np.zeros(3)])
    with pytest.raises(InsufficientClasses):
        AconModel((1,), w)
    with pytest.raises(DimensionMismatch):
        AconModel((1, 2), w)


def test_class_model_requires_single_output():
    w = Weights([np.zeros((2, 3))], [np.zeros(2)])
    with pytest.raises(DimensionMismatch):
        ClassModel(1, w)
