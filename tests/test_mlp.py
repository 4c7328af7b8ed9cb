import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemlp.errors import DimensionMismatch, Diverged, InvalidConfig
from facemlp.mlp import (
    Topology,
    TrainingConfig,
    Weights,
    forward,
    gradients,
    init_weights,
    mse,
    train,
    train_group,
)
from mlp_reference import reference_gradients, reference_train

XOR = [
    (np.array([0.0, 0.0]), [0.0]),
    (np.array([0.0, 1.0]), [1.0]),
    (np.array([1.0, 0.0]), [1.0]),
    (np.array([1.0, 1.0]), [0.0]),
]


def test_topology_validation():
    assert Topology((2, 3, 1)).input_size == 2
    assert Topology((2, 3, 1)).output_size == 1
    with pytest.raises(InvalidConfig):
        Topology((4,))
    with pytest.raises(InvalidConfig):
        Topology((4, 0, 1))


def test_config_validation():
    cfg = TrainingConfig()
    assert cfg.goal == 1e-6
    assert cfg.max_epochs == 700_000
    with pytest.raises(InvalidConfig):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfig):
        TrainingConfig(momentum=1.0)
    with pytest.raises(InvalidConfig):
        TrainingConfig(goal=0.0)
    with pytest.raises(InvalidConfig):
        TrainingConfig(max_epochs=0)


def test_init_weights_shapes_and_bounds():
    w = init_weights(Topology((2, 3, 1)), seed=0)
    assert [a.shape for a in w.weights] == [(3, 2), (1, 3)]
    assert [b.shape for b in w.biases] == [(3,), (1,)]
    assert all(np.all(b == 0) for b in w.biases)
    assert w.layer_sizes == (2, 3, 1)

    wide = init_weights(Topology((4, 2500, 1)), seed=1)
    assert np.max(np.abs(wide.weights[0])) <= 0.5


def test_init_weights_deterministic():
    a = init_weights(Topology((5, 4, 2)), seed=7)
    b = init_weights(Topology((5, 4, 2)), seed=7)
    for x, y in zip(a.weights, b.weights):
        assert np.array_equal(x, y)


def test_forward_zero_weights_gives_half():
    w = Weights([np.zeros((3, 2)), np.zeros((1, 3))],
                [np.zeros(3), np.zeros(1)])
    out, acts = forward(w, np.array([0.3, -2.0]))
    np.testing.assert_allclose(out, [0.5])
    assert len(acts) == 3
    np.testing.assert_allclose(acts[1], [0.5, 0.5, 0.5])


def test_forward_single_unit():
    w = Weights([np.array([[1.0]])], [np.zeros(1)])
    out, _ = forward(w, np.array([0.0]))
    np.testing.assert_allclose(out, [0.5])


def test_forward_matches_scalar_loop():
    rng = np.random.default_rng(12)
    w = init_weights(Topology((4, 3, 2)), seed=3)
    x = rng.normal(size=4)

    a = x
    for mat, bias in zip(w.weights, w.biases):
        nxt = np.empty(mat.shape[0])
        for i in range(mat.shape[0]):
            z = bias[i]
            for j in range(mat.shape[1]):
                z += mat[i, j] * a[j]
            nxt[i] = 1.0 / (1.0 + math.exp(-z))
        a = nxt
    out, _ = forward(w, x)
    np.testing.assert_allclose(out, a, rtol=1e-12)


def test_forward_dimension_check():
    w = init_weights(Topology((3, 2, 1)), seed=0)
    with pytest.raises(DimensionMismatch):
        forward(w, np.zeros(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), scale=st.floats(0.1, 30.0))
def test_forward_outputs_in_open_interval(seed, scale):
    rng = np.random.default_rng(seed)
    w = init_weights(Topology((3, 4, 2)), seed=seed)
    for arr in w.weights:
        arr *= scale
    out, _ = forward(w, rng.normal(size=3))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_gradients_zero_at_fit():
    w = init_weights(Topology((2, 3, 1)), seed=5)
    xs = [np.array([0.1, 0.9]), np.array([-1.0, 0.4])]
    batch = [(x, forward(w, x)[0]) for x in xs]
    g = gradients(w, batch)
    for arr in g.weights + g.biases:
        np.testing.assert_allclose(arr, 0.0, atol=1e-15)


def test_gradients_are_batch_means():
    rng = np.random.default_rng(8)
    w = init_weights(Topology((3, 4, 1)), seed=2)
    s1 = (rng.normal(size=3), [1.0])
    s2 = (rng.normal(size=3), [0.0])
    g_both = gradients(w, [s1, s2])
    g1 = gradients(w, [s1])
    g2 = gradients(w, [s2])
    for both, a, b in zip(g_both.weights, g1.weights, g2.weights):
        np.testing.assert_allclose(both, (a + b) / 2.0, rtol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    topo = Topology((2, 2, 1))
    w = init_weights(topo, seed=1)
    batch = [(rng.normal(size=2), [rng.uniform()]) for _ in range(3)]
    g = gradients(w, batch)

    def loss():
        outs = [forward(w, x)[0] for x, _ in batch]
        return mse(outs, [t for _, t in batch])

    h = 1e-5
    for layer in range(2):
        arr, grad = w.weights[layer], g.weights[layer]
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss()
            arr[idx] = keep - h
            down = loss()
            arr[idx] = keep
            fd = (up - down) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1e-7)


def test_gradients_dimension_check():
    w = init_weights(Topology((2, 2, 1)), seed=0)
    with pytest.raises(DimensionMismatch):
        gradients(w, [(np.zeros(3), [0.0])])
    with pytest.raises(DimensionMismatch):
        gradients(w, [(np.zeros(2), [0.0, 1.0])])


def test_mse_values():
    assert mse([[0.5]], [[0.5]]) == 0.0
    assert mse([[1.0]], [[0.0]]) == 1.0
    assert mse([[0.5], [0.5]], [[0.0], [1.0]]) == 0.25


def test_mse_dimension_checks():
    with pytest.raises(DimensionMismatch):
        mse([[0.5]], [[0.5], [0.5]])
    with pytest.raises(DimensionMismatch):
        mse([[0.5]], [[0.5, 0.5]])


def test_train_stops_immediately_on_loose_goal():
    w, trace = train(Topology((2, 4, 1)), XOR,
                     TrainingConfig(goal=10.0, max_epochs=50, seed=0))
    assert trace.epochs_run == 1
    assert trace.goal_met
    assert trace.mse_history == [trace.final_mse]


def test_train_solves_xor():
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=20000, seed=1)
    w, trace = train(Topology((2, 4, 1)), XOR, cfg)
    assert trace.goal_met
    assert trace.final_mse < 1e-3
    assert trace.epochs_run <= 20000
    for x, t in XOR:
        out, _ = forward(w, x)
        assert round(out[0]) == t[0]


def test_train_trace_bookkeeping():
    cfg = TrainingConfig(learning_rate=0.2, momentum=0.5, goal=1e-9,
                         max_epochs=40, seed=0)
    _, trace = train(Topology((2, 3, 1)), XOR, cfg)
    assert not trace.goal_met
    assert trace.epochs_run == 40
    assert len(trace.mse_history) == 40
    assert trace.final_mse == trace.mse_history[-1]
    assert trace.final_mse >= cfg.goal
    assert trace.wall_time >= 0.0
    assert (trace.goal, trace.max_epochs) == (1e-9, 40)


def test_train_accepts_full_scale_config():
    cfg = TrainingConfig()
    # a single-layer net on a zero input emits exactly sigma(0) = 0.5, so
    # the gradient for target 0.5 is zero and the first epoch meets the
    # default goal without moving a weight
    batch = [(np.zeros(2), [0.5])]
    _, trace = train(Topology((2, 1)), batch, cfg)
    assert trace.goal_met
    assert trace.epochs_run == 1
    assert trace.final_mse == 0.0
    assert (trace.goal, trace.max_epochs) == (1e-6, 700_000)


def test_train_is_deterministic():
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=2000, seed=4)
    w1, t1 = train(Topology((2, 4, 1)), XOR, cfg)
    w2, t2 = train(Topology((2, 4, 1)), XOR, cfg)
    for a, b in zip(w1.weights + w1.biases, w2.weights + w2.biases):
        assert np.array_equal(a, b)
    assert t1.mse_history == t2.mse_history


def test_single_small_step_descends():
    rng = np.random.default_rng(10)
    topo = Topology((3, 5, 1))
    batch = [(rng.normal(size=3), [float(i % 2)]) for i in range(6)]
    before_w = init_weights(topo, seed=6)
    outs = [forward(before_w, x)[0] for x, _ in batch]
    before = mse(outs, [t for _, t in batch])
    cfg = TrainingConfig(learning_rate=1e-4, momentum=0.0, goal=1e-12,
                         max_epochs=1, seed=6)
    _, trace = train(topo, batch, cfg)
    assert trace.mse_history[0] < before


def test_train_reports_divergence():
    batch = [(np.zeros(2), [1e160])]
    with pytest.raises(Diverged) as err:
        train(Topology((2, 2, 1)), batch,
              TrainingConfig(max_epochs=10, seed=0))
    assert err.value.epoch == 1


def test_train_empty_batch():
    with pytest.raises(ValueError):
        train(Topology((2, 2, 1)), [], TrainingConfig())


def test_weights_copy_is_independent():
    w = init_weights(Topology((2, 2, 1)), seed=0)
    c = w.copy()
    c.weights[0][0, 0] += 1.0
    assert w.weights[0][0, 0] != c.weights[0][0, 0]


def assert_same_weights(a: Weights, b: Weights):
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_train_group_matches_reference_loop(data):
    sizes = data.draw(st.sampled_from([(2, 3, 1), (3, 4, 2), (4, 1),
                                       (3, 2, 2, 1)]))
    topology = Topology(sizes)
    k = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 8))
    diverging = data.draw(st.none() | st.integers(0, k - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    batches, configs = [], []
    for j in range(k):
        batch = [(rng.normal(size=sizes[0]), rng.uniform(size=sizes[-1]))
                 for _ in range(n)]
        if j == diverging:
            batch[-1] = (batch[-1][0], np.full(sizes[-1], 1e160))
        batches.append(batch)
        configs.append(TrainingConfig(
            learning_rate=data.draw(st.floats(0.01, 2.0)),
            momentum=data.draw(st.floats(0.0, 0.95)),
            goal=data.draw(st.floats(1e-4, 0.3)),
            max_epochs=data.draw(st.integers(1, 300)),
            seed=data.draw(st.integers(0, 2**20))))

    results = train_group(topology, batches, configs)
    assert len(results) == k
    for batch, config, result in zip(batches, configs, results):
        try:
            weights, history, met = reference_train(topology, batch, config)
        except Diverged as exc:
            assert isinstance(result, Diverged)
            assert result.epoch == exc.epoch
            continue
        got_weights, trace = result
        assert_same_weights(got_weights, weights)
        assert trace.mse_history == history
        assert trace.epochs_run == len(history)
        assert trace.final_mse == history[-1]
        assert trace.goal_met == met
        assert (trace.goal, trace.max_epochs) == (config.goal,
                                                  config.max_epochs)


def test_gradients_match_reference():
    rng = np.random.default_rng(21)
    for sizes in ((2, 3, 1), (5, 4, 3), (3, 1)):
        w = init_weights(Topology(sizes), seed=4)
        batch = [(rng.normal(size=sizes[0]), rng.uniform(size=sizes[-1]))
                 for _ in range(7)]
        assert_same_weights(gradients(w, batch), reference_gradients(w, batch))


def test_train_group_isolates_bad_batches():
    good = XOR
    short = [(np.zeros(3), [0.0])] * 4      # wrong input width
    cfg = TrainingConfig(learning_rate=0.5, goal=1e-2, max_epochs=300, seed=1)
    results = train_group(Topology((2, 4, 1)), [good, short, good],
                          [cfg, cfg, replace(cfg, seed=2)])
    assert isinstance(results[1], DimensionMismatch)
    weights, trace = results[0]
    alone, alone_trace = train(Topology((2, 4, 1)), good, cfg)
    assert_same_weights(weights, alone)
    assert trace.mse_history == alone_trace.mse_history
    assert results[2][1].epochs_run > 0


def test_train_group_wall_time_shared_by_epochs():
    cfgs = [TrainingConfig(learning_rate=0.5, goal=1e-9, max_epochs=e,
                           seed=0) for e in (10, 40, 25)]
    results = train_group(Topology((2, 3, 1)), [XOR] * 3, cfgs)
    rates = [t.wall_time / t.epochs_run for _, t in results]
    assert [t.epochs_run for _, t in results] == [10, 40, 25]
    assert rates[0] > 0
    np.testing.assert_allclose(rates, rates[0], rtol=1e-9)


def test_train_group_rejects_mixed_sample_counts():
    cfg = TrainingConfig(max_epochs=5)
    with pytest.raises(InvalidConfig):
        train_group(Topology((2, 3, 1)), [XOR, XOR[:3]], [cfg, cfg])
    with pytest.raises(InvalidConfig):
        train_group(Topology((2, 3, 1)), [XOR], [cfg, cfg])
