import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facemlp.errors import DimensionMismatch, Diverged, InvalidConfig
from facemlp.mlp import (
    Topology,
    TrainingConfig,
    Weights,
    forward,
    gradients,
    init_weights,
    train,
    train_group,
)
from mlp_reference import reference_gradients, reference_train

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_T = np.array([[0.0], [1.0], [1.0], [0.0]])


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
    # A negative seed would fail every net of a lockstep stack at once.
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        TrainingConfig(seed=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            TrainingConfig(learning_rate=bad)
        with pytest.raises(InvalidConfig):
            TrainingConfig(goal=bad)


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
    out = forward(w, np.array([0.3, -2.0]))
    np.testing.assert_allclose(out, [0.5])


def test_forward_single_unit():
    w = Weights([np.array([[1.0]])], [np.zeros(1)])
    out = forward(w, np.array([0.0]))
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
    out = forward(w, x)
    np.testing.assert_allclose(out, a, rtol=1e-12)


def test_forward_dimension_check():
    w = init_weights(Topology((3, 2, 1)), seed=0)
    with pytest.raises(DimensionMismatch):
        forward(w, np.zeros(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), scale=st.floats(0.1, 30.0))
@example(seed=582, scale=29.0)  # an output unit saturates: its z is about 37.2
def test_forward_outputs_in_open_interval(seed, scale):
    rng = np.random.default_rng(seed)
    w = init_weights(Topology((3, 4, 2)), seed=seed)
    for arr in w.weights:
        arr *= scale
    out = forward(w, rng.normal(size=3))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_gradients_zero_at_fit():
    w = init_weights(Topology((2, 3, 1)), seed=5)
    xs = np.array([[0.1, 0.9], [-1.0, 0.4]])
    g = gradients(w, xs, np.array([forward(w, x) for x in xs]))
    for arr in g.weights + g.biases:
        np.testing.assert_allclose(arr, 0.0, atol=1e-15)


def test_gradients_are_batch_means():
    rng = np.random.default_rng(8)
    w = init_weights(Topology((3, 4, 1)), seed=2)
    x = np.array([rng.normal(size=3), rng.normal(size=3)])
    t = np.array([[1.0], [0.0]])
    g_both = gradients(w, x, t)
    g1 = gradients(w, x[:1], t[:1])
    g2 = gradients(w, x[1:], t[1:])
    for both, a, b in zip(g_both.weights, g1.weights, g2.weights):
        np.testing.assert_allclose(both, (a + b) / 2.0, rtol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    topo = Topology((2, 2, 1))
    w = init_weights(topo, seed=1)
    batch = [(rng.normal(size=2), [rng.uniform()]) for _ in range(3)]
    inputs = np.array([x for x, _ in batch])
    targets = np.vstack([t for _, t in batch])
    g = gradients(w, inputs, targets)

    def loss():
        outs = np.vstack([forward(w, x) for x in inputs])
        return np.mean((outs - targets) ** 2)

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
        gradients(w, np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        gradients(w, np.zeros((1, 2)), np.zeros((1, 2)))


def test_train_stops_immediately_on_loose_goal():
    w, trace = train(Topology((2, 4, 1)), XOR_X, XOR_T,
                     TrainingConfig(goal=10.0, max_epochs=50, seed=0))
    assert trace.epochs_run == 1
    assert trace.goal_met
    assert trace.mse_history == [trace.final_mse]


def test_train_solves_xor():
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=20000, seed=1)
    w, trace = train(Topology((2, 4, 1)), XOR_X, XOR_T, cfg)
    assert trace.goal_met
    assert trace.final_mse < 1e-3
    assert trace.epochs_run <= 20000
    for x, t in zip(XOR_X, XOR_T):
        out = forward(w, x)
        assert round(out[0]) == t[0]


def test_train_trace_bookkeeping():
    cfg = TrainingConfig(learning_rate=0.2, momentum=0.5, goal=1e-9,
                         max_epochs=40, seed=0)
    _, trace = train(Topology((2, 3, 1)), XOR_X, XOR_T, cfg)
    assert not trace.goal_met
    assert trace.epochs_run == 40
    assert len(trace.mse_history) == 40
    assert trace.final_mse == trace.mse_history[-1]
    assert trace.final_mse >= cfg.goal
    assert trace.wall_time >= 0.0


def test_train_accepts_full_scale_config():
    cfg = TrainingConfig()
    # a single-layer net on a zero input emits exactly sigma(0) = 0.5, so
    # the gradient for target 0.5 is zero and the first epoch meets the
    # default goal without moving a weight
    _, trace = train(Topology((2, 1)), np.zeros((1, 2)), [[0.5]], cfg)
    assert trace.goal_met
    assert trace.epochs_run == 1
    assert trace.final_mse == 0.0


def test_train_is_deterministic():
    cfg = TrainingConfig(learning_rate=0.5, momentum=0.9, goal=1e-3,
                         max_epochs=2000, seed=4)
    w1, t1 = train(Topology((2, 4, 1)), XOR_X, XOR_T, cfg)
    w2, t2 = train(Topology((2, 4, 1)), XOR_X, XOR_T, cfg)
    for a, b in zip(w1.weights + w1.biases, w2.weights + w2.biases):
        assert np.array_equal(a, b)
    assert t1.mse_history == t2.mse_history


def test_single_small_step_descends():
    rng = np.random.default_rng(10)
    topo = Topology((3, 5, 1))
    x = np.array([rng.normal(size=3) for _ in range(6)])
    t = (np.arange(6) % 2.0)[:, None]
    before_w = init_weights(topo, seed=6)
    outs = np.vstack([forward(before_w, row) for row in x])
    before = np.mean((outs - t) ** 2)
    cfg = TrainingConfig(learning_rate=1e-4, momentum=0.0, goal=1e-12,
                         max_epochs=1, seed=6)
    _, trace = train(topo, x, t, cfg)
    assert trace.mse_history[0] < before


def test_train_reports_divergence():
    with pytest.raises(Diverged) as err:
        train(Topology((2, 2, 1)), np.zeros((1, 2)), [[1e160]],
              TrainingConfig(max_epochs=10, seed=0))
    assert err.value.epoch == 1


def test_train_empty_batch():
    with pytest.raises(ValueError):
        train(Topology((2, 2, 1)), np.empty((0, 2)), np.empty((0, 1)),
              TrainingConfig())


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
    xs = rng.normal(size=(n, sizes[0]))
    targets = []
    for j in range(k):
        t = rng.uniform(size=(n, sizes[-1]))
        if j == diverging:
            t[-1] = 1e160
        targets.append(t)
    config = TrainingConfig(
        learning_rate=data.draw(st.floats(0.01, 2.0)),
        momentum=data.draw(st.floats(0.0, 0.95)),
        goal=data.draw(st.floats(1e-4, 0.3)),
        max_epochs=data.draw(st.integers(1, 300)))
    seeds = data.draw(st.lists(st.integers(0, 2**20), min_size=k, max_size=k))

    results = train_group(topology, xs, targets, config, seeds)
    assert len(results) == k
    for t, seed, result in zip(targets, seeds, results):
        try:
            weights, history, met = reference_train(
                topology, xs, t, replace(config, seed=seed))
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


@pytest.mark.parametrize("sizes,k", [((20, 60, 10), 1), ((40, 20, 1), 4),
                                     ((40, 60, 40), 1), ((20, 20, 1), 5)],
                         ids=["desk-acon", "orl-ocon", "orl-acon", "desk-ocon"])
def test_train_group_matches_reference_at_benchmark_widths(sizes, k):
    # The drawn widths above are so small that a product evaluated in
    # another order may still round the same; these are the benchmark's
    # ACON and OCON shapes, 200 samples each, where it does not.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, sizes[0]))
    labels = np.arange(200) % max(sizes[-1], 10)
    if sizes[-1] > 1:
        targets = [labels[:, None] == np.arange(sizes[-1])]
    else:
        targets = [labels[:, None] == j for j in range(k)]
    targets = [t.astype(float) for t in targets]
    config = TrainingConfig(goal=1e-9, max_epochs=20)
    results = train_group(Topology(sizes), x, targets, config, range(k))
    for j, (t, (weights, trace)) in enumerate(zip(targets, results)):
        ref, history, _ = reference_train(Topology(sizes), x, t,
                                          replace(config, seed=j))
        assert_same_weights(weights, ref)
        assert trace.mse_history == history


def test_gradients_match_reference():
    rng = np.random.default_rng(21)
    for sizes in ((2, 3, 1), (5, 4, 3), (3, 1)):
        w = init_weights(Topology(sizes), seed=4)
        batch = [(rng.normal(size=sizes[0]), rng.uniform(size=sizes[-1]))
                 for _ in range(7)]
        x = np.array([x for x, _ in batch])
        t = np.array([t for _, t in batch])
        assert_same_weights(gradients(w, x, t), reference_gradients(w, x, t))


def test_train_group_isolates_bad_batches():
    # A target set of the wrong width fails the whole group before any
    # net trains; without it, the group's nets train as they would alone.
    wide = np.zeros((4, 2))                 # wrong target width
    cfg = TrainingConfig(learning_rate=0.5, goal=1e-2, max_epochs=300, seed=1)
    with pytest.raises(DimensionMismatch, match="target set 1 shape"):
        train_group(Topology((2, 4, 1)), XOR_X, [XOR_T, wide, XOR_T], cfg,
                    [1, 1, 2])
    results = train_group(Topology((2, 4, 1)), XOR_X, [XOR_T, XOR_T], cfg,
                          [1, 2])
    weights, trace = results[0]
    alone, alone_trace = train(Topology((2, 4, 1)), XOR_X, XOR_T, cfg)
    assert_same_weights(weights, alone)
    assert trace.mse_history == alone_trace.mse_history
    assert results[1][1].epochs_run > 0


def test_train_group_wall_time_shared_by_epochs():
    # One config: the nets leave the stack at different epochs because
    # their seeds and targets differ.
    cfg = TrainingConfig(learning_rate=0.5, goal=1e-2, max_epochs=400)
    results = train_group(Topology((2, 3, 1)), XOR_X,
                          [XOR_T, XOR_T, 1.0 - XOR_T], cfg, [0, 1, 2])
    rates = [t.wall_time / t.epochs_run for _, t in results]
    assert len({t.epochs_run for _, t in results}) == 3
    assert rates[0] > 0
    np.testing.assert_allclose(rates, rates[0], rtol=1e-9)


def test_train_group_rejects_mixed_sample_counts():
    # Targets for another sample count, like a missing seed, fail the
    # whole group.
    cfg = TrainingConfig(max_epochs=5)
    with pytest.raises(DimensionMismatch, match=r"\(3, 1\), expected \(4, 1\)"):
        train_group(Topology((2, 3, 1)), XOR_X, [XOR_T, XOR_T[:3]], cfg,
                    [0, 0])
    with pytest.raises(InvalidConfig):
        train_group(Topology((2, 3, 1)), XOR_X, [XOR_T], cfg, [0, 0])


@pytest.mark.parametrize("shape", [(4, 5), (4,), (0, 3), (4, 3, 1)],
                         ids=["wide", "vector", "empty", "three_d"])
def test_train_group_rejects_inputs_of_another_shape(shape):
    # Inputs that are not a non-empty (n, input size) matrix fail the
    # whole group before any net trains, as one DimensionMismatch rather
    # than NumPy's error from inside the stack.
    with pytest.raises(DimensionMismatch, match="inputs shape"):
        train_group(Topology((3, 2, 1)), np.zeros(shape), [np.zeros((4, 1))],
                    TrainingConfig(max_epochs=5), [0])
