"""Reference one-net training loop for the lockstep trainer's tests.

This is the per-net loop facemlp.mlp.train ran before nets were trained
in stacks: plain 2-D arrays, one net per call, every step written out.
The lockstep trainer must reproduce it bit for bit, so it is kept here
unchanged rather than imported from the package.
"""

from __future__ import annotations

import math

import numpy as np

from facemlp.errors import Diverged
from facemlp.mlp import Topology, TrainingConfig, Weights, init_weights


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _stack_batch(batch, in_size, out_size):
    xs = [np.asarray(x, dtype=np.float64) for x, _ in batch]
    ts = [np.atleast_1d(np.asarray(t, dtype=np.float64)) for _, t in batch]
    assert all(x.shape == (in_size,) for x in xs)
    assert all(t.shape == (out_size,) for t in ts)
    return np.vstack(xs), np.vstack(ts)


def _forward_batch(weights, x):
    acts = [x]
    for w, b in zip(weights.weights, weights.biases):
        x = _sigmoid(x @ w.T + b)
        acts.append(x)
    return acts


def _backprop(weights, acts, targets):
    n, out = targets.shape
    out_act = acts[-1]
    delta = (2.0 / (n * out)) * (out_act - targets) * out_act * (1.0 - out_act)
    grads_w = [None] * len(weights.weights)
    grads_b = [None] * len(weights.biases)
    for layer in range(len(weights.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer:
            prev = acts[layer]
            delta = (delta @ weights.weights[layer]) * prev * (1.0 - prev)
    return grads_w, grads_b


def reference_train(topology: Topology, batch, config: TrainingConfig
                    ) -> tuple[Weights, list[float], bool]:
    """Train one net; returns (weights, mse_history, goal_met).

    Raises Diverged at the first epoch whose MSE is not finite.
    """
    x, t = _stack_batch(batch, topology.input_size, topology.output_size)
    weights = init_weights(topology, config.seed)
    step_w = [np.zeros_like(w) for w in weights.weights]
    step_b = [np.zeros_like(b) for b in weights.biases]

    acts = _forward_batch(weights, x)
    history: list[float] = []
    met = False
    for epoch in range(1, config.max_epochs + 1):
        gw, gb = _backprop(weights, acts, t)
        for i in range(len(step_w)):
            step_w[i] = config.momentum * step_w[i] - config.learning_rate * gw[i]
            step_b[i] = config.momentum * step_b[i] - config.learning_rate * gb[i]
            weights.weights[i] += step_w[i]
            weights.biases[i] += step_b[i]
        acts = _forward_batch(weights, x)
        with np.errstate(over="ignore"):
            current = float(np.mean((acts[-1] - t) ** 2))
        history.append(current)
        if not math.isfinite(current):
            raise Diverged(epoch)
        if current < config.goal:
            met = True
            break
    return weights, history, met


def reference_gradients(weights: Weights, batch) -> Weights:
    sizes = weights.layer_sizes
    x, t = _stack_batch(batch, sizes[0], sizes[-1])
    gw, gb = _backprop(weights, _forward_batch(weights, x), t)
    return Weights(gw, gb)
