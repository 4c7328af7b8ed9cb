"""Feed-forward sigmoid network trained by batch gradient descent.

All units are logistic, targets are 0/1 encoded, and the loss is the mean
squared error over every output component of every sample. A batch is an
(n, input size) input matrix and its (n, output size) targets. Updates use
the full batch plus a momentum term, so a run is fully determined by the
topology, the batch, and the config (including its seed).

Training has one epoch kernel, _Stack, which trains several nets of one
topology and config, differing only by seed and targets, on one input
matrix in lockstep: each net's parameters are one row of a flat buffer,
and the work arrays are allocated once per stack size, so an epoch costs
one round of in-place NumPy calls for the whole stack instead of one per
net. Every slice of the stack runs the same IEEE operations in the same
order as a net trained alone, so a net's weights and MSE history never
depend on its group. train_group drives it, train is the group of one,
and gradients is one backprop of a stack of one; all three check a batch
through _batch alone, and unflatten copies each net out. Classification
uses forward, which runs one vector through one net.

ClassModel and AconModel, trained nets labelled with their classes, sit
beside Weights so that the pool, the store codec and the classifiers all
use them without importing one another.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged, InsufficientClasses, InvalidConfig


@dataclass(frozen=True)
class Topology:
    """Layer sizes from input to output, e.g. (40, 20, 1)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise InvalidConfig("topology needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise InvalidConfig(f"layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)


@dataclass(eq=False)
class Weights:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],
                *(w.shape[0] for w in self.weights))


@dataclass(frozen=True)
class TrainingConfig:
    """How a net trains. seed (>= 0) seeds its initial weights."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    goal: float = 1e-6          # the full-scale experiments' goal and
    max_epochs: int = 700_000   # epoch cap; desk-scale runs override both
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidConfig("learning_rate must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise InvalidConfig("momentum must lie in [0, 1)")
        if not 0 < self.goal < math.inf:
            raise InvalidConfig("goal must be positive and finite")
        if self.max_epochs < 1:
            raise InvalidConfig("max_epochs must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass
class TrainingTrace:
    """Record of one training run.

    mse_history[i] is the batch MSE after update i+1, so the run's epoch
    count and final MSE are its length and last entry. wall_time is the
    net's share of its lockstep group's training time, in proportion to
    its epochs; for a net trained alone it is the whole training time.
    """

    mse_history: list[float]
    goal_met: bool
    wall_time: float

    @property
    def epochs_run(self) -> int:
        return len(self.mse_history)

    @property
    def final_mse(self) -> float:
        return self.mse_history[-1]


@dataclass(eq=False)
class ClassModel:
    """One trained binary subnet. trace is None when loaded from disk."""

    class_id: int
    weights: Weights
    trace: TrainingTrace | None = None

    def __post_init__(self):
        if self.weights.layer_sizes[-1] != 1:
            raise DimensionMismatch("class subnet must have exactly 1 output")


@dataclass(eq=False)
class AconModel:
    """Single net with one output per class, in class_ids order; the
    class ids are distinct."""

    class_ids: tuple[int, ...]
    weights: Weights
    trace: TrainingTrace | None = None

    def __post_init__(self):
        k, outputs = len(self.class_ids), self.weights.layer_sizes[-1]
        if k < 2:
            raise InsufficientClasses("ACON needs at least 2 classes")
        if len(set(self.class_ids)) != k:
            raise ValueError(f"duplicate class ids in ACON model: "
                             f"{list(self.class_ids)}")
        if outputs != k:
            raise DimensionMismatch(f"{k} classes but {outputs} outputs")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-z)), in place; returns z. Run it under
    np.errstate(over="ignore"): exp overflows for very negative z, and
    the result saturates to 0 exactly."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


# The float64 values nearest 0 and 1, between which forward's output is held.
_OUT_LO = np.finfo(np.float64).tiny
_OUT_HI = np.nextafter(1.0, 0.0)


def init_weights(topology: Topology, seed: int) -> Weights:
    """Draw weights uniformly from [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Biases start at zero. The same (topology, seed) always yields the same
    weights.
    """
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    sizes = topology.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Weights(ws, bs)


def forward(weights: Weights, x: np.ndarray) -> np.ndarray:
    """Run one vector through the net; returns the output layer."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != weights.weights[0].shape[1]:
        raise DimensionMismatch(
            f"input length {a.shape} does not match net input "
            f"{weights.weights[0].shape[1]}"
        )
    with np.errstate(over="ignore"):
        for w, b in zip(weights.weights, weights.biases):
            a = _sigmoid(w @ a + b)
    # In float64, 1 + exp(-z) rounds to 1 for z above about 37 and exp
    # overflows for z below about -709, so a saturated output unit reads
    # exactly 1 or 0; the clamp keeps every output strictly inside (0, 1).
    np.minimum(a, _OUT_HI, out=a)
    np.maximum(a, _OUT_LO, out=a)
    return a


def _batch(sizes, inputs, target_sets) -> tuple[np.ndarray, np.ndarray]:
    """The trainer's one batch check: float64 (n, input size) inputs, n >= 1,
    and the target sets stacked (k, n, output size); else DimensionMismatch."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or not len(x) or x.shape[1] != sizes[0]:
        raise DimensionMismatch(f"inputs shape {x.shape}, expected (n, "
                                f"{sizes[0]}) with n >= 1")
    wanted = (len(x), sizes[-1])
    for i, shape in enumerate(map(np.shape, target_sets)):
        if shape != wanted:
            raise DimensionMismatch(f"target set {i} shape {shape}, expected {wanted}")
    return x, np.stack(target_sets, dtype=np.float64)


def _flat(weights: Weights) -> np.ndarray:
    """A net's parameters as one row: each layer's weights, then its bias."""
    return np.concatenate([np.concatenate((w.ravel(), b))
                           for w, b in zip(weights.weights, weights.biases)])


def _layers(flat: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (k, fan_out, fan_in) and (k, 1, fan_out) views of k rows."""
    k, views, start = len(flat), [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        end = start + fan_out * fan_in
        views.append((flat[:, start:end].reshape(k, fan_out, fan_in),
                      flat[:, None, end:end + fan_out]))
        start = end + fan_out
    return views


def unflatten(flat: np.ndarray, sizes) -> Weights:
    """A copy of the net of the given layer sizes whose parameters, in
    _flat's order, are the 1-D float64 array flat: the one way a trained
    net, a gradient or a net read from a weight file becomes Weights."""
    layers = _layers(flat[None], sizes)
    return Weights([w[0].copy() for w, _ in layers],
                   [b[0, 0].copy() for _, b in layers])


class _Stack:
    """k nets of one topology in lockstep on one (n, fan_in) input matrix.

    params holds one net per row in _flat's layout, as do the momentum
    steps and the gradients; the layer matrices are views into them. All
    nets read x, the (n, fan_in) inputs, which matmul broadcasts; t is
    (k, n, out); all nets step at one rate and momentum. Work arrays are
    allocated once per stack size. Slice j of every operation is the IEEE
    arithmetic of net j computed alone.
    Run under np.errstate(over="ignore"): exp overflows on a saturated
    unit, and a diverging net's squared error overflows to inf.
    """

    def __init__(self, sizes, params: np.ndarray, x: np.ndarray, t: np.ndarray):
        k, n, _ = t.shape
        self.sizes, self.params, self.t = sizes, params, t
        self.steps = np.zeros_like(params)
        self.acts = [x, *(np.empty((k, n, m)) for m in sizes[1:])]
        self.residual = np.empty_like(t)
        self._allocate()

    def _allocate(self) -> None:
        k, n, _ = self.t.shape
        self.grads = np.empty_like(self.params)
        self.layers = _layers(self.params, self.sizes)
        self.grad_layers = _layers(self.grads, self.sizes)
        self.deltas, self.scratch = (
            [np.empty((k, n, m)) for m in self.sizes[1:]] for _ in range(2))

    def keep(self, slots: list[int]) -> None:
        """Drop every net whose slot is not listed; the rest carry on."""
        self.acts[1:] = [a[slots] for a in self.acts[1:]]
        self.params, self.steps, self.t, self.residual = (
            a[slots] for a in (self.params, self.steps, self.t, self.residual))
        self._allocate()

    def forward(self) -> list[float]:
        """Every layer's activations and the output residual a - t;
        returns each net's batch MSE."""
        for (w, b), x, z in zip(self.layers, self.acts, self.acts[1:]):
            np.matmul(x, w.transpose(0, 2, 1), out=z)
            z += b
            _sigmoid(z)
        np.subtract(self.acts[-1], self.t, out=self.residual)
        squared = np.square(self.residual, out=self.deltas[-1])
        return (np.add.reduce(squared, axis=(1, 2)) / squared[0].size).tolist()

    def backprop(self) -> None:
        """Each net's exact MSE gradient, into grads, from the last forward."""
        _, n, out = self.t.shape
        out_act, delta = self.acts[-1], self.deltas[-1]
        np.multiply(self.residual, 2.0 / (n * out), out=delta)
        delta *= out_act
        delta *= np.subtract(1.0, out_act, out=self.scratch[-1])
        for layer in range(len(self.layers) - 1, -1, -1):
            grad_w, grad_b = self.grad_layers[layer]
            np.matmul(delta.transpose(0, 2, 1), self.acts[layer], out=grad_w)
            np.add.reduce(delta, axis=1, keepdims=True, out=grad_b)
            if layer:
                prev = self.acts[layer]
                delta = np.matmul(delta, self.layers[layer][0],
                                  out=self.deltas[layer - 1])
                delta *= prev
                delta *= np.subtract(1.0, prev, out=self.scratch[layer - 1])

    def step(self, rate: float, momentum: float) -> None:
        """One momentum update of every net at the stack's rate and momentum."""
        self.steps *= momentum
        self.grads *= rate
        self.steps -= self.grads
        self.params += self.steps


def gradients(weights: Weights, inputs: np.ndarray, targets: np.ndarray) -> Weights:
    """Gradient of the MSE of the (n, input size) inputs against their
    (n, output size) targets with respect to every weight and bias.

    The result reuses the Weights container, holding d(loss)/dW and
    d(loss)/db in place of the parameters. A malformed batch raises
    train_group's DimensionMismatch, word for word.
    """
    sizes = weights.layer_sizes
    stack = _Stack(sizes, _flat(weights)[None], *_batch(sizes, inputs, [targets]))
    with np.errstate(over="ignore"):
        stack.forward()
        stack.backprop()
    return unflatten(stack.grads[0], sizes)


def train(topology: Topology, inputs: np.ndarray, targets: np.ndarray,
          config: TrainingConfig) -> tuple[Weights, TrainingTrace]:
    """Train a fresh network on an (n, input size) input matrix against
    the (n, output size) target matrix, row for row.

    Weights start from init_weights(topology, config.seed). Every epoch
    applies one momentum update from the full-batch gradient, then measures
    the MSE of the updated network; training stops at the first epoch whose
    MSE drops below config.goal, or after config.max_epochs updates.

    This is train_group with a group of one, checks and all: it raises
    the group's DimensionMismatch for a malformed batch, and Diverged
    (with the epoch number) if the MSE stops being finite.
    """
    (result,) = train_group(topology, inputs, [targets], config, [config.seed])
    if isinstance(result, Exception):
        raise result
    return result


def train_group(topology: Topology, inputs: np.ndarray, targets: list,
                config: TrainingConfig,
                seeds: list) -> list[tuple[Weights, TrainingTrace] | Diverged]:
    """Train one fresh network per (targets, seed) pair, all in lockstep.

    Every net reads inputs, one (n, input size) float64 array, against its
    own (n, output size) targets from init_weights(topology, seed), at
    config's learning rate, momentum, goal and max_epochs (its seed is
    unused). Its parameters are one row of a flat buffer, so an epoch is
    one stacked forward pass, backprop and four-call momentum step for
    every net still training, into arrays allocated once per stack size. A
    net leaves the stack at the epoch it meets the goal or diverges, the
    rest at max_epochs. Each net's arithmetic is exactly what train would
    do for it alone with that seed, so its weights and mse_history do not
    depend on which other nets share the group.

    Returns one entry per net, in order: (weights, trace), or Diverged for
    a net whose MSE stops being finite; that is the only failure of one
    net. Before any net trains, the group fails as a whole: InvalidConfig
    if it has no target set or not one seed per set, DimensionMismatch if
    inputs is not a non-empty (n, input size) matrix or a target set is
    not (n, output size). This is the group's one clock: a net's share of
    the training time, in proportion to its epochs, is its trace's or its
    Diverged's wall_time, so the shares sum to it.
    """
    if not targets or len(targets) != len(seeds):
        raise InvalidConfig(f"a group needs at least one target set and one seed "
                            f"per set, got {len(targets)} sets for {len(seeds)} seeds")
    x, ts = _batch(topology.layer_sizes, inputs, targets)

    started = time.perf_counter()
    params = np.stack([_flat(init_weights(topology, s)) for s in seeds])
    stack = _Stack(topology.layer_sizes, params, x, ts)

    results: list = [None] * len(ts)
    active = list(range(len(ts)))   # results index of each stack slot
    histories = [[] for _ in ts]
    epoch = 0
    with np.errstate(over="ignore"):
        stack.forward()
        while active:
            epoch += 1
            stack.backprop()
            stack.step(config.learning_rate, config.momentum)
            current = stack.forward()
            keep = []
            for slot, (i, value) in enumerate(zip(active, current)):
                histories[i].append(value)
                if not math.isfinite(value):
                    results[i] = Diverged(epoch)
                elif value < config.goal or epoch == config.max_epochs:
                    results[i] = (unflatten(stack.params[slot], stack.sizes),
                                  TrainingTrace(histories[i], value < config.goal, 0.0))
                else:
                    keep.append(slot)
            if len(keep) < len(active):
                active = [active[slot] for slot in keep]
                stack.keep(keep)

    elapsed = time.perf_counter() - started
    total = sum(len(h) for h in histories)
    for result, history in zip(results, histories):
        timed = result if isinstance(result, Diverged) else result[1]
        timed.wall_time = elapsed * len(history) / total
    return results
