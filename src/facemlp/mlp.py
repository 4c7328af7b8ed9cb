"""Feed-forward sigmoid network trained by batch gradient descent.

All units are logistic, targets are 0/1 encoded, and the loss is the mean
squared error over every output component of every sample. Updates use the
full batch plus a momentum term, so a run is fully determined by the
topology, the batch, and the config (including its seed).

Training has one epoch loop, train_group, which trains several nets of
one topology and sample count in lockstep: their parameters are stacked
along a leading net axis, so each epoch costs one round of NumPy calls
for the whole stack instead of one per net. Every slice of the stack
runs the same IEEE operations in the same order as a net trained alone,
so a net's weights and MSE history never depend on its group. train is
the group of one. The single-vector forward used for classification is
separate and unstacked.

ClassModel and AconModel, trained nets labelled with their classes, sit
beside Weights so that the pool, the store codec and the classifiers all
use them without importing one another.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, Diverged, InsufficientClasses, InvalidConfig

# Full-scale experiment defaults; desk-scale runs override both.
DEFAULT_GOAL = 1e-6
DEFAULT_MAX_EPOCHS = 700_000


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

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]


@dataclass(eq=False)
class Weights:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],
                *(w.shape[0] for w in self.weights))

    def copy(self) -> Weights:
        return Weights([w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    goal: float = DEFAULT_GOAL
    max_epochs: int = DEFAULT_MAX_EPOCHS
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


@dataclass
class TrainingTrace:
    """Record of one training run.

    mse_history[i] is the batch MSE after update i+1, so its length equals
    epochs_run and its last entry equals final_mse. goal and max_epochs echo
    the config the run was given. wall_time is the net's share of its
    lockstep group's training time, in proportion to its epochs; for a net
    trained alone it is the whole training time.
    """

    epochs_run: int
    final_mse: float
    goal_met: bool
    wall_time: float
    goal: float
    max_epochs: int
    mse_history: list[float] = field(default_factory=list)


@dataclass(eq=False)
class ClassModel:
    """One trained binary subnet. trace is None when loaded from disk."""

    class_id: int
    topology: Topology
    weights: Weights
    trace: TrainingTrace | None = None

    def __post_init__(self):
        if self.topology.output_size != 1:
            raise DimensionMismatch("class subnet must have exactly 1 output")


@dataclass(eq=False)
class AconModel:
    """Single net with one output per class, in class_ids order."""

    class_ids: tuple[int, ...]
    topology: Topology
    weights: Weights
    trace: TrainingTrace | None = None

    def __post_init__(self):
        k = len(self.class_ids)
        if k < 2:
            raise InsufficientClasses("ACON needs at least 2 classes")
        if self.topology.output_size != k:
            raise DimensionMismatch(
                f"{k} classes but {self.topology.output_size} outputs"
            )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp may overflow for very negative z; the result saturates to 0 exactly.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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


def forward(weights: Weights, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run one vector through the net.

    Returns (output, activations) where activations[0] is the input and
    activations[-1] the output layer.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != weights.weights[0].shape[1]:
        raise DimensionMismatch(
            f"input length {a.shape} does not match net input "
            f"{weights.weights[0].shape[1]}"
        )
    acts = [a]
    for w, b in zip(weights.weights, weights.biases):
        a = _sigmoid(w @ a + b)
        acts.append(a)
    # In float64, 1 + exp(-z) rounds to 1 for z above about 37 and exp
    # overflows for z below about -709, so a saturated output unit reads
    # exactly 1 or 0; the clamp keeps every output strictly inside (0, 1).
    np.minimum(a, _OUT_HI, out=a)
    np.maximum(a, _OUT_LO, out=a)
    return a, acts


def _stack_batch(batch, in_size: int, out_size: int) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("batch is empty")
    xs, ts = [], []
    for x, t in batch:
        x = np.asarray(x, dtype=np.float64)
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if x.shape != (in_size,):
            raise DimensionMismatch(f"sample shape {x.shape}, expected ({in_size},)")
        if t.shape != (out_size,):
            raise DimensionMismatch(f"target shape {t.shape}, expected ({out_size},)")
        xs.append(x)
        ts.append(t)
    return np.vstack(xs), np.vstack(ts)


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    """_sigmoid computed in z's own storage, with the same operations."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _forward_stack(ws: list[np.ndarray], bs: list[np.ndarray],
                   x: np.ndarray) -> list[np.ndarray]:
    """Activations of k stacked nets on their own batches.

    ws[l] is (k, fan_out, fan_in), bs[l] is (k, 1, fan_out) and x is
    (k, n, fan_in). Returns [x, hidden..., output], each (k, n, width).
    """
    acts = [x]
    for w, b in zip(ws, bs):
        z = np.matmul(x, w.transpose(0, 2, 1))
        z += b
        x = _sigmoid_(z)
        acts.append(x)
    return acts


def _backprop_stack(ws: list[np.ndarray], acts: list[np.ndarray],
                    targets: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact MSE gradient of each stacked net from its activations.

    Slice j of every product is the same IEEE arithmetic, in the same
    order, as the gradient of net j computed on its own.
    """
    _, n, out = targets.shape
    out_act = acts[-1]
    delta = out_act - targets
    delta *= 2.0 / (n * out)
    delta *= out_act
    delta *= 1.0 - out_act
    grads_w: list[np.ndarray] = [None] * len(ws)
    grads_b: list[np.ndarray] = [None] * len(ws)
    for layer in range(len(ws) - 1, -1, -1):
        grads_w[layer] = np.matmul(delta.transpose(0, 2, 1), acts[layer])
        grads_b[layer] = delta.sum(axis=1, keepdims=True)
        if layer:
            prev = acts[layer]
            delta = np.matmul(delta, ws[layer])
            delta *= prev
            delta *= 1.0 - prev
    return grads_w, grads_b


def gradients(weights: Weights,
              batch: list[tuple[np.ndarray, np.ndarray]]) -> Weights:
    """Gradient of the batch MSE with respect to every weight and bias.

    The result reuses the Weights container, holding d(loss)/dW and
    d(loss)/db in place of the parameters.
    """
    sizes = weights.layer_sizes
    x, t = _stack_batch(batch, sizes[0], sizes[-1])
    ws = [w[None] for w in weights.weights]
    bs = [b[None, None] for b in weights.biases]
    gw, gb = _backprop_stack(ws, _forward_stack(ws, bs, x[None]), t[None])
    return Weights([g[0] for g in gw], [g[0, 0] for g in gb])


def mse(outputs, targets) -> float:
    """Mean squared error over all samples and output components."""
    if len(outputs) != len(targets):
        raise DimensionMismatch(
            f"{len(outputs)} outputs vs {len(targets)} targets"
        )
    if not outputs:
        raise ValueError("empty output list")
    total = 0.0
    count = 0
    for y, t in zip(outputs, targets):
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if y.shape != t.shape:
            raise DimensionMismatch(f"output {y.shape} vs target {t.shape}")
        total += float(np.sum((y - t) ** 2))
        count += y.size
    return total / count


def train(topology: Topology, batch, config: TrainingConfig) -> tuple[Weights, TrainingTrace]:
    """Train a fresh network on the batch.

    Weights start from init_weights(topology, config.seed). Every epoch
    applies one momentum update from the full-batch gradient, then measures
    the MSE of the updated network; training stops at the first epoch whose
    MSE drops below config.goal, or after config.max_epochs updates.

    Raises Diverged (with the epoch number) if the MSE stops being finite.
    This is train_group with a group of one.
    """
    (result,) = train_group(topology, [batch], [config])
    if isinstance(result, Exception):
        raise result
    return result


def train_group(topology: Topology, batches: list, configs: list[TrainingConfig]
                ) -> list[tuple[Weights, TrainingTrace] | Exception]:
    """Train one fresh network per (batch, config) pair, all in lockstep.

    The nets share the topology and the sample count; each has its own
    batch, seed, learning rate, momentum, goal and max_epochs. Their
    parameters are stacked along a leading net axis, so an epoch is one
    stacked forward pass, backprop and momentum step for every net still
    training. A net leaves the stack at the epoch it meets its goal,
    diverges or reaches its max_epochs. Each net's arithmetic is exactly
    what train would do for it alone, so its weights and mse_history do
    not depend on which other nets share the group.

    Returns one entry per net, in order: (weights, trace), or the
    exception that net raised (DimensionMismatch, ValueError or TypeError
    for a bad batch, Diverged for a non-finite MSE). Raises InvalidConfig if the
    batches differ in sample count. A trace's wall_time is the net's
    share of the group's training time, in proportion to its epochs, so
    the shares of a group sum to its elapsed time.
    """
    if len(batches) != len(configs):
        raise InvalidConfig(f"{len(batches)} batches for {len(configs)} configs")
    if len({len(batch) for batch in batches}) > 1:
        raise InvalidConfig("nets trained in lockstep must share a sample count")
    results: list = [None] * len(batches)
    members, xs, ts = [], [], []
    for i, batch in enumerate(batches):
        try:
            x, t = _stack_batch(batch, topology.input_size, topology.output_size)
        except (TypeError, ValueError, DimensionMismatch) as exc:
            results[i] = exc
            continue
        members.append(i)
        xs.append(x)
        ts.append(t)
    if not members:
        return results

    started = time.perf_counter()
    x, t = np.stack(xs), np.stack(ts)
    inits = [init_weights(topology, configs[i].seed) for i in members]
    ws = [np.stack(layer) for layer in zip(*(w.weights for w in inits))]
    bs = [np.stack(layer)[:, None, :] for layer in zip(*(w.biases for w in inits))]
    step_w = [np.zeros_like(w) for w in ws]
    step_b = [np.zeros_like(b) for b in bs]
    rate = np.array([configs[i].learning_rate for i in members])[:, None, None]
    momentum = np.array([configs[i].momentum for i in members])[:, None, None]

    active = members            # results index of each stack slot
    histories = {i: [] for i in members}
    acts = _forward_stack(ws, bs, x)
    epoch = 0
    while active:
        epoch += 1
        gw, gb = _backprop_stack(ws, acts, t)
        for params, steps, grads in ((ws, step_w, gw), (bs, step_b, gb)):
            for param, step, grad in zip(params, steps, grads):
                step *= momentum
                grad *= rate
                step -= grad
                param += step
        acts = _forward_stack(ws, bs, x)
        # On a diverging run the squared error overflows to inf; that is the
        # signal we detect, not a fault worth a warning.
        with np.errstate(over="ignore"):
            err = acts[-1] - t
            np.square(err, out=err)
        current = err.mean(axis=(1, 2)).tolist()

        keep = []
        for slot, (i, value) in enumerate(zip(active, current)):
            histories[i].append(value)
            config = configs[i]
            if not math.isfinite(value):
                results[i] = Diverged(epoch)
            elif value < config.goal or epoch == config.max_epochs:
                weights = Weights([w[slot].copy() for w in ws],
                                  [b[slot, 0].copy() for b in bs])
                results[i] = (weights, TrainingTrace(
                    epochs_run=epoch,
                    final_mse=value,
                    goal_met=value < config.goal,
                    wall_time=0.0,
                    goal=config.goal,
                    max_epochs=config.max_epochs,
                    mse_history=histories[i],
                ))
            else:
                keep.append(slot)
        if len(keep) < len(active):
            active = [active[slot] for slot in keep]
            ws, bs, step_w, step_b, acts = (
                [a[keep] for a in arrays]
                for arrays in (ws, bs, step_w, step_b, acts))
            x = acts[0]         # the compacted inputs
            t, rate, momentum = t[keep], rate[keep], momentum[keep]

    elapsed = time.perf_counter() - started
    total = sum(len(h) for h in histories.values())
    for i in members:
        if not isinstance(results[i], Exception):
            results[i][1].wall_time = elapsed * len(histories[i]) / total
    return results
