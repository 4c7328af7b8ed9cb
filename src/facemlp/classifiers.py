"""Two classifier arrangements over one feature space.

OCON dedicates a small binary network to each class, trained with that
class's samples as positives (class-one) and every other class's samples
as negatives (class-two). ACON is a single network with one output per
class and one-hot targets. Both train on one (n, feature dim) matrix and
classify by argmax; the evaluator holds each one's verification rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyClass,
    InsufficientClasses,
    NoCounterexamples,
)
from .mlp import AconModel, ClassModel, Topology, TrainingConfig, forward, train
from .parallel import OconRun, PoolConfig, TrainingJob, run_pool

OCON_HIDDEN = 20
ACON_HIDDEN = 60


@dataclass(eq=False)
class OconEnsemble:
    """One subnet per class, with distinct class ids and one input width."""

    models: list[ClassModel]

    def __post_init__(self):
        ids = self.class_ids
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate class ids in ensemble: {ids}")
        if len({m.weights.layer_sizes[0] for m in self.models}) > 1:
            raise DimensionMismatch(f"subnets of classes {ids} differ in "
                                    f"input width")

    @property
    def class_ids(self) -> list[int]:
        return [m.class_id for m in self.models]


def _stacked(train_samples) -> tuple[np.ndarray, np.ndarray, list]:
    """The pairs as (n, d) float64 inputs, row labels and sorted class ids."""
    class_ids = sorted({cid for _, cid in train_samples})
    if len(class_ids) < 2:
        raise InsufficientClasses(f"need >= 2 classes, got {class_ids}")
    if len({np.shape(f) for f, _ in train_samples}) > 1:
        raise DimensionMismatch("feature vectors differ in length")
    inputs = np.array([f for f, _ in train_samples], dtype=np.float64)
    return inputs, np.array([cid for _, cid in train_samples]), class_ids


def build_ocon_task(class_id: int, labels: np.ndarray) -> np.ndarray:
    """One class's subnet targets: the training set's row labels as an
    (n, 1) column, 1.0 for class_id's rows and 0.0 for the rest.
    """
    targets = (labels == class_id)[:, None].astype(np.float64)
    if not targets.any():
        raise EmptyClass(f"no training samples for class {class_id}")
    if targets.all():
        raise NoCounterexamples(f"no negatives available for class {class_id}")
    return targets


def build_ocon_jobs(train_samples, hidden: int,
                    config: TrainingConfig) -> OconRun:
    """The OconRun that run_pool trains: one job per class, in class_id order.

    Every job trains a (feature dim, hidden, 1) net against its class's
    targets on the run's one (n, feature dim) training matrix; job c
    starts from seed config.seed + c, so no two subnets start alike.
    """
    inputs, labels, class_ids = _stacked(train_samples)
    return OconRun(inputs, hidden, config,
                   [TrainingJob(cid, build_ocon_task(cid, labels))
                    for cid in class_ids])


def train_ocon(train_samples, hidden: int = OCON_HIDDEN,
               config: TrainingConfig | None = None, pool=None) -> OconEnsemble:
    """Train one subnet per class and bundle them.

    Every subnet is a (feature dim, hidden, 1) net; only the weights
    differ. The run from build_ocon_jobs trains through the worker pool;
    any job failure is re-raised here.
    """
    run = build_ocon_jobs(train_samples, hidden, config or TrainingConfig())
    outcomes = run_pool(run, pool or PoolConfig())
    for outcome in outcomes:
        if outcome.model is None:
            raise outcome.exception
    return OconEnsemble([o.model for o in outcomes])


def train_acon(train_samples, hidden: int = ACON_HIDDEN,
               config: TrainingConfig | None = None) -> AconModel:
    """Train the single (feature dim, hidden, class count) network on
    OCON's training matrix, against one-hot targets in class_id order."""
    inputs, labels, class_ids = _stacked(train_samples)
    targets = (labels[:, None] == class_ids).astype(np.float64)
    topology = Topology((inputs.shape[1], hidden, len(class_ids)))
    return AconModel(tuple(class_ids),
                     *train(topology, inputs, targets, config or TrainingConfig()))


def _argmax_lowest(class_ids, scores: np.ndarray) -> int:
    """Index of the best score; exact ties go to the lowest class id."""
    best = np.max(scores)
    tied = [i for i in range(len(scores)) if scores[i] == best]
    return min(tied, key=lambda i: class_ids[i])


def classify_ocon(ensemble: OconEnsemble, f: np.ndarray) -> tuple[int, np.ndarray]:
    """Score a feature vector against every subnet, then argmax.

    All k subnets are always evaluated; a high early score never skips
    the rest. Returns (class_id, scores aligned with ensemble.models).
    """
    scores = np.array([forward(m.weights, f)[0] for m in ensemble.models])
    winner = _argmax_lowest(ensemble.class_ids, scores)
    return ensemble.models[winner].class_id, scores


def classify_acon(model: AconModel, f: np.ndarray) -> tuple[int, np.ndarray]:
    """Single forward pass; argmax over the k outputs."""
    scores = forward(model.weights, f)
    winner = _argmax_lowest(model.class_ids, scores)
    return model.class_ids[winner], scores
