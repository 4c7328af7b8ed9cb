"""Two classifier arrangements over one feature space.

OCON dedicates a small binary network to each class, trained with that
class's samples as positives (class-one) and every other class's samples
as negatives (class-two). ACON is a single network with one output per
class and one-hot targets. Both decide by argmax; OCON additionally
supports thresholded per-class verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyClass,
    InsufficientClasses,
    NoCounterexamples,
)
from .mlp import AconModel, ClassModel, Topology, TrainingConfig, forward, train
from .parallel import PoolConfig, TrainingJob, run_pool

OCON_HIDDEN = 20
ACON_HIDDEN = 60
DEFAULT_THRESHOLD = 0.5


@dataclass(eq=False)
class OconEnsemble:
    models: list[ClassModel]
    feature_dim: int

    def __post_init__(self):
        ids = [m.class_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate class ids in ensemble: {ids}")
        for m in self.models:
            if m.weights.layer_sizes[0] != self.feature_dim:
                raise DimensionMismatch(
                    f"class {m.class_id} expects {m.weights.layer_sizes[0]} "
                    f"inputs, ensemble feature_dim is {self.feature_dim}"
                )

    @property
    def class_ids(self) -> list[int]:
        return [m.class_id for m in self.models]


def build_ocon_task(class_id: int, train_samples) -> list[tuple[np.ndarray, float]]:
    """Relabel a multi-class training set for one class's subnet.

    Samples of class_id become target 1.0, everything else 0.0. Input
    order is preserved.
    """
    task = [(f, 1.0 if cid == class_id else 0.0) for f, cid in train_samples]
    n_pos = sum(1 for _, t in task if t == 1.0)
    if n_pos == 0:
        raise EmptyClass(f"no training samples for class {class_id}")
    if n_pos == len(task):
        raise NoCounterexamples(f"no negatives available for class {class_id}")
    return task


def build_acon_task(train_samples):
    """One-hot targets over the sorted class set.

    Returns (task, class_ids) so callers know which output index belongs
    to which class.
    """
    class_ids = sorted({cid for _, cid in train_samples})
    if len(class_ids) < 2:
        raise InsufficientClasses(f"need >= 2 classes, got {class_ids}")
    index = {cid: i for i, cid in enumerate(class_ids)}
    k = len(class_ids)
    task = []
    for f, cid in train_samples:
        target = np.zeros(k)
        target[index[cid]] = 1.0
        task.append((f, target))
    return task, class_ids


def build_ocon_jobs(train_samples, hidden: int,
                    config: TrainingConfig) -> list[TrainingJob]:
    """One pool job per class, in class_id order.

    Each job trains a (feature dim, hidden, 1) net on its class's
    relabelled task, all n training samples, with the config's seed
    offset by class_id so the subnets start from distinct weights.
    """
    class_ids = sorted({cid for _, cid in train_samples})
    if len(class_ids) < 2:
        raise InsufficientClasses(f"need >= 2 classes, got {class_ids}")
    topology = Topology((len(train_samples[0][0]), hidden, 1))
    return [TrainingJob(cid, build_ocon_task(cid, train_samples), topology,
                        replace(config, seed=config.seed + cid))
            for cid in class_ids]


def train_ocon(train_samples, hidden: int = OCON_HIDDEN,
               config: TrainingConfig | None = None, pool=None) -> OconEnsemble:
    """Train one subnet per class and bundle them.

    Every subnet is a (feature dim, hidden, 1) net; only the weights
    differ. Training runs through the worker pool; any job failure is
    re-raised here.
    """
    jobs = build_ocon_jobs(train_samples, hidden, config or TrainingConfig())
    outcomes = run_pool(jobs, pool or PoolConfig())
    for outcome in outcomes:
        if outcome.model is None:
            raise outcome.exception
    return OconEnsemble([o.model for o in outcomes],
                        jobs[0].topology.input_size)


def train_acon(train_samples, hidden: int = ACON_HIDDEN,
               config: TrainingConfig | None = None) -> AconModel:
    """Train the single (feature dim, hidden, class count) network."""
    config = config or TrainingConfig()
    task, class_ids = build_acon_task(train_samples)
    topology = Topology((len(train_samples[0][0]), hidden, len(class_ids)))
    return AconModel(tuple(class_ids), *train(topology, task, config))


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
    f = np.asarray(f, dtype=np.float64)
    scores = np.empty(len(ensemble.models))
    for i, model in enumerate(ensemble.models):
        out, _ = forward(model.weights, f)
        scores[i] = out[0]
    winner = _argmax_lowest(ensemble.class_ids, scores)
    return ensemble.models[winner].class_id, scores


def classify_acon(model: AconModel, f: np.ndarray) -> tuple[int, np.ndarray]:
    """Single forward pass; argmax over the k outputs."""
    f = np.asarray(f, dtype=np.float64)
    scores, _ = forward(model.weights, f)
    winner = _argmax_lowest(model.class_ids, scores)
    return model.class_ids[winner], scores


def verify(score: float, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Accept iff score >= threshold (boundary accepts)."""
    return score >= threshold
