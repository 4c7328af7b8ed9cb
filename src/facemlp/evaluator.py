"""Per-class verification protocol and report rendering.

Each registered class is tested on n_pos of its own test images plus
n_neg drawn from other classes' test images (default 10/10). Each
architecture has one decision, whether a class accepts an exemplar: OCON
thresholds the class's own net, ACON takes the argmax over its outputs.
Every registered class is always evaluated through that one decision,
regardless of earlier results.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache

import numpy as np

from .classifiers import AconModel, OconEnsemble, classify_acon
from .errors import InvalidConfig, ProtocolError
from .mlp import TrainingTrace, forward


@dataclass(frozen=True)
class Protocol:
    """How evaluate_all builds each class's test set; seed (>= 0) seeds
    the draw of its negatives. An OCON class accepts a score >= threshold."""

    n_pos: int = 10
    n_neg: int = 10
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_pos < 1:
            raise InvalidConfig("n_pos must be >= 1")
        if self.n_neg < 0:
            raise InvalidConfig("n_neg must be >= 0")
        if not 0 <= self.threshold <= 1:
            raise InvalidConfig("threshold must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass
class ClassResult:
    """One class's verification outcome: correct decisions out of n_pos
    positives and n_neg negatives. error is set when its model could not
    be loaded (counts are zero in that case). n_test and rate derive from
    the counts, so a row cannot contradict itself."""

    class_id: int
    n_pos: int
    n_neg: int
    correct: int
    error: str | None = None

    @property
    def n_test(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def rate(self) -> float:
        """Percent correct; 0.0 for a row with no test images."""
        return 100.0 * self.correct / self.n_test if self.n_test else 0.0


@dataclass
class EvaluationReport:
    """Per-class rows in evaluation order; average_rate is the mean rate
    of the rows without an error, 0.0 when every row has one."""

    mode: str
    per_class: list[ClassResult]

    @property
    def average_rate(self) -> float:
        scored = [r.rate for r in self.per_class if r.error is None]
        return float(np.mean(scored)) if scored else 0.0


def _tally(class_id: int, accepts, positives, negatives) -> ClassResult:
    """Correct decisions: positives accepted plus negatives rejected."""
    labelled = [(f, True) for f in positives] + [(f, False) for f in negatives]
    correct = sum(1 for f, positive in labelled if accepts(f) == positive)
    return ClassResult(class_id, len(positives), len(negatives), correct)


def _split_exemplars(class_id: int, labels, protocol: Protocol):
    """Indices of the first n_pos test samples labelled class_id, plus a
    seeded draw of n_neg others'. The draw depends only on (seed, class_id)."""
    positives = [i for i, c in enumerate(labels) if c == class_id][: protocol.n_pos]
    if not positives:
        raise ProtocolError(class_id)
    pool = [i for i, c in enumerate(labels) if c != class_id]
    if not pool:
        raise ProtocolError(class_id, "no negative exemplars available")
    rng = np.random.default_rng([protocol.seed, class_id])
    take = min(protocol.n_neg, len(pool))
    chosen = rng.choice(len(pool), size=take, replace=False)
    return positives, [pool[i] for i in chosen]


def evaluate_all(models, test_samples,
                 protocol: Protocol = Protocol()) -> EvaluationReport:
    """Run the protocol over every registered class.

    models may be an OconEnsemble, an AconModel, or a mapping of
    class_id to ClassModel (None marking a class whose weights could not
    be loaded; such classes appear in the report with an error note and
    are left out of the average). Each becomes (class_id, model) rows,
    OCON's by class id and ACON's in class_ids order. The architecture's
    decision is chosen once: an OCON class accepts an exemplar when its
    net's output is at least protocol.threshold, an ACON class when it wins
    the argmax, scored once per sample. Every row is tallied through it.
    """
    vectors = [np.asarray(f, dtype=np.float64) for f, _ in test_samples]
    labels = [cid for _, cid in test_samples]
    if isinstance(models, OconEnsemble):
        models = {m.class_id: m for m in models.models}
    if isinstance(models, AconModel):
        mode = "ACON"
        table = [(cid, models) for cid in models.class_ids]
        winner = cache(lambda i: classify_acon(models, vectors[i])[0])

        def accepts(cid, model, i) -> bool:
            return winner(i) == cid
    elif isinstance(models, Mapping):
        mode = "OCON"
        table = sorted(models.items())

        def accepts(cid, model, i) -> bool:
            return forward(model.weights, vectors[i])[0] >= protocol.threshold
    else:
        raise TypeError(f"cannot evaluate {type(models).__name__}")

    rows = []
    for cid, model in table:
        pos, neg = _split_exemplars(cid, labels, protocol)
        if model is None:
            rows.append(ClassResult(cid, 0, 0, 0, error="weights unavailable"))
        else:
            rows.append(_tally(cid, lambda f: accepts(cid, model, f),
                               pos, neg))
    return EvaluationReport(mode, rows)


def render_report(report: EvaluationReport, format: str = "table") -> str:
    """Render per-class rows plus the average.

    table: aligned columns (class, test images, positives, negatives,
    rate as whole percent).
    csv: header class_id,n_test,n_pos,n_neg,correct,rate_percent with
    full-precision rates and a final average row; errored classes leave
    correct/rate empty.
    """
    if format == "csv":
        lines = ["class_id,n_test,n_pos,n_neg,correct,rate_percent"]
        for r in report.per_class:
            scored = f"{r.correct},{r.rate!r}" if r.error is None else ","
            lines.append(f"{r.class_id},{r.n_test},{r.n_pos},{r.n_neg},{scored}")
        lines.append(f"average,,,,,{report.average_rate!r}")
        return "\n".join(lines) + "\n"
    if format != "table":
        raise ValueError(f"unknown format {format!r}")

    lines = [f"mode: {report.mode}",
             f"{'class':>5}  {'test':>4}  {'pos':>3}  {'neg':>3}  rate"]
    for r in report.per_class:
        if r.error is None:
            lines.append(f"{r.class_id:>5}  {r.n_test:>4}  {r.n_pos:>3}  "
                         f"{r.n_neg:>3}  {round(r.rate)}%")
        else:
            lines.append(f"{r.class_id:>5}  {'-':>4}  {'-':>3}  {'-':>3}  "
                         f"error: {r.error}")
    lines.append(f"average rate: {report.average_rate!r}%")
    return "\n".join(lines) + "\n"


def convergence_trace_csv(trace: TrainingTrace) -> str:
    """One row per epoch: epoch,mse (header included)."""
    lines = ["epoch,mse"]
    for i, value in enumerate(trace.mse_history, start=1):
        lines.append(f"{i},{value!r}")
    return "\n".join(lines) + "\n"
