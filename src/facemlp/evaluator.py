"""Per-class verification protocol and report rendering.

Each registered class is tested on n_pos of its own test images plus
n_neg drawn from other classes' test images (default 10/10). OCON scores
are thresholded per class; ACON decisions use argmax. Every registered
class is always evaluated, regardless of earlier results.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .classifiers import (DEFAULT_THRESHOLD, AconModel, ClassModel,
                          OconEnsemble, classify_acon, verify)
from .errors import InvalidConfig, ProtocolError, UnknownClass
from .mlp import TrainingTrace, forward

DEFAULT_N_POS = 10
DEFAULT_N_NEG = 10


@dataclass(frozen=True)
class Protocol:
    """How evaluate_all builds each class's test set."""

    n_pos: int = DEFAULT_N_POS
    n_neg: int = DEFAULT_N_NEG
    threshold: float = DEFAULT_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        if self.n_pos < 1:
            raise InvalidConfig("n_pos must be >= 1")
        if self.n_neg < 0:
            raise InvalidConfig("n_neg must be >= 0")
        if not 0 <= self.threshold <= 1:
            raise InvalidConfig("threshold must lie in [0, 1]")


@dataclass
class ClassResult:
    """One class's verification outcome; error is set when its model
    could not be loaded (counts are zero in that case)."""

    class_id: int
    n_test: int
    n_pos: int
    n_neg: int
    correct: int
    rate: float
    error: str | None = None


@dataclass
class EvaluationReport:
    mode: str
    per_class: list[ClassResult]
    average_rate: float
    traces: list[tuple[str, TrainingTrace]] = field(default_factory=list)


def _tally(class_id: int, accepts, positives, negatives) -> ClassResult:
    """Correct decisions: positives accepted plus negatives rejected."""
    n_pos, n_neg = len(positives), len(negatives)
    labelled = [(f, True) for f in positives] + [(f, False) for f in negatives]
    correct = sum(1 for f, positive in labelled if accepts(f) == positive)
    total = n_pos + n_neg
    return ClassResult(class_id, total, n_pos, n_neg, correct,
                       100.0 * correct / total)


def evaluate_class_ocon(model: ClassModel, positives, negatives,
                        threshold: float = DEFAULT_THRESHOLD) -> ClassResult:
    """Score one subnet: accept positives, reject negatives."""
    def accepts(f) -> bool:
        out, _ = forward(model.weights, np.asarray(f, dtype=np.float64))
        return verify(float(out[0]), threshold)
    return _tally(model.class_id, accepts, positives, negatives)


def evaluate_class_acon(model: AconModel, class_id: int, positives,
                        negatives) -> ClassResult:
    """Argmax protocol: a positive is correct iff predicted as class_id,
    a negative iff predicted as anything else."""
    if class_id not in model.class_ids:
        raise UnknownClass(f"class {class_id} not in {model.class_ids}")
    return _tally(class_id, lambda f: classify_acon(model, f)[0] == class_id,
                  positives, negatives)


def _split_exemplars(class_id: int, test_samples, protocol: Protocol):
    """First n_pos same-class test vectors, plus a seeded draw of n_neg
    other-class vectors. The draw depends only on (seed, class_id)."""
    positives = [np.asarray(f, dtype=np.float64)
                 for f, cid in test_samples if cid == class_id][: protocol.n_pos]
    if not positives:
        raise ProtocolError(class_id)
    pool = [np.asarray(f, dtype=np.float64)
            for f, cid in test_samples if cid != class_id]
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
    OCON's by class id and ACON's in class_ids order, for one loop.
    """
    if isinstance(models, AconModel):
        mode = "ACON"
        table = [(cid, models) for cid in models.class_ids]
        traces = [("acon", models.trace)] if models.trace else []
    else:
        if isinstance(models, OconEnsemble):
            by_id: Mapping = {m.class_id: m for m in models.models}
        elif isinstance(models, Mapping):
            by_id = models
        else:
            raise TypeError(f"cannot evaluate {type(models).__name__}")
        mode = "OCON"
        table = [(cid, by_id[cid]) for cid in sorted(by_id)]
        traces = [(f"class {cid}", m.trace) for cid, m in table
                  if m is not None and m.trace is not None]

    rows = []
    for cid, model in table:
        pos, neg = _split_exemplars(cid, test_samples, protocol)
        if model is None:
            rows.append(ClassResult(cid, 0, 0, 0, 0, 0.0,
                                    error="weights unavailable"))
        elif mode == "ACON":
            rows.append(evaluate_class_acon(model, cid, pos, neg))
        else:
            rows.append(evaluate_class_ocon(model, pos, neg,
                                            protocol.threshold))

    scored = [r.rate for r in rows if r.error is None]
    average = float(np.mean(scored)) if scored else 0.0
    return EvaluationReport(mode, rows, average, traces)


def render_report(report: EvaluationReport, format: str = "table") -> str:
    """Render per-class rows plus the average.

    table: aligned columns (class, test images, positives, negatives,
    rate as whole percent) followed by a trace summary.
    csv: header class_id,n_test,n_pos,n_neg,correct,rate_percent with
    full-precision rates and a final average row; errored classes leave
    correct/rate empty.
    """
    if format == "csv":
        lines = ["class_id,n_test,n_pos,n_neg,correct,rate_percent"]
        for r in report.per_class:
            if r.error is None:
                lines.append(f"{r.class_id},{r.n_test},{r.n_pos},{r.n_neg},"
                             f"{r.correct},{r.rate!r}")
            else:
                lines.append(f"{r.class_id},{r.n_test},{r.n_pos},{r.n_neg},,")
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
    if report.traces:
        lines.append("")
        lines.append("training traces")
        for name, trace in report.traces:
            status = "goal met" if trace.goal_met else "goal not met"
            lines.append(f"{name}: epochs={trace.epochs_run} "
                         f"final_mse={trace.final_mse:.6g} {status}")
    return "\n".join(lines) + "\n"


def convergence_trace_csv(trace: TrainingTrace) -> str:
    """One row per epoch: epoch,mse (header included)."""
    lines = ["epoch,mse"]
    for i, value in enumerate(trace.mse_history, start=1):
        lines.append(f"{i},{value!r}")
    return "\n".join(lines) + "\n"
