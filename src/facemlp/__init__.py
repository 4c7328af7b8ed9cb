"""Face verification with per-class and all-classes sigmoid networks
over an eigenvector feature space."""

from .classifiers import (
    AconModel,
    ClassModel,
    OconEnsemble,
    classify_acon,
    classify_ocon,
    train_acon,
    train_ocon,
    verify,
)
from .eigenspace import Eigenspace, compute_eigenspace, project, reconstruct
from .errors import FacemlpError
from .evaluator import EvaluationReport, Protocol, evaluate_all, render_report
from .imageio import (
    GrayImage,
    Sample,
    generate_synthetic,
    load_manifest,
    parse_pgm,
    to_vector,
)
from .mlp import Topology, TrainingConfig, TrainingTrace, Weights, train
from .parallel import PoolConfig, TrainingJob, WeightStore, persist, run_pool

__version__ = "0.1.0"

__all__ = [
    "AconModel", "ClassModel", "OconEnsemble", "classify_acon",
    "classify_ocon", "train_acon", "train_ocon", "verify",
    "Eigenspace", "compute_eigenspace", "project", "reconstruct",
    "FacemlpError", "EvaluationReport", "Protocol", "evaluate_all",
    "render_report", "GrayImage", "Sample", "generate_synthetic",
    "load_manifest", "parse_pgm", "to_vector", "Topology", "TrainingConfig",
    "TrainingTrace", "Weights", "train", "PoolConfig", "TrainingJob",
    "WeightStore", "persist", "run_pool", "__version__",
]
