"""Command-line pipeline: synthesize data, train, evaluate.

Exit codes: 0 success, 1 fatal error, 2 invalid configuration,
3 partial failure (some classes trained/evaluated, some not).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluator, parallel
from .classifiers import (
    ACON_HIDDEN,
    OCON_HIDDEN,
    build_ocon_task,
    train_acon,
    _subsample_negatives,
)
from .eigenspace import (
    DEFAULT_COMPONENTS,
    compute_eigenspace,
    load_eigenspace,
    project,
    save_eigenspace,
)
from .errors import (
    FacemlpError,
    FileError,
    FormatError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
)
from .imageio import downsample, load_manifest, generate_synthetic, to_vector, write_dataset
from .mlp import Topology, TrainingConfig
from .parallel import PoolConfig, TrainingJob, WeightStore

STORE_ENV = "FACEMLP_STORE"
EIGENSPACE_FILENAME = "eigenspace.txt"
# Queue wait beyond this fraction of compute time suggests the pool is
# the bottleneck rather than the training itself.
OVERHEAD_WARN_RATIO = 0.1

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_BAD_CONFIG = 2
EXIT_PARTIAL = 3


def _resolve_store(flag_value: str | None) -> WeightStore:
    """Store roots come from --store, else the env override, else ./weights."""
    raw = flag_value or os.environ.get(STORE_ENV) or "weights"
    roots = tuple(Path(p) for p in raw.split(":") if p)
    return WeightStore(roots)


def _load_vectors(data: str, factor: int):
    manifest_path = Path(data)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.tsv"
    _, samples = load_manifest(manifest_path)
    pairs = []
    for s in samples:
        image = downsample(s.image, factor) if factor > 1 else s.image
        pairs.append((to_vector(image), s.class_id, s.role))
    train = [(v, c) for v, c, role in pairs if role == "train"]
    test = [(v, c) for v, c, role in pairs if role == "test"]
    return train, test


def _load_stored_eigenspace(store: WeightStore):
    """The eigenspace from the first root holding a readable replica.

    A missing, unreadable or malformed replica is reported on stderr and
    skipped. Returns None when no root holds a usable one.
    """
    for root in store.roots:
        path = Path(root) / EIGENSPACE_FILENAME
        if not path.exists():
            continue
        try:
            return load_eigenspace(path)
        except (FileError, FormatError) as exc:
            print(f"warning: skipping eigenspace replica: {exc}",
                  file=sys.stderr)
    return None


def _obtain_eigenspace(store: WeightStore, train_vectors, m: int):
    """Load the shared projection from any root, or build and replicate it."""
    space = _load_stored_eigenspace(store)
    if space is not None:
        if space.dim != train_vectors[0].shape[0]:
            raise InvalidConfig(
                f"stored eigenspace has dim {space.dim} but images give "
                f"{train_vectors[0].shape[0]}; check --downsample"
            )
        return space
    space = compute_eigenspace(train_vectors, m)
    written = 0
    for root in store.roots:
        try:
            Path(root).mkdir(parents=True, exist_ok=True)
            save_eigenspace(space, Path(root) / EIGENSPACE_FILENAME)
            written += 1
        except OSError as exc:
            print(f"warning: cannot persist eigenspace to {root}: {exc}",
                  file=sys.stderr)
    if not written:
        raise StoreError("eigenspace could not be persisted to any root")
    return space


def _write_trace(traces_dir: Path, name: str, trace) -> None:
    traces_dir.mkdir(parents=True, exist_ok=True)
    path = traces_dir / f"{name}_trace.csv"
    path.write_text(evaluator.convergence_trace_csv(trace), encoding="ascii")


def cmd_synth(args) -> int:
    samples = generate_synthetic(args.classes, args.train, args.test,
                                 args.side, args.seed)
    manifest = write_dataset(samples, Path(args.out))
    print(f"wrote {len(samples)} images, manifest {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    store = _resolve_store(args.store)
    train_pairs, _ = _load_vectors(args.data, args.downsample)
    if not train_pairs:
        raise InvalidConfig("manifest contains no training samples")
    space = _obtain_eigenspace(store, [v for v, _ in train_pairs],
                               args.components)
    features = [(project(space, v), c) for v, c in train_pairs]
    m = space.components
    config = TrainingConfig(learning_rate=args.lr, momentum=args.momentum,
                            goal=args.goal, max_epochs=args.max_epochs,
                            seed=args.seed)
    traces_dir = Path(args.traces_dir) if args.traces_dir \
        else Path(store.roots[0]) / "traces"

    if args.mode == "acon":
        hidden = args.hidden or ACON_HIDDEN
        class_count = len({c for _, c in features})
        topology = Topology((m, hidden, class_count))
        model = train_acon(features, topology, config)
        parallel.persist_acon(model, store)
        _write_trace(traces_dir, "acon", model.trace)
        status = "goal met" if model.trace.goal_met else "goal not met"
        print(f"acon: epochs={model.trace.epochs_run} "
              f"final MSE {model.trace.final_mse:.6g} "
              f"(goal {config.goal:g}, {status})")
        return EXIT_OK

    hidden = args.hidden or OCON_HIDDEN
    topology = Topology((m, hidden, 1))
    class_ids = sorted({c for _, c in features})
    jobs = []
    for cid in class_ids:
        task = build_ocon_task(cid, features)
        if args.max_negatives is not None:
            task = _subsample_negatives(task, args.max_negatives,
                                        config.seed + cid)
        jobs.append(TrainingJob(cid, task, topology,
                                replace(config, seed=config.seed + cid)))
    pool = PoolConfig(workers=args.workers, allocation=args.allocation)
    outcomes = parallel.run_pool(jobs, pool)

    failed = 0
    for outcome in outcomes:
        if outcome.model is None:
            failed += 1
            print(f"class {outcome.class_id}: training failed: "
                  f"{outcome.error}", file=sys.stderr)
            continue
        persisted = parallel.persist(outcome.model, store)
        for err in persisted.errors:
            print(f"warning: {err}", file=sys.stderr)
        trace = outcome.model.trace
        status = "goal met" if trace.goal_met else "goal not met"
        print(f"class {outcome.class_id}: epochs={trace.epochs_run} "
              f"final MSE {trace.final_mse:.6g} ({status})")
        _write_trace(traces_dir, f"class_{outcome.class_id}", trace)

    total_wait = sum(o.queue_wait for o in outcomes)
    total_compute = sum(o.compute_seconds for o in outcomes)
    if total_compute > 0 and total_wait / total_compute > OVERHEAD_WARN_RATIO:
        print(f"warning: queue wait is {total_wait / total_compute:.0%} of "
              f"compute time; consider fewer, larger jobs", file=sys.stderr)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_evaluate(args) -> int:
    store = _resolve_store(args.store)
    train_pairs, test_pairs = _load_vectors(args.data, args.downsample)
    space = _load_stored_eigenspace(store)
    if space is None:
        raise StoreError(f"no valid {EIGENSPACE_FILENAME} in any store root")
    test_features = [(project(space, v), c) for v, c in test_pairs]
    protocol = evaluator.Protocol(n_pos=args.n_pos, n_neg=args.n_neg,
                                  threshold=args.threshold,
                                  seed=args.protocol_seed)

    partial = False
    if args.mode == "acon":
        models = parallel.load_acon(store)
    else:
        registered = sorted({c for _, c in train_pairs})
        if not registered:
            raise InvalidConfig("manifest contains no training samples")
        table = {}
        for cid in registered:
            try:
                table[cid] = parallel.load(cid, store)
            except WeightsUnavailable as exc:
                table[cid] = None
                partial = True
                print(f"warning: {exc}", file=sys.stderr)
        models = table

    report = evaluator.evaluate_all(models, test_features, protocol)
    text = evaluator.render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_PARTIAL if partial else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facemlp",
        description="Per-class and all-classes MLP face verification over "
                    "an eigenvector feature space.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--classes", type=int, default=10)
    synth.add_argument("--train", type=int, default=20,
                       help="training images per class")
    synth.add_argument("--test", type=int, default=20,
                       help="test images per class")
    synth.add_argument("--side", type=int, default=16,
                       help="square image edge length")
    synth.add_argument("--seed", type=int, default=1)
    synth.set_defaults(func=cmd_synth)

    def data_store_flags(p):
        p.add_argument("--data", required=True,
                       help="dataset directory or manifest path")
        p.add_argument("--store", default=None,
                       help=f"colon-separated replica roots "
                            f"(default: ${STORE_ENV} or ./weights)")
        p.add_argument("--downsample", type=int, default=1, metavar="F",
                       help="mean-pool images by F before projecting")

    train = sub.add_parser("train", help="train and persist the networks")
    data_store_flags(train)
    train.add_argument("--mode", choices=("ocon", "acon"), default="ocon")
    train.add_argument("--workers", type=int, default=1)
    train.add_argument("--allocation", choices=parallel.ALLOCATION_POLICIES,
                       default="round_robin")
    train.add_argument("--hidden", type=int, default=None,
                       help=f"hidden units (default {OCON_HIDDEN} ocon, "
                            f"{ACON_HIDDEN} acon)")
    train.add_argument("--components", type=int, default=DEFAULT_COMPONENTS,
                       help="eigenvectors to keep when building the space")
    train.add_argument("--goal", type=float, default=1e-3,
                       help="stop once MSE < goal (1e-6 to match the "
                            "original experiments)")
    train.add_argument("--max-epochs", type=int, default=20000,
                       help="epoch cap (700000 to match the original "
                            "experiments)")
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--momentum", type=float, default=0.9)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--max-negatives", type=int, default=None,
                       help="cap negatives per class task")
    train.add_argument("--traces-dir", default=None,
                       help="where to write per-network epoch,mse CSVs "
                            "(default: <first root>/traces)")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="run the verification protocol")
    data_store_flags(ev)
    ev.add_argument("--mode", choices=("ocon", "acon"), default="ocon")
    ev.add_argument("--format", choices=("table", "csv"), default="table")
    ev.add_argument("--threshold", type=float, default=0.5)
    ev.add_argument("--n-pos", type=int, default=evaluator.DEFAULT_N_POS)
    ev.add_argument("--n-neg", type=int, default=evaluator.DEFAULT_N_NEG)
    ev.add_argument("--protocol-seed", type=int, default=0)
    ev.add_argument("--out", default=None, help="write report here instead "
                                                "of stdout")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FacemlpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
