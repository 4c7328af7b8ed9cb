"""Command-line pipeline: synthesize data, train, evaluate.

Exit codes: 0 success, 1 fatal error (a stdout that cannot be written
included), 2 invalid configuration, 3 partial failure (some classes
trained/evaluated, some not).

`main(argv)` runs one command and returns its exit code; it is what
library callers and tests call. `run()` is the process entry, used by the
`facemlp` script and `python -m facemlp.cli`: after `main` returns it
freezes the heap with `gc.freeze()`, so the interpreter's final
collections skip the objects that importing NumPy and this package made,
memory the OS takes back at exit anyway. Everything else at exit runs as
before: atexit handlers, the flush of stdio and C destructors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import evaluator, parallel
from .classifiers import (ACON_HIDDEN, OCON_HIDDEN,
                          build_ocon_jobs, train_acon)
from .eigenspace import (
    DEFAULT_COMPONENTS,
    EIGENSPACE_FILENAME,
    compute_eigenspace,
    encode_eigenspace,
    fingerprint,
    load_eigenspace,
    project,
)
from .errors import (
    DimensionMismatch,
    FacemlpError,
    FileError,
    InvalidConfig,
    StoreError,
    WeightsUnavailable,
)
from .imageio import (MANIFEST_FILENAME, downsample, load_manifest,
                      generate_synthetic, to_vector, write_dataset)
from .mlp import TrainingConfig
from .store import WeightStore, read_each, write_replicated

STORE_ENV = "FACEMLP_STORE"

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_BAD_CONFIG = 2
EXIT_PARTIAL = 3


def _resolve_store(flag_value: str | None) -> WeightStore:
    """Store roots come from --store, else the env override, else ./weights.
    A --store given as empty (or only colons) names no root: InvalidConfig."""
    raw = flag_value if flag_value is not None \
        else os.environ.get(STORE_ENV) or "weights"
    roots = tuple(Path(p) for p in raw.split(":") if p)
    return WeightStore(roots)


def _load_vectors(data: str, factor: int):
    """--data's training and test (vector, class id) pairs after
    --downsample. load_manifest judges the records; this checks the sizes."""
    manifest_path = Path(data)
    if manifest_path.is_dir():
        manifest_path /= MANIFEST_FILENAME
    paths, samples = load_manifest(manifest_path)
    images = []
    for s, path in zip(samples, paths):
        try:
            images.append(downsample(s.image, factor))
        except InvalidConfig:
            raise InvalidConfig(f"--downsample {factor} exceeds {path}, a "
                                f"{s.image.width}x{s.image.height} image") from None
    first = next(i for i, s in enumerate(samples) if s.role == "train")
    size = (images[first].width, images[first].height)
    after = f" after --downsample {factor}" if factor > 1 else ""
    split = {"train": [], "test": []}
    for s, image, path in zip(samples, images, paths):
        if (image.width, image.height) != size:
            raise DimensionMismatch(
                f"{path} is {image.width}x{image.height}{after}, but the "
                f"first training image {paths[first]} is {size[0]}x{size[1]}")
        split[s.role].append((to_vector(image), s.class_id))
    return split["train"], split["test"]


def _check_flags(args, minimum: dict, paths=()) -> None:
    """Reject, before any file is read, a flag below its minimum (minimum
    maps a flag to it) and a path flag given as "", which names no path:
    it must not mean the current or a default directory."""
    for flag, low in minimum.items():
        value = getattr(args, flag)
        if value is not None and value < low:
            raise InvalidConfig(f"--{flag} must be >= {low}, got {value}")
    for flag in paths:
        if getattr(args, flag.replace("-", "_")) == "":
            raise InvalidConfig(f"--{flag} must name a path, got ''")


def _from_flags(cls, args, **flags):
    """cls built from the flag named for each field, e.g. goal="--goal".
    Each value is checked alone first, so the InvalidConfig (whose message
    begins with the field's name) names the flag as typed and its value."""
    values = {f: getattr(args, flag[2:].replace("-", "_")) for f, flag in flags.items()}
    for field, flag in flags.items():
        try:
            cls(**{field: values[field]})
        except InvalidConfig as exc:
            rule = str(exc).removeprefix(field)
            raise InvalidConfig(f"{flag}{rule}, got {values[field]}") from None
    return cls(**values)


def _write_stdout(text: str) -> None:
    """Print text and flush it, so that a stdout that cannot take it (a
    full disk, a closed pipe) fails here, as a FileError, not at exit."""
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        raise FileError(f"cannot write stdout: {exc}") from None


def _warn(message) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _skipped(path: Path, exc: Exception) -> None:
    _warn(f"skipped replica {path}: {exc}")


def _stored_eigenspace(store: WeightStore, train_vectors,
                       m: int | None = None):
    """The store's eigenspace of train_vectors and the roots holding it,
    or (None, []) when no root holds a valid replica.

    Each root's replica is read once; one whose bytes equal an earlier
    root's is that space, not parsed again. The training matrix is CRC'd
    once, and only when some replica is valid. A replica is this data's
    when its fingerprint is <crc>:<m> for train, or for evaluate, which
    passes no m, <crc>:<its own m>. Any other valid replica is another
    space, and the weight files beside it were trained on that space.
    train refuses such a store, naming the root: it writes its space to
    every root, which would vouch for those files. evaluate takes the
    first replica of this data and reads weights only from the roots
    holding that space; it refuses the store only when no valid replica
    is this data's.
    """
    parsed = []                         # (bytes, space) of each replica parsed

    def read(path: Path):
        raw = path.read_bytes()
        space = next((s for seen, s in parsed if seen == raw), None)
        if space is None:
            space = load_eigenspace(path, raw)
            parsed.append((raw, space))
        return space

    replicas = [(root, space) for root, space in read_each(
        store, EIGENSPACE_FILENAME, read, _skipped) if space is not None]
    if not replicas:
        return None, []
    crc = fingerprint(train_vectors, m).rpartition(":")[0]   # m cut off

    def this_data(fp: str) -> str:
        return f"{crc}:{fp.rpartition(':')[2] if m is None else m}"

    ours, others = [], []
    for root, space in replicas:
        fp = space.fingerprint
        (ours if fp == this_data(fp) else others).append((root, space))
    if others and (m is not None or not ours):
        root, space = others[0]
        raise InvalidConfig(
            f"stored eigenspace was built from other inputs "
            f"({root / EIGENSPACE_FILENAME} has fingerprint "
            f"{space.fingerprint}, this run {this_data(space.fingerprint)}); "
            f"use the --data, --downsample and (for train) --components it "
            f"was built with, or train into a fresh --store"
        )
    space = ours[0][1]
    return space, [r for r, s in ours if s.fingerprint == space.fingerprint]


def _write_traces(traces_dir: Path, traces) -> None:
    """Write each (name, trace) as an epoch,mse CSV. The nets are stored
    by now, so a trace that cannot be written is only a warning."""
    for name, trace in traces:
        path = traces_dir / f"{name}_trace.csv"
        try:
            traces_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(evaluator.convergence_trace_csv(trace),
                            encoding="ascii")
        except OSError as exc:
            _warn(f"cannot write trace {path}: {exc}")


def cmd_synth(args) -> int:
    # generate_synthetic checks these too, but cannot name the flags.
    _check_flags(args, {"classes": 2, "train": 1, "test": 1, "side": 4,
                        "seed": 0}, ["out"])
    samples = generate_synthetic(args.classes, args.train, args.test,
                                 args.side, args.seed)
    manifest = write_dataset(samples, Path(args.out))
    _write_stdout(f"wrote {len(samples)} images, manifest {manifest}\n")
    return EXIT_OK


def cmd_train(args) -> int:
    store = _resolve_store(args.store)
    config = _from_flags(TrainingConfig, args, learning_rate="--lr",
                         momentum="--momentum", goal="--goal",
                         max_epochs="--max-epochs", seed="--seed")
    pool = _from_flags(parallel.PoolConfig, args, workers="--workers")
    _check_flags(args, {"hidden": 1, "components": 1, "downsample": 1},
                 ["data", "traces-dir"])
    train_pairs, _ = _load_vectors(args.data, args.downsample)
    train_vectors = [v for v, _ in train_pairs]
    space = _stored_eigenspace(store, train_vectors, args.components)[0] \
        or compute_eigenspace(train_vectors, args.components)
    features = [(project(space, v), c) for v, c in train_pairs]
    traces_dir = Path(args.traces_dir) if args.traces_dir \
        else Path(store.roots[0]) / "traces"

    # Each net is (label, model or None, exception); ACON's is a list of one.
    if args.mode == "acon":
        save = parallel.persist_acon
        nets = [("acon", train_acon(features, args.hidden or ACON_HIDDEN,
                                    config), None)]
    else:
        run = build_ocon_jobs(features, args.hidden or OCON_HIDDEN, config)
        save = parallel.persist
        nets = [(f"class {o.class_id}", o.model, o.exception)
                for o in parallel.run_pool(run, pool)]

    # A run that failed, or in which no net trained, writes nothing.
    for label, model, exc in nets:
        if model is None:
            print(f"{label}: training failed: {exc}", file=sys.stderr)
    trained = [(label, model) for label, model, _ in nets if model]
    if not trained:
        raise FacemlpError("no network trained; nothing was stored")

    # The space goes before any weight file. A space read back re-encodes
    # to its bytes: this mends a bad replica.
    for err in write_replicated(store, EIGENSPACE_FILENAME,
                                encode_eigenspace(space)).errors:
        _warn(err)

    # Every net and trace is stored before stdout is written, so a
    # stdout that cannot be written loses none of them.
    lines = []
    for label, model in trained:
        for err in save(model, store).errors:
            _warn(err)
        trace = model.trace
        status = "goal met" if trace.goal_met else "goal not met"
        if args.mode == "acon":
            status = f"goal {config.goal:g}, {status}"
        lines.append(f"{label}: epochs={trace.epochs_run} "
                     f"final MSE {trace.final_mse:.6g} ({status})\n")
    _write_traces(traces_dir, [(label.replace(" ", "_"), model.trace)
                               for label, model in trained])
    _write_stdout("".join(lines))

    return EXIT_OK if len(trained) == len(nets) else EXIT_PARTIAL


def cmd_evaluate(args) -> int:
    store = _resolve_store(args.store)
    protocol = _from_flags(evaluator.Protocol, args, n_pos="--n-pos",
                           n_neg="--n-neg", threshold="--threshold",
                           seed="--protocol-seed")
    _check_flags(args, {"downsample": 1}, ["data", "out"])
    train_pairs, test_pairs = _load_vectors(args.data, args.downsample)
    space, roots = _stored_eigenspace(store, [v for v, _ in train_pairs])
    if space is None:
        raise StoreError(f"no valid {EIGENSPACE_FILENAME} in any store root")
    for root in (r for r in store.roots if r not in roots):
        _warn(f"left out root {root}: it holds no valid "
              f"{EIGENSPACE_FILENAME} of fingerprint {space.fingerprint}")
    store = WeightStore(tuple(roots))
    test_features = [(project(space, v), c) for v, c in test_pairs]

    classes, width = sorted({c for _, c in train_pairs}), space.components
    if args.mode == "acon":
        models = parallel.load_acon(store, _skipped, width, classes)
    else:
        models = {}
        for cid in classes:
            try:
                models[cid] = parallel.load(cid, store, _skipped, width)
            except WeightsUnavailable as exc:
                models[cid] = None
                _warn(exc)
        if not any(models.values()):
            raise StoreError("no valid replica of any class's weights in any root")

    report = evaluator.evaluate_all(models, test_features, protocol)
    text = evaluator.render_report(report, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise FileError(f"cannot write report {args.out}: {exc}") from exc
    else:
        _write_stdout(text)
    return EXIT_PARTIAL if any(r.error for r in report.per_class) else EXIT_OK


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
    train.add_argument("--workers", type=int, default=parallel.PoolConfig.workers)
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
    train.add_argument("--lr", type=float, default=TrainingConfig.learning_rate)
    train.add_argument("--momentum", type=float, default=TrainingConfig.momentum)
    train.add_argument("--seed", type=int, default=TrainingConfig.seed)
    train.add_argument("--traces-dir", default=None,
                       help="where to write per-network epoch,mse CSVs "
                            "(default: <first root>/traces)")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="run the verification protocol")
    data_store_flags(ev)
    ev.add_argument("--mode", choices=("ocon", "acon"), default="ocon")
    ev.add_argument("--format", choices=("table", "csv"), default="table")
    ev.add_argument("--threshold", type=float, default=evaluator.Protocol.threshold)
    ev.add_argument("--n-pos", type=int, default=evaluator.Protocol.n_pos)
    ev.add_argument("--n-neg", type=int, default=evaluator.Protocol.n_neg)
    ev.add_argument("--protocol-seed", type=int, default=evaluator.Protocol.seed)
    ev.add_argument("--out", default=None, help="write report here instead "
                                                "of stdout")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FacemlpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG if isinstance(exc, InvalidConfig) else EXIT_FATAL


def run() -> int:
    """The facemlp process: main(), then gc.freeze(), then its exit code.

    A stdout that main could not write still holds its bytes; they go to
    the null device, so the interpreter's final flush does not fail a
    second time after main's one error: line.
    """
    code = main()
    try:
        _write_stdout("")
    except FileError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
