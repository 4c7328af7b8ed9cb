"""Workloads, the closed-loop CLI pipeline, and its correctness checks.

Importing this module imports facemlp, so the caller puts the checkout's
`src` directory on sys.path first (run.py and selftest.py do).

Two known defects shape how a repetition runs; both are benchmark
conditions, not failures:

* `facemlp train` silently reuses an eigenspace it finds in the store.
  Every repetition therefore starts from a fresh, empty two-root store,
  or `train_ocon_s` would skip the eigensolve after the first one.
* The queue-wait warning fires on every pooled run, because
  `JobOutcome.queue_wait` counts a bucket's earlier jobs as waiting.
  stderr is ignored, and the traced run computes pool overhead from
  outside (pool wall time minus the largest bucket's compute).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facemlp import classifiers, eigenspace, evaluator, imageio, parallel
from facemlp.errors import FacemlpError
from facemlp.mlp import TrainingConfig
from hostprobe import HostProbe, Wall
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    train: int
    test: int
    side: int
    components: int


WORKLOADS = {
    # The acceptance experiment's shape: d = 256, n = 200. The eigensolve
    # dominates train_ocon_s; ingest, projection and the store are
    # negligible, and ACON training runs with no pool and no eigensolve.
    "desk": Workload("desk", classes=10, train=20, test=20, side=16,
                     components=20),
    # ORL-shaped (side 100 is within 3% of 92x112) with no download: the
    # same n = 200 Gram matrix, but d = 10,000 makes ingest, projection and
    # eigenspace text I/O visible, the pool runs 40 jobs, and training
    # needs several times the epochs.
    "orl": Workload("orl", classes=40, train=5, test=5, side=100,
                    components=40),
    # For selftest.py only: every step takes well under a second.
    "tiny": Workload("tiny", classes=3, train=4, test=4, side=8,
                     components=5),
}

STEPS = ("train_ocon", "train_acon", "evaluate_ocon", "evaluate_acon")
GOAL = 1e-3
MAX_EPOCHS = 20000
# One worker per core of the 2-core reference host.
WORKERS = 2
# Set-up is timed once at the start and again before every repetition,
# so its samples see the host through the whole run, as the steps do.
SETUP_PER_REPETITION = 2
EVALUATE_REPEATS = 3
STEP_TIMEOUT_S = 150
ORTHONORMALITY_TOL = 1e-8
EIGENSPACE_FILE = "eigenspace.txt"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_ocon_s": "s",
    "train_acon_s": "s",
    "evaluate_ocon_s": "s",
    "evaluate_acon_s": "s",
    "pipeline_s": "s",
    "rate_ocon_pct": "%",
    "rate_acon_pct": "%",
}

_NET_LINE = re.compile(
    r"^(?:class (\d+)|acon): epochs=\d+ .*\b(goal met|goal not met)\)$",
    re.MULTILINE)


class Ledger:
    """Operations attempted and failed.

    An operation is a CLI call, a trained net, or one correctness check.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_cli(argv: list[str], cwd: Path,
            host: HostProbe | None = None) -> tuple[float, int, str]:
    """Run `python -m facemlp.cli argv` in a subprocess.

    Returns (wall seconds, exit code, stdout); a timeout gives code -1.
    With a host probe the seconds are a hostprobe.Wall, which also says
    where the call ran. stderr is dropped on purpose (see the module
    docstring).
    """
    started = time.perf_counter()
    usage = []
    # A session of its own, so a timeout also kills the pool's workers.
    with subprocess.Popen([sys.executable, "-m", "facemlp.cli", *argv],
                          cwd=cwd, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          start_new_session=True) as proc:
        try:
            if host is None:
                stdout, _ = proc.communicate(timeout=STEP_TIMEOUT_S)
            else:
                stdout, usage = host.wait(proc, STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return time.perf_counter() - started, -1, ""
        except BaseException:
            # Interrupted (run.py turns SIGTERM into SystemExit): take the
            # call and its pool workers down too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    seconds = Wall(time.perf_counter() - started)
    seconds.usage = usage
    return seconds, proc.returncode, stdout


def subprocess_runner(cwd: Path, host: HostProbe | None = None):
    def runner(step: str, argv: list[str]) -> tuple[float, int, str]:
        return run_cli(argv, cwd, host)
    return runner


def step_argv(step: str, wl: Workload, data: Path, roots) -> list[str]:
    command, mode = step.split("_")
    argv = [command, "--data", str(data), "--store",
            ":".join(str(r) for r in roots), "--mode", mode]
    if command == "train":
        argv += ["--components", str(wl.components), "--goal", str(GOAL),
                 "--max-epochs", str(MAX_EPOCHS)]
        if mode == "ocon":
            argv += ["--workers", str(WORKERS)]
    else:
        argv += ["--format", "csv"]
    return argv


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def synth(wl: Workload, seed: int, out: Path, run_dir: Path,
          ledger: Ledger, host: HostProbe | None = None) -> float:
    """Run `facemlp synth` into out; returns its wall seconds."""
    seconds, code, _ = run_cli(
        ["synth", "--out", str(out), "--classes", str(wl.classes),
         "--train", str(wl.train), "--test", str(wl.test),
         "--side", str(wl.side), "--seed", str(seed)], run_dir, host)
    ledger.check(code == 0, f"synth exited {code}")
    return seconds


def set_up(wl: Workload, seed: int, run_dir: Path, ledger: Ledger,
           host: HostProbe | None = None) -> tuple[Path, list[float]]:
    """Synthesize the dataset; returns it and the synth wall time."""
    data = run_dir / "data"
    return data, [synth(wl, seed, data, run_dir, ledger, host)]


def synth_copy(wl: Workload, seed: int, data: Path, run_dir: Path,
               ledger: Ledger, host: HostProbe | None = None) -> float:
    """Synthesize the dataset again; the copy must match it byte for byte.

    Returns the synth wall time.
    """
    out = run_dir / "copy"
    seconds = synth(wl, seed, out, run_dir, ledger, host)
    ledger.check(out.is_dir() and data.is_dir()
                 and _tree_bytes(out) == _tree_bytes(data),
                 "a synth copy differs from the dataset")
    shutil.rmtree(out, ignore_errors=True)
    return seconds


def check_nets(stdout: str, step: str, wl: Workload, ledger: Ledger) -> None:
    """One operation per trained net: it must be reported and meet its goal."""
    met = {}
    for match in _NET_LINE.finditer(stdout):
        key = int(match.group(1)) if match.group(1) else "acon"
        met[key] = match.group(2) == "goal met"
    expected = range(1, wl.classes + 1) if step == "train_ocon" else ["acon"]
    for key in expected:
        ledger.check(met.get(key, False),
                     f"{step}: net {key} missing or missed its goal")


def average_rate(csv_text: str) -> float | None:
    lines = csv_text.strip().splitlines()
    if not lines or not lines[-1].startswith("average,"):
        return None
    return float(lines[-1].rsplit(",", 1)[1])


@dataclass(eq=False)
class Repetition:
    roots: tuple[Path, Path]
    step_seconds: dict[str, list[float]]
    reports: dict[str, str]           # evaluate stdout by step
    orthonormality_err: float | None  # None when the store was unreadable
    train_features: list | None

    @property
    def pipeline_s(self) -> float:
        return sum(statistics.fmean(v) for v in self.step_seconds.values())


def run_pipeline(wl: Workload, data: Path, rep_dir: Path, runner,
                 ledger: Ledger, evaluate_repeats: int = 1) -> Repetition:
    """One repetition against a fresh store, followed by check_store.

    The steps run in STEPS order; the two evaluate steps then run again,
    in the same order, until each has run evaluate_repeats times. They
    only read the store, and as the shortest steps they spread the most.
    Every evaluate call must print the same report.
    """
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    roots = (rep_dir / "a", rep_dir / "b")
    times = {step: [] for step in STEPS}
    reports = {}
    for step in [*STEPS[:2], *STEPS[2:] * evaluate_repeats]:
        seconds, code, stdout = runner(step, step_argv(step, wl, data, roots))
        ledger.check(code == 0, f"{step} exited {code}")
        times[step].append(seconds)
        if step.startswith("train"):
            check_nets(stdout, step, wl, ledger)
        elif step in reports:
            ledger.check(stdout == reports[step],
                         f"{step} printed a different report")
        else:
            reports[step] = stdout
    err, train = check_store(wl, roots, data, reports, ledger)
    return Repetition(roots, times, reports, err, train)


def _passes(load) -> bool:
    try:
        load()
    except (FacemlpError, OSError):
        return False
    return True


def _features(space, data: Path):
    _, samples = imageio.load_manifest(data / "manifest.tsv")
    feats = [(eigenspace.project(space, imageio.to_vector(s.image)),
              s.class_id, s.role) for s in samples]
    train = [(f, c) for f, c, role in feats if role == "train"]
    test = [(f, c) for f, c, role in feats if role == "test"]
    return train, test


def check_store(wl: Workload, roots, data: Path, reports: dict,
                ledger: Ledger):
    """Check every artifact of one repetition.

    * each root holds exactly the expected artifacts, byte-identical
      across roots;
    * every weight file passes its CRC check through
      parallel.read_weight_file / parallel.load_acon;
    * the eigenspace basis is orthonormal;
    * each evaluate output equals the library's own evaluation of the
      stored models.

    Returns (orthonormality error, projected training features), or
    (None, None) when the store cannot be read at all.
    """
    expected = {EIGENSPACE_FILE, parallel.ACON_FILENAME,
                *(parallel.class_filename(c)
                  for c in range(1, wl.classes + 1))}
    listed = []
    for root in roots:
        names = {p.name for p in root.iterdir() if p.is_file()} \
            if root.is_dir() else set()
        ledger.check(names == expected, f"{root.name}: unexpected artifacts")
        listed.append(names)
    for name in sorted(listed[0] & listed[1]):
        ledger.check((roots[0] / name).read_bytes()
                     == (roots[1] / name).read_bytes(),
                     f"{name} differs between roots")
    for root, names in zip(roots, listed):
        for name in sorted(names):
            if name.endswith(".wts") and name != parallel.ACON_FILENAME:
                ledger.check(_passes(lambda: parallel.read_weight_file(
                    root / name)), f"{root.name}/{name} fails its check")
        ledger.check(_passes(lambda: parallel.load_acon(
            parallel.WeightStore((root,)))),
            f"{root.name}/{parallel.ACON_FILENAME} fails its check")

    store = parallel.WeightStore(tuple(roots))
    try:
        space = eigenspace.load_eigenspace(roots[0] / EIGENSPACE_FILE)
        train, test = _features(space, data)
        models = {
            "evaluate_ocon": {c: parallel.load(c, store)
                              for c in sorted({c for _, c in train})},
            "evaluate_acon": parallel.load_acon(store),
        }
    except (FacemlpError, OSError) as exc:
        ledger.check(False, f"store unreadable: {exc}")
        return None, None
    gram = space.basis.T @ space.basis
    err = float(np.max(np.abs(gram - np.eye(space.components))))
    ledger.check(err < ORTHONORMALITY_TOL,
                 f"eigenspace orthonormality error {err:.3g}")
    for step, table in models.items():
        report = evaluator.evaluate_all(table, test, evaluator.Protocol())
        ledger.check(evaluator.render_report(report, "csv")
                     == reports.get(step),
                     f"{step} output differs from the library's evaluation")
    return err, train


def check_same_weights(models, root: Path, tmp_dir: Path, label: str,
                       ledger: Ledger) -> None:
    """Each model must serialize to the bytes the CLI stored in root."""
    shutil.rmtree(tmp_dir, ignore_errors=True)
    own = parallel.WeightStore((tmp_dir,))
    for model in models:
        parallel.persist(model, own)
        name = parallel.class_filename(model.class_id)
        stored = root / name
        ledger.check(stored.is_file() and (tmp_dir / name).read_bytes()
                     == stored.read_bytes(),
                     f"class {model.class_id} weights differ ({label})")
    shutil.rmtree(tmp_dir, ignore_errors=True)


def check_worker_invariance(train, root: Path, tmp_dir: Path,
                            ledger: Ledger) -> None:
    """Library training at one worker must reproduce the CLI's weights,
    which were trained at WORKERS workers. The config is the CLI's
    defaults plus the benchmark's goal and epoch cap."""
    ensemble = classifiers.train_ocon(
        train, config=TrainingConfig(goal=GOAL, max_epochs=MAX_EPOCHS),
        pool=parallel.PoolConfig(workers=1))
    check_same_weights(ensemble.models, root, tmp_dir, "1 worker", ledger)


def quartiles(values: list[float]) -> dict:
    """Mean, median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"mean": statistics.fmean(values), "median": median, "q1": q1,
            "q3": q3, "n": len(values)}


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def environment(wl: Workload, seed: int, host: HostProbe) -> dict:
    """Everything needed to compare this result with another one."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "facemlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "host_factor": host.factor(),
        "host_readings": {str(cpu): r for cpu, r in host.readings.items()},
        "workload": {**wl.__dict__, "seed": seed, "workers": WORKERS,
                     "goal": GOAL, "max_epochs": MAX_EPOCHS},
    }


def _time_import(repeats: int = 3) -> list[float]:
    """Wall seconds of a bare `import facemlp.cli` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import facemlp.cli"],
                       env=cli_env(), check=True, timeout=STEP_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return times


def _until(deadline: float, repetition) -> list:
    """Call repetition(i) until the next call would pass the deadline.

    The first call always runs; the last one's duration predicts the next.
    """
    results = []
    while True:
        started = time.perf_counter()
        results.append(repetition(len(results)))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return results


def measure_end_to_end(wl: Workload, seed: int, data: Path, run_dir: Path,
                       seconds: float, ledger: Ledger, setup_s: list[float],
                       host: HostProbe) -> tuple[dict[str, list], list]:
    """Repetitions until the time is spent.

    Returns each metric's wall samples, and the repetitions. Each
    repetition first times SETUP_PER_REPETITION more set-ups, added to
    setup_s.
    """
    runner = subprocess_runner(run_dir, host)

    def repetition(i):
        shutil.rmtree(run_dir / f"rep{i - 1}", ignore_errors=True)
        for _ in range(SETUP_PER_REPETITION):
            setup_s.append(synth_copy(wl, seed, data, run_dir, ledger, host))
        return run_pipeline(wl, data, run_dir / f"rep{i}", runner, ledger,
                            EVALUATE_REPEATS)

    reps = _until(time.perf_counter() + seconds, repetition)
    last = reps[-1]
    if last.train_features is not None:
        check_worker_invariance(last.train_features, last.roots[0],
                                run_dir / "w1", ledger)
    samples = {f"{step}_s": [s for r in reps for s in r.step_seconds[step]]
               for step in STEPS}
    samples["setup_s"] = setup_s
    samples["pipeline_s"] = [r.pipeline_s for r in reps]
    for mode in ("ocon", "acon"):
        samples[f"rate_{mode}_pct"] = [
            average_rate(r.reports[f"evaluate_{mode}"]) or 0.0 for r in reps]
    return samples, reps


def measure_layers(wl: Workload, data: Path, run_dir: Path, seconds: float,
                   ledger: Ledger) -> tuple[dict[str, list], dict, Tracer]:
    """One untraced repetition, then traced ones until the time is spent.

    Returns (per-layer samples, untraced vs traced step seconds, tracer).
    """
    deadline = time.perf_counter() + seconds
    untraced = run_pipeline(wl, data, run_dir / "untraced",
                            subprocess_runner(run_dir), ledger)
    tracer = Tracer()
    per_rep = []

    def repetition(i):
        shutil.rmtree(run_dir / f"traced{i - 1}", ignore_errors=True)
        first = len(tracer.spans)
        rep = run_pipeline(wl, data, run_dir / f"traced{i}", tracer.run_step,
                           ledger)
        metrics = layer_metrics(tracer.spans[first:])
        # A store that could not be read has no basis; report the worst.
        metrics["eigenspace.orthonormality_err"] = (
            rep.orthonormality_err if rep.orthonormality_err is not None
            else float("inf"))
        per_rep.append(metrics)
        return rep

    reps = _until(deadline, repetition)
    startup = statistics.median(_time_import())

    # The same jobs at 1 and WORKERS workers: time both, and both must
    # reproduce the weights the CLI stored.
    pool_s = {}
    for workers in (1, WORKERS):
        if not tracer.pool_jobs:
            ledger.check(False, "traced train_ocon never reached run_pool")
            break
        started = time.perf_counter()
        outcomes = parallel.run_pool(tracer.pool_jobs[-1],
                                     parallel.PoolConfig(workers))
        pool_s[workers] = time.perf_counter() - started
        ledger.check(all(o.model for o in outcomes),
                     f"a pool job failed at {workers} workers")
        check_same_weights([o.model for o in outcomes if o.model],
                           reps[-1].roots[0], run_dir / "pool",
                           f"pool at {workers} workers", ledger)

    samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
    samples["cli.startup_s"] = [startup]
    samples["parallel.speedup_w2"] = [
        pool_s[1] / pool_s[WORKERS] if pool_s else 0.0]
    traced_s = statistics.median(r.pipeline_s for r in reps)
    samples["trace.overhead_frac"] = [
        (traced_s + len(STEPS) * startup) / untraced.pipeline_s - 1.0]
    steps = {step: {"untraced_s": untraced.step_seconds[step][0],
                    "traced_s": statistics.median(
                        r.step_seconds[step][0] for r in reps),
                    "cli.startup_s": startup}
             for step in STEPS}
    return samples, steps, tracer


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, measure, print a table, and write the full record.

    Returns the record; record["metrics"] maps each metric to its
    reported value, unit, mean, median, quartiles, sample count and
    samples. The value is the mean for end-to-end metrics, which the
    host factor scales (see hostprobe.py), and the median per layer.
    """
    run_dir = WORK / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()
    extra = {}
    try:
        with HostProbe() as host:
            data, setup_s = set_up(wl, seed, run_dir, ledger, host)
            if traced:
                wall, extra["steps"], tracer = measure_layers(
                    wl, data, run_dir, seconds, ledger)
                units = PER_LAYER_UNITS
            else:
                wall, reps = measure_end_to_end(wl, seed, data, run_dir,
                                                seconds, ledger, setup_s,
                                                host)
                units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if traced:
        # Per-layer metrics stay wall times; the record keeps the readings.
        samples = wall
    else:
        # Each call's time is scaled by the speed of the vCPUs it ran on.
        def scaled(v):
            return v * host.factor(v.usage)
        samples = {name: [scaled(v) for v in wall[name]]
                   if unit == "s" and name != "pipeline_s" else wall[name]
                   for name, unit in units.items()}
        samples["pipeline_s"] = [
            sum(statistics.fmean(scaled(v) for v in r.step_seconds[step])
                for step in STEPS) for r in reps]

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(wl, seed, host),
        "ops": {"attempted": ledger.attempted, "failed": ledger.failed,
                "failed_frac": ledger.failed_frac,
                "failures": ledger.failures},
        "metrics": {name: {"unit": unit, **quartiles(samples[name]),
                           "samples": samples[name]}
                    for name, unit in units.items()},
        "wall": {name: wall[name] for name in units},
        **extra,
    }
    for m in record["metrics"].values():
        m["value"] = m["median"] if traced else m["mean"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(traced)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    print_table(record)
    return record


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} "
          f"host_factor={env['host_factor']:.4f} "
          f"git={env['git_sha']}")
    print(f"{'metric':34} {'value':>12} {'unit':8} {'median':>12}"
          f" {'q1':>12} {'q3':>12} {'n':>3}")
    for name, m in record["metrics"].items():
        print(f"{name:34} {m['value']:12.6g} {m['unit']:8} {m['median']:12.6g}"
              f" {m['q1']:12.6g} {m['q3']:12.6g} {m['n']:3d}")
    ops = record["ops"]
    print(f"{'ops_failed_frac':34} {ops['failed_frac']:12.6g} {'fraction':8}"
          f" ({ops['failed']} of {ops['attempted']} operations failed)")
    for failure in ops["failures"]:
        print(f"  failed: {failure}")
    for step, s in record.get("steps", {}).items():
        print(f"tracing overhead {step:14} untraced {s['untraced_s']:.4f}s"
              f"  traced {s['traced_s']:.4f}s + startup "
              f"{s['cli.startup_s']:.4f}s")
