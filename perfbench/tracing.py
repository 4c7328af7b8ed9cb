"""Per-layer spans for the traced run, recorded from outside the package.

The traced run calls `facemlp.cli.main(argv)` in-process. For the length
of one CLI step, Tracer replaces each layer's public functions, on the
defining module and on every facemlp module that imported the name
directly (`cli.compute_eigenspace`, `evaluator.forward`, ...), with a
wrapper that records a span: name, start, end, parent span, and the step
it belongs to. Spans stay in memory until the run writes them out.

Forked pool workers inherit the wrappers, but their spans never reach the
parent, so per-net numbers come from the JobOutcome and TrainingTrace
values that `parallel.run_pool` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import facemlp
from facemlp import cli, parallel

LAYER_FUNCTIONS = {
    "imageio": ("load_manifest", "parse_pgm", "to_vector"),
    "eigenspace": ("compute_eigenspace", "eig_symmetric", "project",
                   "save_eigenspace", "load_eigenspace"),
    "mlp": ("forward",),
    "classifiers": ("build_ocon_task", "train_acon", "classify_acon"),
    # _parse is private, but it is the only place a failed ACON replica
    # read shows (load_acon swallows the error and tries the next root).
    "parallel": ("run_pool", "persist", "persist_acon", "load", "load_acon",
                 "read_weight_file", "_parse"),
    "evaluator": ("evaluate_all", "render_report"),
}
MODULES = ("cli", "imageio", "eigenspace", "mlp", "classifiers", "parallel",
           "evaluator")

PER_LAYER_UNITS = {
    "imageio.load_manifest_s": "s",
    "imageio.images": "count",
    "imageio.bytes_read": "bytes",
    "imageio.to_vector_s": "s",
    "eigenspace.build_s": "s",
    "eigenspace.eig_s": "s",
    "eigenspace.gram_n": "count",
    "eigenspace.dim": "count",
    "eigenspace.project_calls": "count",
    "eigenspace.project_s": "s",
    "eigenspace.save_s": "s",
    "eigenspace.save_bytes": "bytes",
    "eigenspace.load_s": "s",
    "eigenspace.orthonormality_err": "abs",
    "mlp.epochs_ocon": "count",
    "mlp.epochs_acon": "count",
    "mlp.us_per_epoch_ocon": "us",
    "mlp.us_per_epoch_acon": "us",
    "mlp.goal_met_frac": "fraction",
    "mlp.forward_calls": "count",
    "classifiers.build_ocon_task_s": "s",
    "classifiers.train_acon_s": "s",
    "classifiers.classify_acon_calls": "count",
    "classifiers.classify_acon_s": "s",
    "parallel.run_pool_s": "s",
    "parallel.compute_s": "s",
    "parallel.max_bucket_compute_s": "s",
    "parallel.overhead_s": "s",
    "parallel.speedup_w2": "ratio",
    "parallel.persist_s": "s",
    "parallel.persist_bytes": "bytes",
    "parallel.replicas_written": "count",
    "parallel.load_s": "s",
    "parallel.load_failovers": "count",
    "evaluator.evaluate_all_s": "s",
    "evaluator.verifications": "count",
    "evaluator.verifications_per_s": "1/s",
    "evaluator.render_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def _pool_counts(args, outcomes) -> dict:
    jobs, pool = args[0], args[1]
    compute = {o.class_id: o.compute_seconds for o in outcomes}
    buckets = parallel.allocate(jobs, pool)
    traces = [o.model.trace for o in outcomes if o.model is not None]
    return {
        "compute_s": sum(compute.values()),
        "max_bucket_compute_s": max(sum(compute[j.class_id] for j in b)
                                    for b in buckets if b),
        "epochs": sum(t.epochs_run for t in traces),
        "train_s": sum(t.wall_time for t in traces),
        "goal_met": sum(t.goal_met for t in traces),
        "nets": len(outcomes),
    }


def _persist_counts(args, outcome) -> dict:
    return {"bytes": sum(p.stat().st_size for p in outcome.written),
            "replicas": len(outcome.written)}


# What each wrapper reads off a call's arguments and result. The CLI
# passes all of these positionally.
PROBES = {
    "imageio.load_manifest": lambda args, result: {
        "images": len(result[1]), "bytes": Path(args[0]).stat().st_size},
    "imageio.parse_pgm": lambda args, result: {"bytes": len(args[0])},
    "eigenspace.compute_eigenspace": lambda args, result: {
        "dim": result.dim},
    "eigenspace.eig_symmetric": lambda args, result: {
        "gram_n": args[0].shape[0]},
    "eigenspace.save_eigenspace": lambda args, result: {
        "bytes": Path(args[1]).stat().st_size},
    "parallel.run_pool": _pool_counts,
    "parallel.persist": _persist_counts,
    "parallel.persist_acon": _persist_counts,
    "classifiers.train_acon": lambda args, result: {
        "epochs": result.trace.epochs_run, "train_s": result.trace.wall_time,
        "goal_met": int(result.trace.goal_met), "nets": 1},
    "evaluator.evaluate_all": lambda args, result: {
        "verifications": sum(r.n_test for r in result.per_class)},
}


@dataclass(eq=False)
class Span:
    id: int
    name: str
    step: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for traced CLI steps run in this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pool_jobs: list[list] = []     # the jobs of each run_pool call
        self._stack: list[int] = []
        self._step = ""

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self._step, parent,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if name == "parallel.run_pool":
                self.pool_jobs.append(args[0])
            if probe:
                span.counts = probe(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def _installed(self):
        modules = [importlib.import_module(f"facemlp.{m}") for m in MODULES]
        modules.append(facemlp)
        saved = []
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = importlib.import_module(f"facemlp.{layer}")
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                saved.append((module, attr, original))
                                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_step(self, step: str, argv: list[str]) -> tuple[float, int, str]:
        """Run one CLI step in-process under a root span `cli.<step>`.

        Returns (wall seconds, exit code, stdout), like the subprocess
        runner; stderr is dropped in both.
        """
        out = io.StringIO()
        self._step = step
        with self._installed(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            span = self._open(f"cli.{step}")
            try:
                code = cli.main(argv)
            finally:
                self._close(span)
        return span.seconds, code, out.getvalue()

    def dump(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "step": s.step,
                 "parent": s.parent, "start": s.start, "end": s.end,
                 "error": s.error, "counts": s.counts} for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for one traced pipeline (the four CLI steps).

    Leaves out the metrics measured outside the spans: orthonormality
    error, speedup, CLI startup and the tracing overhead.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names):
        return sum(s.seconds for n in names for s in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in by_name.get(name, ())),
                   default=0)

    names = {s.id: s.name for s in spans}
    failovers = sum(
        1 for s in spans if s.error and s.parent is not None
        and (s.name, names[s.parent]) in
        {("parallel.read_weight_file", "parallel.load"),
         ("parallel._parse", "parallel.load_acon")})
    roots = [s for s in spans if s.name.startswith("cli.")]
    child_time = {r.id: 0.0 for r in roots}
    for span in spans:
        if span.parent in child_time:
            child_time[span.parent] += span.seconds

    pool, acon = "parallel.run_pool", "classifiers.train_acon"
    nets = count(pool, "nets") + count(acon, "nets")
    evaluate_s = total("evaluator.evaluate_all")
    return {
        "imageio.load_manifest_s": total("imageio.load_manifest"),
        "imageio.images": count("imageio.load_manifest", "images"),
        "imageio.bytes_read": count("imageio.load_manifest", "bytes")
        + count("imageio.parse_pgm", "bytes"),
        "imageio.to_vector_s": total("imageio.to_vector"),
        "eigenspace.build_s": total("eigenspace.compute_eigenspace"),
        "eigenspace.eig_s": total("eigenspace.eig_symmetric"),
        "eigenspace.gram_n": largest("eigenspace.eig_symmetric", "gram_n"),
        "eigenspace.dim": largest("eigenspace.compute_eigenspace", "dim"),
        "eigenspace.project_calls": calls("eigenspace.project"),
        "eigenspace.project_s": total("eigenspace.project"),
        "eigenspace.save_s": total("eigenspace.save_eigenspace"),
        "eigenspace.save_bytes": count("eigenspace.save_eigenspace", "bytes"),
        "eigenspace.load_s": total("eigenspace.load_eigenspace"),
        "mlp.epochs_ocon": count(pool, "epochs"),
        "mlp.epochs_acon": count(acon, "epochs"),
        "mlp.us_per_epoch_ocon": 1e6 * count(pool, "train_s")
        / max(count(pool, "epochs"), 1),
        "mlp.us_per_epoch_acon": 1e6 * count(acon, "train_s")
        / max(count(acon, "epochs"), 1),
        "mlp.goal_met_frac": (count(pool, "goal_met")
                              + count(acon, "goal_met")) / max(nets, 1),
        "mlp.forward_calls": calls("mlp.forward"),
        "classifiers.build_ocon_task_s": total("classifiers.build_ocon_task"),
        "classifiers.train_acon_s": total(acon),
        "classifiers.classify_acon_calls": calls("classifiers.classify_acon"),
        "classifiers.classify_acon_s": total("classifiers.classify_acon"),
        "parallel.run_pool_s": total(pool),
        "parallel.compute_s": count(pool, "compute_s"),
        "parallel.max_bucket_compute_s": count(pool, "max_bucket_compute_s"),
        "parallel.overhead_s": total(pool)
        - count(pool, "max_bucket_compute_s"),
        "parallel.persist_s": total("parallel.persist",
                                    "parallel.persist_acon"),
        "parallel.persist_bytes": count("parallel.persist", "bytes")
        + count("parallel.persist_acon", "bytes"),
        "parallel.replicas_written": count("parallel.persist", "replicas")
        + count("parallel.persist_acon", "replicas"),
        "parallel.load_s": total("parallel.load", "parallel.load_acon"),
        "parallel.load_failovers": failovers,
        "evaluator.evaluate_all_s": evaluate_s,
        "evaluator.verifications": count("evaluator.evaluate_all",
                                         "verifications"),
        "evaluator.verifications_per_s": count("evaluator.evaluate_all",
                                               "verifications")
        / evaluate_s if evaluate_s else 0.0,
        "evaluator.render_s": total("evaluator.render_report"),
        "cli.self_s": sum(r.seconds - child_time[r.id] for r in roots),
    }
