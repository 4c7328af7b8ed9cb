"""Acceptance suite.

One test per criterion; each prints a single line
    [criterion N] PASS/FAIL: <label> - <detail>
(run pytest with -s to see the lines as they appear).

Criteria 4, 5 and 6 share one module-scoped experiment: a 10-class
synthetic dataset (20 train / 20 test per class, 16x16 images, dataset
seed 1) projected onto a 40-component eigenspace, with subnets of 20
hidden units and an all-classes net of 60, trained at lr 0.05, momentum
0.9, goal 1e-3, cap 20000 epochs.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from facemlp.classifiers import (
    ClassModel,
    OconEnsemble,
    build_ocon_task,
    classify_ocon,
    train_acon,
)
from facemlp.eigenspace import compute_eigenspace, project, reconstruct
from facemlp.errors import ChecksumMismatch
from facemlp.evaluator import Protocol, evaluate_all, render_report
from facemlp.imageio import generate_synthetic, to_vector
from facemlp.mlp import (
    Topology,
    TrainingConfig,
    Weights,
    forward,
    gradients,
    init_weights,
    mse,
)
from facemlp.parallel import (
    PoolConfig,
    TrainingJob,
    WeightStore,
    class_filename,
    load,
    persist,
    read_weight_file,
    run_pool,
)

PINNED_WRONG = (0, 0, 2, 4, 4, 4, 2, 0, 2, 6)
PINNED_RATES = (100.0, 100.0, 90.0, 80.0, 80.0, 80.0, 90.0, 100.0, 90.0, 70.0)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[criterion {num}] {verdict}: {label}{suffix}")


def keyed_subnet(class_id: int, dim: int) -> ClassModel:
    w = np.zeros((1, dim))
    w[0, class_id - 1] = 50.0
    return ClassModel(class_id, Topology((dim, 1)),
                      Weights([w], [np.zeros(1)]))


def keyed_features(k: int, wrong_positives):
    samples = []
    for cid in range(1, k + 1):
        for i in range(10):
            f = np.full(k, -1.0)
            if i >= wrong_positives[cid - 1]:
                f[cid - 1] = 1.0
            samples.append((f, cid))
    return samples


@pytest.fixture(scope="module")
def experiment():
    """Dataset, eigenspace, jobs, trained OCON ensemble and ACON net."""
    samples = generate_synthetic(10, 20, 20, 16, seed=1)
    train_raw = [(to_vector(s.image), s.class_id)
                 for s in samples if s.role == "train"]
    test_raw = [(to_vector(s.image), s.class_id)
                for s in samples if s.role == "test"]
    space = compute_eigenspace([v for v, _ in train_raw], m=40)
    assert space.components == 40
    ftrain = [(project(space, v), c) for v, c in train_raw]
    ftest = [(project(space, v), c) for v, c in test_raw]

    config = TrainingConfig(learning_rate=0.05, momentum=0.9, goal=1e-3,
                            max_epochs=20000, seed=2)
    topology = Topology((40, 20, 1))
    jobs = [TrainingJob(cid, build_ocon_task(cid, ftrain), topology,
                        replace(config, seed=config.seed + cid))
            for cid in range(1, 11)]
    outcomes = run_pool(jobs, PoolConfig(workers=1))
    assert all(o.model is not None for o in outcomes)
    ensemble = OconEnsemble([o.model for o in outcomes], 40)
    acon = train_acon(ftrain, Topology((40, 60, 10)), config)
    return {
        "ftrain": ftrain,
        "ftest": ftest,
        "jobs": jobs,
        "ensemble": ensemble,
        "acon": acon,
    }


def test_criterion_1_pinned_rate_regression():
    ok = False
    detail = ""
    try:
        ensemble = OconEnsemble([keyed_subnet(c, 10) for c in range(1, 11)],
                                10)
        report = evaluate_all(ensemble, keyed_features(10, PINNED_WRONG),
                              Protocol())
        rates = tuple(r.rate for r in report.per_class)
        assert rates == PINNED_RATES
        assert report.average_rate == 88.0
        corrects = tuple(r.correct for r in report.per_class)
        assert corrects == (20, 20, 18, 16, 16, 16, 18, 20, 18, 14)
        ok = True
        detail = f"rates {[int(r) for r in rates]}, average exactly 88"
    finally:
        _report(1, "pinned per-class rates and 88% average", ok, detail)


def test_criterion_2_gradient_correctness():
    ok = False
    detail = ""
    h = 1e-5
    worst = 0.0
    try:
        for sizes in ((2, 2, 1), (3, 5, 2), (40, 20, 1)):
            topo = Topology(sizes)
            for seed in range(5):
                rng = np.random.default_rng(1000 * seed + len(sizes))
                w = init_weights(topo, seed)
                for arr in w.weights:
                    arr += rng.normal(scale=0.4, size=arr.shape)
                batch = [(rng.normal(size=sizes[0]),
                          rng.uniform(0.05, 0.95, size=sizes[-1]))
                         for _ in range(3)]
                targets = [t for _, t in batch]
                analytic = gradients(w, batch)

                def loss():
                    outs = [forward(w, x)[0] for x, _ in batch]
                    return mse(outs, targets)

                for layer in range(len(w.weights)):
                    for arr, grad in ((w.weights[layer],
                                       analytic.weights[layer]),
                                      (w.biases[layer],
                                       analytic.biases[layer])):
                        for idx in np.ndindex(arr.shape):
                            keep = arr[idx]
                            arr[idx] = keep + h
                            up = loss()
                            arr[idx] = keep - h
                            down = loss()
                            arr[idx] = keep
                            fd = (up - down) / (2 * h)
                            rel = abs(grad[idx] - fd) / max(abs(fd), 1e-7)
                            worst = max(worst, rel)
                            assert rel < 1e-4
        ok = True
        detail = f"worst relative error {worst:.2e} over 3 topologies x 5 seeds"
    finally:
        _report(2, "analytic gradients match finite differences", ok, detail)


def test_criterion_3_eigenspace_properties():
    ok = False
    detail = ""
    try:
        samples = generate_synthetic(4, 5, 1, 16, seed=7)
        vectors = [to_vector(s.image) for s in samples if s.role == "train"]
        assert len(vectors) == 20

        space = compute_eigenspace(vectors, m=19)
        gram = space.basis.T @ space.basis
        ortho = np.max(np.abs(gram - np.eye(space.components)))
        assert ortho < 1e-12

        mean_coeffs = project(space, space.mean)
        assert np.max(np.abs(mean_coeffs)) < 1e-9

        errors = []
        for m in range(1, 20):
            sub = compute_eigenspace(vectors, m=m)
            total = sum(
                np.sum((reconstruct(sub, project(sub, v)) - v) ** 2)
                for v in vectors)
            errors.append(total)
        assert all(errors[i + 1] <= errors[i] + 1e-9
                   for i in range(len(errors) - 1))

        eight = vectors[:8]
        small = compute_eigenspace(eight, m=7)
        data = np.vstack(eight)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / 8.0
        brute = np.sort(np.linalg.eigvalsh(cov))[::-1][:7]
        np.testing.assert_allclose(small.eigenvalues, brute, rtol=1e-6)
        ok = True
        detail = (f"orthonormality {ortho:.1e}, mean projection "
                  f"{np.max(np.abs(mean_coeffs)):.1e}, reconstruction "
                  f"monotone over m=1..19, eigenvalues match direct route")
    finally:
        _report(3, "eigenspace properties", ok, detail)


def test_criterion_4_convergence_experiment(experiment):
    ok = False
    detail = ""
    try:
        models = experiment["ensemble"].models
        assert all(m.trace.goal_met for m in models)
        assert all(m.trace.final_mse < 1e-3 for m in models)
        worst = max(m.trace.final_mse for m in models)
        acon_final = experiment["acon"].trace.final_mse
        assert acon_final > worst
        epochs = [m.trace.epochs_run for m in models]
        acon_epochs = experiment["acon"].trace.epochs_run
        assert max(epochs) < acon_epochs
        ok = True
        detail = (f"subnets met goal in {min(epochs)}-{max(epochs)} epochs "
                  f"< all-classes {acon_epochs}; all-classes final "
                  f"{acon_final:.6e} > worst subnet {worst:.6e}")
    finally:
        _report(4, "per-class nets converge, all-classes net trails", ok,
                detail)


def test_criterion_5_recognition_on_separable_data(experiment):
    ok = False
    detail = ""
    try:
        ocon_report = evaluate_all(experiment["ensemble"],
                                   experiment["ftest"], Protocol())
        acon_report = evaluate_all(experiment["acon"],
                                   experiment["ftest"], Protocol())
        assert all(r.rate == 100.0 for r in ocon_report.per_class)
        assert ocon_report.average_rate >= acon_report.average_rate
        ok = True
        detail = (f"per-class rates all 100%, averages "
                  f"{ocon_report.average_rate:g} vs "
                  f"{acon_report.average_rate:g}")
    finally:
        _report(5, "recognition rates on separable data", ok, detail)


def test_criterion_6_parallel_equivalence_and_speedup(experiment):
    ok = False
    detail = ""
    try:
        jobs = experiment["jobs"]
        timings = {}
        results = {}
        for workers in (1, 2, 4):
            started = time.perf_counter()
            results[workers] = run_pool(jobs, PoolConfig(workers=workers))
            timings[workers] = time.perf_counter() - started
        baseline = results[1]
        for workers in (2, 4):
            for a, b in zip(baseline, results[workers]):
                assert a.class_id == b.class_id
                for x, y in zip(a.model.weights.weights,
                                b.model.weights.weights):
                    assert np.array_equal(x, y)
                for x, y in zip(a.model.weights.biases,
                                b.model.weights.biases):
                    assert np.array_equal(x, y)
        ratio = timings[4] / timings[1]
        cores = os.cpu_count() or 1
        if cores >= 4:
            assert ratio <= 0.6
            speed_note = f"speedup asserted: t4/t1 = {ratio:.2f} <= 0.6"
        else:
            speed_note = (f"speedup reported only ({cores} cores): "
                          f"t4/t1 = {ratio:.2f}")
        ok = True
        detail = f"weights bit-identical for workers 1/2/4; {speed_note}"
    finally:
        _report(6, "parallel equivalence and speedup", ok, detail)


def test_criterion_7_fault_tolerance(tmp_path):
    ok = False
    detail = ""
    try:
        def fresh_models():
            models = []
            for cid in (1, 2):
                w = init_weights(Topology((4, 3, 1)), seed=40 + cid)
                rng = np.random.default_rng(cid)
                for arr in w.weights:
                    arr += rng.normal(scale=1.5, size=arr.shape)
                models.append(ClassModel(cid, Topology((4, 3, 1)), w))
            return models

        test_samples = [(np.full(4, 0.2 * i - 0.3), 1 + i % 2)
                        for i in range(24)]
        reports = []
        for victim in (0, 1):
            root_a = tmp_path / f"v{victim}a"
            root_b = tmp_path / f"v{victim}b"
            store = WeightStore((root_a, root_b))
            for model in fresh_models():
                persist(model, store)
            doomed = (root_a, root_b)[victim]
            for cid in (1, 2):
                (doomed / class_filename(cid)).unlink()
            loaded = {cid: load(cid, store) for cid in (1, 2)}
            report = evaluate_all(loaded, test_samples,
                                  Protocol(n_pos=5, n_neg=5))
            reports.append(render_report(report, "csv").encode())
        assert reports[0] == reports[1]

        root_a = tmp_path / "ca"
        root_b = tmp_path / "cb"
        store = WeightStore((root_a, root_b))
        model = fresh_models()[0]
        persist(model, store)
        target = root_a / class_filename(1)
        raw = bytearray(target.read_bytes())
        raw[40] ^= 0x04
        target.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            read_weight_file(target)
        recovered = load(1, store)
        for x, y in zip(recovered.weights.weights, model.weights.weights):
            assert np.array_equal(x, y)
        ok = True
        detail = ("evaluation byte-identical after losing either replica; "
                  "corruption detected and failed over")
    finally:
        _report(7, "replica fault tolerance", ok, detail)


def test_criterion_8_persistence_round_trip(tmp_path):
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(123)
        store = WeightStore((tmp_path / "store",))
        for i in range(100):
            sizes = (int(rng.integers(1, 9)), int(rng.integers(1, 7)), 1)
            w = init_weights(Topology(sizes), seed=i)
            scale = 10.0 ** rng.uniform(-6, 6)
            for arr in w.weights:
                arr *= scale
            for arr in w.biases:
                arr += rng.normal(scale=scale, size=arr.shape)
            model = ClassModel(i + 1, Topology(sizes), w)
            persist(model, store)
            loaded = load(i + 1, store)
            for x, y in zip(loaded.weights.weights, w.weights):
                assert np.array_equal(x, y)
            for x, y in zip(loaded.weights.biases, w.biases):
                assert np.array_equal(x, y)
        ok = True
        detail = "100 random models round-tripped bit-exactly"
    finally:
        _report(8, "persistence round trip at text precision", ok, detail)


def test_criterion_9_exhaustive_testing(monkeypatch):
    ok = False
    detail = ""
    try:
        import facemlp.classifiers as classifiers_mod
        import facemlp.evaluator as evaluator_mod

        forward_calls = []
        real_forward = forward

        def counting_forward(weights, x):
            forward_calls.append(1)
            return real_forward(weights, x)

        monkeypatch.setattr(classifiers_mod, "forward", counting_forward)
        k = 10
        ensemble = OconEnsemble([keyed_subnet(c, k) for c in range(1, k + 1)],
                                k)
        f = np.full(k, -1.0)
        f[0] = 1.0  # the first subnet already scores ~1.0
        classify_ocon(ensemble, f)
        assert len(forward_calls) == k

        seen = []
        real_eval = evaluator_mod.evaluate_class_ocon

        def spy(model, pos, neg, threshold=0.5):
            seen.append(model.class_id)
            return real_eval(model, pos, neg, threshold)

        monkeypatch.setattr(evaluator_mod, "evaluate_class_ocon", spy)
        evaluate_all(ensemble, keyed_features(k, (0,) * k), Protocol())
        assert seen == list(range(1, k + 1))
        ok = True
        detail = (f"classify ran all {k} subnets despite an immediate hit; "
                  f"every registered class evaluated exactly once")
    finally:
        _report(9, "exhaustive testing discipline", ok, detail)
