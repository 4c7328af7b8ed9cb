import numpy as np
import pytest

from facemlp.classifiers import AconModel, ClassModel, OconEnsemble
from facemlp.errors import InvalidConfig, ProtocolError
from facemlp.evaluator import (
    ClassResult,
    Protocol,
    convergence_trace_csv,
    evaluate_all,
    render_report,
)
from facemlp.mlp import TrainingTrace, Weights


def constant_subnet(class_id, dim, score):
    """Single unit with zero input weights: output is sigma(b) = score."""
    bias = np.array([np.log(score / (1.0 - score))])
    return ClassModel(class_id, Weights([np.zeros((1, dim))], [bias]))


def keyed_subnet(class_id, dim):
    w = np.zeros((1, dim))
    w[0, class_id - 1] = 50.0
    return ClassModel(class_id, Weights([w], [np.zeros(1)]))


def keyed_features(k, wrong_positives):
    """Per class: 10 positives, wrong ones blank; all other dims hostile."""
    samples = []
    for cid in range(1, k + 1):
        for i in range(10):
            f = np.full(k, -1.0)
            if i >= wrong_positives[cid - 1]:
                f[cid - 1] = 1.0
            samples.append((f, cid))
    return samples


def class_row(models, class_id, pos, neg):
    """class_id's row of evaluate_all over samples from which the default
    protocol draws exactly pos as positives and all of neg as negatives
    (neg is labelled with another class id, and has at most 10 entries)."""
    other = class_id % 2 + 1
    samples = [(f, class_id) for f in pos] + [(f, other) for f in neg]
    report = evaluate_all(models, samples)
    return next(r for r in report.per_class if r.class_id == class_id)


def fake_trace(goal_met=True, epochs=3, final=5e-4):
    history = [0.1, 0.01, final][:epochs]
    return TrainingTrace(history, goal_met, wall_time=0.01)


def test_perfect_subnet_scores_100():
    model = keyed_subnet(1, 3)
    pos = [np.array([1.0, -1.0, -1.0])] * 10
    neg = [np.array([-1.0, 1.0, -1.0])] * 10
    result = class_row({1: model}, 1, pos, neg)
    assert (result.correct, result.rate) == (20, 100.0)
    assert (result.n_test, result.n_pos, result.n_neg) == (20, 10, 10)


def test_constant_low_scorer_gets_negatives_only():
    model = constant_subnet(1, 2, score=0.4999)
    pos = [np.zeros(2)] * 10
    neg = [np.ones(2)] * 10
    result = class_row({1: model}, 1, pos, neg)
    assert result.correct == 10
    assert result.rate == 50.0


def test_ocon_threshold_boundary_accepts():
    # The one OCON accept rule is score >= threshold, 0.5 by default.
    assert Protocol().threshold == 0.5
    for score, accepts in ((0.9, True), (0.5, True), (0.4999, False)):
        report = evaluate_all({1: constant_subnet(1, 2, score)},
                              [(np.zeros(2), 1), (np.ones(2), 2)],
                              Protocol(n_pos=1, n_neg=0, threshold=0.5))
        assert report.per_class[0].correct == accepts, score


def test_evaluate_all_rejects_a_value_that_is_not_a_model():
    with pytest.raises(TypeError, match="cannot evaluate list"):
        evaluate_all([keyed_subnet(1, 2)], [(np.zeros(2), 1), (np.ones(2), 2)])


def test_eighteen_of_twenty_is_ninety_percent():
    model = keyed_subnet(2, 4)
    good = np.array([-1.0, 1.0, -1.0, -1.0])
    blank = np.full(4, -1.0)
    pos = [good] * 8 + [blank] * 2
    neg = [blank] * 10
    result = class_row({2: model}, 2, pos, neg)
    assert result.correct == 18
    assert result.rate == 90.0


def acon_identity(k):
    """Hidden-free net whose output c fires exactly on feature c."""
    w = np.eye(k) * 50.0
    return AconModel(tuple(range(1, k + 1)), Weights([w], [np.zeros(k)]))


def test_acon_perfect_class():
    model = acon_identity(2)
    f1 = np.array([1.0, -1.0])
    f2 = np.array([-1.0, 1.0])
    result = class_row(model, 1, [f1] * 10, [f2] * 10)
    assert result.rate == 100.0


def test_acon_constant_predictor_is_half_right():
    k = 2
    w = np.zeros((k, k))
    model = AconModel((1, 2), Weights([w], [np.array([5.0, 0.0])]))
    pos = [np.zeros(k)] * 10
    neg = [np.zeros(k)] * 10
    result = class_row(model, 1, pos, neg)
    assert result.correct == 10
    assert result.rate == 50.0


def test_acon_fourteen_of_twenty():
    model = acon_identity(2)
    own = np.array([1.0, -1.0])
    other = np.array([-1.0, 1.0])
    pos = [own] * 4 + [other] * 6
    neg = [other] * 10
    result = class_row(model, 1, pos, neg)
    assert result.correct == 14
    assert result.rate == 70.0


def test_protocol_threshold_must_lie_in_unit_interval():
    for bad in (float("nan"), -0.1, 1.5):
        with pytest.raises(InvalidConfig):
            Protocol(threshold=bad)
    assert Protocol(threshold=0).threshold == 0
    assert Protocol(threshold=1).threshold == 1


def test_protocol_seed_must_not_be_negative():
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        Protocol(seed=-1)


def test_evaluate_all_requires_positives():
    ensemble = OconEnsemble([keyed_subnet(1, 2), keyed_subnet(2, 2)])
    samples = [(np.zeros(2), 2)]
    with pytest.raises(ProtocolError) as err:
        evaluate_all(ensemble, samples)
    assert err.value.class_id == 1


def test_evaluate_all_requires_negative_pool():
    ensemble = OconEnsemble([keyed_subnet(1, 2), keyed_subnet(2, 2)])
    samples = [(np.zeros(2), 1)]
    with pytest.raises(ProtocolError):
        evaluate_all(ensemble, samples)


def test_evaluate_all_negative_draw_is_deterministic():
    ensemble = OconEnsemble([keyed_subnet(c, 3) for c in (1, 2, 3)])
    rng = np.random.default_rng(0)
    samples = []
    for cid in (1, 2, 3):
        for _ in range(12):
            f = np.full(3, -1.0)
            f[cid - 1] = 1.0
            samples.append((f + rng.normal(0, 0.01, 3), cid))
    first = evaluate_all(ensemble, samples, Protocol(seed=5))
    second = evaluate_all(ensemble, samples, Protocol(seed=5))
    assert [r.correct for r in first.per_class] == \
        [r.correct for r in second.per_class]
    assert first.average_rate == second.average_rate


def test_evaluate_all_marks_missing_models():
    table = {1: keyed_subnet(1, 3), 2: None, 3: keyed_subnet(3, 3)}
    samples = keyed_features(3, [0, 0, 0])
    report = evaluate_all(table, samples)
    assert [r.class_id for r in report.per_class] == [1, 2, 3]
    errored = report.per_class[1]
    assert errored.error == "weights unavailable"
    assert errored.n_test == 0
    assert report.per_class[0].rate == 100.0
    # average counts only the evaluated classes
    assert report.average_rate == 100.0


def test_evaluate_all_acon_covers_all_classes():
    model = acon_identity(3)
    samples = keyed_features(3, [0, 0, 0])
    report = evaluate_all(model, samples)
    assert report.mode == "ACON"
    assert [r.class_id for r in report.per_class] == [1, 2, 3]
    assert report.average_rate == 100.0


def test_evaluate_all_calls_each_class_once(monkeypatch):
    import facemlp.evaluator as mod

    seen = []
    real = mod._tally

    def spy(class_id, accepts, positives, negatives):
        seen.append(class_id)
        return real(class_id, accepts, positives, negatives)

    monkeypatch.setattr(mod, "_tally", spy)
    ensemble = OconEnsemble([keyed_subnet(c, 4) for c in (1, 2, 3, 4)])
    evaluate_all(ensemble, keyed_features(4, [0, 0, 0, 0]))
    assert seen == [1, 2, 3, 4]

    seen.clear()
    acon = AconModel((3, 1, 4, 2), acon_identity(4).weights)
    evaluate_all(acon, keyed_features(4, [0, 0, 0, 0]))
    assert seen == [3, 1, 4, 2]


def test_render_table_layout():
    report = evaluate_all(
        OconEnsemble([keyed_subnet(c, 2) for c in (1, 2)]),
        keyed_features(2, [0, 2]))
    text = render_report(report, "table")
    lines = text.splitlines()
    assert lines[0] == "mode: OCON"
    assert lines[2].split() == ["1", "20", "10", "10", "100%"]
    assert lines[3].split() == ["2", "20", "10", "10", "90%"]
    assert "average rate: 95.0%" in text


def test_render_csv_round_trips_exact_values():
    report = evaluate_all(
        OconEnsemble([keyed_subnet(c, 3) for c in (1, 2, 3)]),
        keyed_features(3, [0, 4, 2]))
    text = render_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "class_id,n_test,n_pos,n_neg,correct,rate_percent"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[-1][0] == "average"
    parsed_rates = [float(r[5]) for r in rows[:-1]]
    assert parsed_rates == [r.rate for r in report.per_class]
    assert float(rows[-1][5]) == report.average_rate
    # correct counts round-trip too
    assert [int(r[4]) for r in rows[:-1]] == \
        [r.correct for r in report.per_class]


def test_table_and_csv_agree():
    report = evaluate_all(
        OconEnsemble([keyed_subnet(c, 2) for c in (1, 2)]),
        keyed_features(2, [2, 0]))
    table = render_report(report, "table")
    csv = render_report(report, "csv")
    assert "90%" in table and ",90.0" in csv
    assert "100%" in table and ",100.0" in csv


def test_render_errored_row():
    table = {1: keyed_subnet(1, 2), 2: None}
    report = evaluate_all(table, keyed_features(2, [0, 0]))
    text = render_report(report, "table")
    assert "error: weights unavailable" in text
    csv = render_report(report, "csv")
    assert "2,0,0,0,," in csv.splitlines()


def test_render_rejects_unknown_format():
    report = evaluate_all(acon_identity(2), keyed_features(2, [0, 0]))
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_trace_csv_shape():
    text = convergence_trace_csv(fake_trace(epochs=3))
    lines = text.splitlines()
    assert lines[0] == "epoch,mse"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert float(lines[3].split(",")[1]) == 5e-4


def test_trace_csv_goal_met_consistency():
    goal = 1e-3
    trace = fake_trace(goal_met=True, final=5e-4)
    text = convergence_trace_csv(trace)
    last = float(text.splitlines()[-1].split(",")[1])
    assert last < goal


def test_class_result_invariants():
    r = ClassResult(1, 10, 10, 18)
    assert r.n_pos + r.n_neg == r.n_test
    assert r.rate == 100.0 * r.correct / r.n_test
