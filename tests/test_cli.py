import shutil

import pytest

from facemlp.cli import main

DATASET = ["--classes", "2", "--train", "4", "--test", "12",
           "--side", "8", "--seed", "3"]
SPEED = ["--components", "6", "--goal", "1e-2", "--max-epochs", "3000"]


def synth(tmp_path, name="data"):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), *DATASET]) == 0
    return out


def store_arg(tmp_path, names=("ra", "rb")):
    return ":".join(str(tmp_path / n) for n in names)


def run_train(tmp_path, data, store, *extra):
    return main(["train", "--data", str(data), "--store", store,
                 *SPEED, *extra])


def test_synth_is_idempotent(tmp_path):
    a = synth(tmp_path, "a")
    b = synth(tmp_path, "b")
    assert (a / "manifest.tsv").read_text() == (b / "manifest.tsv").read_text()
    sample = "class01_train000.pgm"
    assert (a / sample).read_bytes() == (b / sample).read_bytes()


def test_synth_rejects_single_class(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--classes", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_train_persists_to_every_root(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    out = capsys.readouterr().out
    assert "class 1:" in out and "class 2:" in out
    for root in ("ra", "rb"):
        base = tmp_path / root
        assert (base / "class_1.wts").exists()
        assert (base / "class_2.wts").exists()
        assert (base / "eigenspace.txt").exists()
    assert (tmp_path / "ra" / "traces" / "class_1_trace.csv").exists()
    assert not (tmp_path / "rb" / "traces").exists()


def test_evaluate_reports_rates(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--store", store]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode: OCON")
    assert "average rate:" in out


def test_evaluate_survives_root_loss_bit_for_bit(tmp_path):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    first = tmp_path / "report1.csv"
    second = tmp_path / "report2.csv"
    args = ["evaluate", "--data", str(data), "--store", store,
            "--format", "csv"]
    assert main([*args, "--out", str(first)]) == 0
    shutil.rmtree(tmp_path / "ra")
    assert main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("damage", ["binary", "text", "missing"])
def test_evaluate_fails_over_a_bad_eigenspace_replica(tmp_path, damage):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    args = ["evaluate", "--data", str(data), "--store", store,
            "--format", "csv"]
    intact = tmp_path / "intact.csv"
    assert main([*args, "--out", str(intact)]) == 0

    victim = tmp_path / "ra" / "eigenspace.txt"
    if damage == "binary":
        victim.write_bytes(b"\xff\xfe\x00garbage\x80")
    elif damage == "text":
        victim.write_text("EIGEN1 not a number\n")
    else:
        victim.unlink()
    damaged = tmp_path / "damaged.csv"
    assert main([*args, "--out", str(damaged)]) == 0
    assert damaged.read_bytes() == intact.read_bytes()
    # train reuses the intact replica too, rather than failing
    assert run_train(tmp_path, data, store) == 0


def test_evaluate_marks_missing_class(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    for root in ("ra", "rb"):
        (tmp_path / root / "class_1.wts").unlink()
    capsys.readouterr()
    code = main(["evaluate", "--data", str(data), "--store", store])
    captured = capsys.readouterr()
    assert code == 3
    assert "error: weights unavailable" in captured.out
    assert "class 1" in captured.err


def test_acon_pipeline(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store, "--mode", "acon") == 0
    out = capsys.readouterr().out
    assert "acon:" in out and "final MSE" in out
    assert (tmp_path / "ra" / "acon.wts").exists()
    assert (tmp_path / "ra" / "traces" / "acon_trace.csv").exists()
    code = main(["evaluate", "--data", str(data), "--store", store,
                 "--mode", "acon"])
    assert code == 0
    assert capsys.readouterr().out.startswith("mode: ACON")


def test_store_env_fallback(tmp_path, monkeypatch):
    data = synth(tmp_path)
    monkeypatch.setenv("FACEMLP_STORE", store_arg(tmp_path, ("env1", "env2")))
    assert main(["train", "--data", str(data), *SPEED]) == 0
    assert (tmp_path / "env1" / "class_1.wts").exists()
    assert (tmp_path / "env2" / "class_2.wts").exists()


def test_train_with_worker_pool(tmp_path):
    data = synth(tmp_path)
    store = store_arg(tmp_path, ("pool",))
    assert run_train(tmp_path, data, store, "--workers", "2",
                     "--allocation", "largest_first") == 0
    assert (tmp_path / "pool" / "class_2.wts").exists()


def test_single_worker_train_has_no_queue_warning(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "5", "--train",
                 "4", "--test", "2", "--side", "8", "--seed", "3"]) == 0
    assert run_train(tmp_path, data, store_arg(tmp_path), "--workers",
                     "1") == 0
    assert "queue wait" not in capsys.readouterr().err


def test_full_scale_flags_accepted(tmp_path, capsys):
    data = synth(tmp_path)
    assert main(["train", "--data", str(data), "--store",
                 store_arg(tmp_path, ("s1",)), "--components", "6",
                 "--goal", "0.5", "--max-epochs", "700000"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--store",
                 store_arg(tmp_path, ("s2",)), "--components", "6",
                 "--goal", "1e-6", "--max-epochs", "3"]) == 0
    assert "goal not met" in capsys.readouterr().out


def test_invalid_learning_rate_is_config_error(tmp_path):
    data = synth(tmp_path)
    code = main(["train", "--data", str(data), "--store",
                 store_arg(tmp_path), *SPEED, "--lr", "-1"])
    assert code == 2


def test_downsample_mismatch_is_config_error(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    code = main(["train", "--data", str(data), "--store", store,
                 *SPEED, "--downsample", "2"])
    assert code == 2
    assert "downsample" in capsys.readouterr().err


def test_missing_manifest_is_fatal(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nowhere"),
                 "--store", store_arg(tmp_path), *SPEED])
    assert code == 1


def test_pipeline_reproduces_csv_bit_for_bit(tmp_path):
    reports = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        data = synth(base)
        store = store_arg(base)
        run_train(base, data, store)
        out = base / "report.csv"
        assert main(["evaluate", "--data", str(data), "--store", store,
                     "--format", "csv", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
