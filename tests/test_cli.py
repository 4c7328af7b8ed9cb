import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemlp.cli import main
from facemlp.errors import FacemlpError
from facemlp.imageio import GrayImage, serialize_pgm
from facemlp.store import frame, verify

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
    assert run_train(tmp_path, data, store, "--workers", "2") == 0
    assert (tmp_path / "pool" / "class_2.wts").exists()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_successful_train_writes_nothing_to_stderr(tmp_path, capsys, workers):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "5", "--train",
                 "4", "--test", "2", "--side", "8", "--seed", "3"]) == 0
    assert run_train(tmp_path, data, store_arg(tmp_path), "--workers",
                     workers) == 0
    assert capsys.readouterr().err == ""


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


# Each case is a flag, its value and any flags the case needs beside it.
BAD_TRAIN_FLAGS = [("--hidden", "0"), ("--downsample", "0"),
                   ("--components", "0"), ("--workers", "0"),
                   ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
                   ("--momentum", "1"), ("--goal", "nan"),
                   ("--goal", "inf")]
BAD_EVALUATE_FLAGS = [("--n-pos", "-1"), ("--n-neg", "-1"), ("--n-pos", "0"),
                      ("--threshold", "nan"), ("--threshold", "1.5"),
                      ("--threshold", "-1")]
BAD_FLAGS = ([("train", *f) for f in BAD_TRAIN_FLAGS]
             + [("evaluate", *f) for f in BAD_EVALUATE_FLAGS])


@pytest.mark.parametrize("case", BAD_FLAGS, ids="-".join)
def test_out_of_range_flag_is_config_error(trained, tmp_path, capsys, case):
    command, flag, value, *extra = case
    data, roots, _ = trained
    store = (store_arg(tmp_path) if command == "train"
             else ":".join(str(r) for r in roots))
    speed = SPEED if command == "train" else []
    # argparse keeps the last value, so the bad flag overrides SPEED's.
    code = main([command, "--data", str(data), "--store", store, *speed,
                 flag, value, *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.wts"))
    assert not list(tmp_path.rglob("eigenspace.txt"))


def test_rejected_train_does_not_pin_the_store(tmp_path, capsys):
    # A run rejected before training must leave the store free for a
    # corrected run with other --components.
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store, "--hidden", "0") == 2
    capsys.readouterr()
    assert run_train(tmp_path, data, store, "--components", "4") == 0
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ocon", "acon"])
def test_one_class_train_is_fatal_and_leaves_store_empty(tmp_path, mode):
    data = synth(tmp_path)
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if "\t1\t" in line))
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store, "--mode", mode) == 1
    assert not list(tmp_path.glob("r?/*"))


def test_downsample_mismatch_is_config_error(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    run_train(tmp_path, data, store)
    code = main(["train", "--data", str(data), "--store", store,
                 *SPEED, "--downsample", "2"])
    assert code == 2
    assert "downsample" in capsys.readouterr().err


def test_components_change_is_config_error(tmp_path, capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--store", store,
                 "--components", "4", "--goal", "1e-2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--components" in err and "--downsample" in err


def test_text_eigenspace_of_an_older_store_is_rebuilt_by_train(tmp_path,
                                                              capsys):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    built = (tmp_path / "ra" / "eigenspace.txt").read_bytes()
    for root in ("ra", "rb"):
        (tmp_path / root / "eigenspace.txt").write_bytes(
            frame(b"EIGEN1 3 1 0:1\n0 0 0\n1\n1 0 0\n"))
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--store", store]) == 1
    err = capsys.readouterr().err
    assert "EIGEN1" in err and "retrain" in err
    assert run_train(tmp_path, data, store) == 0
    assert "EIGEN1" in capsys.readouterr().err
    for root in ("ra", "rb"):
        assert (tmp_path / root / "eigenspace.txt").read_bytes() == built


def test_train_leaves_no_temp_files(tmp_path):
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    assert run_train(tmp_path, data, store, "--mode", "acon") == 0
    for root in ("ra", "rb"):
        names = {p.name for p in (tmp_path / root).iterdir() if p.is_file()}
        assert names == {"class_1.wts", "class_2.wts", "acon.wts",
                         "eigenspace.txt"}


def flip_byte(path: Path, pos: int, mask: int = 0x01) -> None:
    raw = bytearray(path.read_bytes())
    raw[pos % len(raw)] ^= mask
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage", ["flip", "delete"])
def test_train_restores_a_damaged_eigenspace_replica(tmp_path, capsys,
                                                      damage):
    # A later train writes the space it used to every root, so a replica
    # lost or damaged since the first train is mended, not left behind.
    data = synth(tmp_path)
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    replica = tmp_path / "ra" / "eigenspace.txt"
    if damage == "flip":
        flip_byte(replica, 40)
    else:
        replica.unlink()
    assert run_train(tmp_path, data, store, "--mode", "acon") == 0
    assert replica.read_bytes() \
        == (tmp_path / "rb" / "eigenspace.txt").read_bytes()
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("command, image", [
    ("train", "class01_train000.pgm"),
    ("evaluate", "class01_train000.pgm"),
    ("evaluate", "class02_test001.pgm"),
])
def test_image_of_another_size_is_one_error_naming_it(tmp_path, capsys,
                                                       command, image):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "3", "--train",
                 "4", "--test", "4", "--side", "8", "--seed", "1"]) == 0
    store = store_arg(tmp_path)
    assert run_train(tmp_path, data, store) == 0
    (data / image).write_bytes(
        serialize_pgm(GrayImage(9, 9, np.zeros(81, dtype=np.uint8))))
    capsys.readouterr()
    code = main([command, "--data", str(data), "--store", store,
                 *(SPEED if command == "train" else [])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert image in err and "9x9" in err and "8x8" in err


def evaluate_csv(data, roots, mode, out: Path) -> bytes:
    assert main(["evaluate", "--data", str(data), "--store",
                 ":".join(str(r) for r in roots), "--mode", mode,
                 "--format", "csv", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One OCON and one ACON training in a two-root store, plus the
    evaluate output of each mode with every replica intact."""
    base = tmp_path_factory.mktemp("trained")
    data = synth(base)
    store = store_arg(base)
    assert run_train(base, data, store) == 0
    assert run_train(base, data, store, "--mode", "acon") == 0
    roots = (base / "ra", base / "rb")
    intact = {mode: evaluate_csv(data, roots, mode, base / f"{mode}.csv")
              for mode in ("ocon", "acon")}
    return data, roots, intact


def test_evaluate_reports_a_corrupt_weight_replica(trained, tmp_path,
                                                   capsys):
    data, roots, intact = trained
    copies = [shutil.copytree(r, tmp_path / r.name) for r in roots]
    flip_byte(copies[0] / "class_1.wts", 40)
    capsys.readouterr()
    assert evaluate_csv(data, copies, "ocon",
                        tmp_path / "out.csv") == intact["ocon"]
    err = capsys.readouterr().err
    assert "warning:" in err and "class_1.wts" in err


def test_evaluate_ignores_an_edited_eigenspace_value(trained, tmp_path,
                                                     capsys):
    data, roots, intact = trained
    copies = [shutil.copytree(r, tmp_path / r.name) for r in roots]
    victim = copies[0] / "eigenspace.txt"
    lines = victim.read_bytes().split(b"\n")
    values = lines[1].split(b" ")
    values[0] = b"0.5" if values[0] != b"0.5" else b"0.25"
    lines[1] = b" ".join(values)
    victim.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert evaluate_csv(data, copies, "ocon",
                        tmp_path / "out.csv") == intact["ocon"]
    assert "eigenspace.txt" in capsys.readouterr().err


def test_evaluate_fails_over_a_flipped_bit_of_an_eigenspace_value(
        trained, tmp_path, capsys):
    # The body keeps its length and decodes, so only the checksum can
    # tell this replica from an intact one.
    data, roots, intact = trained
    copies = [shutil.copytree(r, tmp_path / r.name) for r in roots]
    victim = copies[0] / "eigenspace.txt"
    flip_byte(victim, victim.read_bytes().index(b"\n") + 1)
    capsys.readouterr()
    assert evaluate_csv(data, copies, "ocon",
                        tmp_path / "out.csv") == intact["ocon"]
    err = capsys.readouterr().err
    assert "eigenspace.txt" in err and "checksum" in err


ARTIFACTS = {"class_1.wts": "ocon", "class_2.wts": "ocon",
             "eigenspace.txt": "ocon", "acon.wts": "acon"}


def still_verifies(raw: bytes, original: bytes) -> bool:
    try:
        return verify(raw, "replica") == verify(original, "replica")
    except FacemlpError:
        return False


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ARTIFACTS)), root=st.sampled_from([0, 1]),
       pos=st.integers(min_value=0, max_value=10**6),
       mask=st.integers(min_value=1, max_value=255))
def test_any_single_byte_mutation_keeps_evaluate_output(trained, name, root,
                                                        pos, mask):
    data, roots, intact = trained
    with tempfile.TemporaryDirectory() as tmp:
        copies = [shutil.copytree(r, Path(tmp) / r.name) for r in roots]
        victim = copies[root] / name
        original = victim.read_bytes()
        flip_byte(victim, pos, mask)
        mode = ARTIFACTS[name]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            out = evaluate_csv(data, copies, mode, Path(tmp) / "out.csv")
        assert out == intact[mode]
        # the first root is read first: a replica the mutation broke there
        # is reported by name
        if root == 0 and not still_verifies(victim.read_bytes(), original):
            assert name in err.getvalue()


def test_evaluate_rejects_an_eigenspace_of_other_inputs(tmp_path, capsys):
    # Root a was trained on one data set and root b on another; once a's
    # space is corrupt, evaluate must not project through b's space.
    ours = synth(tmp_path, "ours")
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), *DATASET[:-1], "4"]) == 0
    assert run_train(tmp_path, ours, str(tmp_path / "a")) == 0
    assert run_train(tmp_path, other, str(tmp_path / "b")) == 0
    flip_byte(tmp_path / "a" / "eigenspace.txt", 100)
    capsys.readouterr()
    code = main(["evaluate", "--data", str(ours),
                 "--store", store_arg(tmp_path, ("a", "b"))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: stored eigenspace was built from other inputs" \
        in captured.err


@pytest.mark.parametrize("mode", ["ocon", "acon"])
@pytest.mark.parametrize("blocked", ["first-root", "traces-dir"])
def test_unwritable_traces_warn_after_every_net_is_stored(tmp_path, capsys,
                                                          mode, blocked):
    data = synth(tmp_path)
    blocker = tmp_path / "notadir"
    blocker.write_text("a regular file\n")
    extra = ["--mode", mode]
    if blocked == "traces-dir":
        extra += ["--traces-dir", str(blocker / "traces")]
        store = store_arg(tmp_path, ("good",))
    else:
        store = store_arg(tmp_path, ("notadir", "good"))
    assert run_train(tmp_path, data, store, *extra) == 0
    names = ["acon.wts"] if mode == "acon" else ["class_1.wts",
                                                 "class_2.wts"]
    for name in names:
        assert (tmp_path / "good" / name).is_file()
    err = capsys.readouterr().err
    assert "warning: cannot write trace" in err
    assert "Traceback" not in err


def test_evaluate_report_to_a_missing_directory_is_one_error(trained,
                                                             tmp_path,
                                                             capsys):
    data, roots, _ = trained
    capsys.readouterr()
    code = main(["evaluate", "--data", str(data), "--store",
                 ":".join(str(r) for r in roots),
                 "--out", str(tmp_path / "missing" / "r.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write report")
    assert err.count("\n") == 1


def test_synth_manifest_that_cannot_be_written_is_one_error(tmp_path,
                                                            capsys):
    out = tmp_path / "data"
    (out / "manifest.tsv").mkdir(parents=True)
    code = main(["synth", "--out", str(out), *DATASET])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write")
    assert err.count("\n") == 1


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
