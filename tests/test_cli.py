import contextlib
import errno
import io
import os
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemlp import parallel
from facemlp.cli import build_parser, main
from facemlp.errors import FacemlpError
from facemlp.evaluator import Protocol
from facemlp.imageio import GrayImage, Sample, serialize_pgm, write_dataset
from facemlp.mlp import TrainingConfig
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


def test_empty_store_flag_is_config_error(tmp_path, monkeypatch, capsys):
    # An empty --store names no root; it must not fall back to the env
    # root or to ./weights.
    data = synth(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FACEMLP_STORE", str(tmp_path / "env"))
    code, out, err = run_main(capsys, "train", "--data", str(data),
                              "--store", "", *SPEED)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert not (tmp_path / "env").exists()
    assert not (tmp_path / "weights").exists()


@pytest.mark.parametrize("names", [("ra", "ra"), ("ra", "x/../ra")],
                         ids=["repeated", "aliased"])
def test_store_listing_a_root_twice_is_config_error(tmp_path, capsys, names):
    # One directory holds one copy; counted as two replicas, losing it
    # would lose both.
    data = synth(tmp_path)
    code, out, err = run_main(capsys, "train", "--data", str(data),
                              "--store", store_arg(tmp_path, names), *SPEED)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: store ")
    assert not (tmp_path / "ra").exists()


@pytest.mark.parametrize("flag, value", [("--out", ""), ("--seed", "-1")])
def test_synth_bad_flag_is_config_error(tmp_path, monkeypatch, capsys, flag,
                                        value):
    # An empty --out must not mean the current directory.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, "synth", "--out", "data", *DATASET,
                              flag, value)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert not list(tmp_path.iterdir())


# Each case is a synth flag and a value below its minimum.
BAD_SYNTH_FLAGS = [("--classes", "1"), ("--train", "0"), ("--test", "0"),
                   ("--side", "3"), ("--seed", "-1")]


@pytest.mark.parametrize("flag, value", BAD_SYNTH_FLAGS)
def test_synth_out_of_range_flag_names_it(tmp_path, capsys, flag, value):
    code, out, err = run_main(capsys, "synth", "--out",
                              str(tmp_path / "data"), *DATASET, flag, value)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: {flag} ")
    assert line.endswith(f", got {value}")
    assert not (tmp_path / "data").exists()


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
                   ("--goal", "inf"), ("--goal", "0"), ("--max-epochs", "0"),
                   ("--seed", "-1"), ("--data", ""), ("--traces-dir", "")]
BAD_EVALUATE_FLAGS = [("--n-pos", "-1"), ("--n-neg", "-1"), ("--n-pos", "0"),
                      ("--threshold", "nan"), ("--threshold", "1.5"),
                      ("--threshold", "-1"), ("--downsample", "0"),
                      ("--protocol-seed", "-1"), ("--data", ""), ("--out", "")]
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


@pytest.mark.parametrize("case", BAD_FLAGS, ids="-".join)
def test_out_of_range_flag_is_config_error_without_data(tmp_path, capsys,
                                                        case):
    # A bad flag is reported before any file is read, so a missing --data
    # cannot turn it into a fatal error, and the line names it as typed.
    command, flag, value, *extra = case
    code = main([command, "--data", str(tmp_path / "missing"), "--store",
                 store_arg(tmp_path), flag, value, *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")


def test_parser_defaults_are_the_library_defaults():
    # The flags shared with a library config default to its fields; only
    # --goal and --max-epochs keep their desk-scale defaults.
    train = build_parser().parse_args(["train", "--data", "d"])
    assert (train.goal, train.max_epochs) == (1e-3, 20000)
    assert TrainingConfig(train.lr, train.momentum, train.goal,
                          train.max_epochs, train.seed) \
        == TrainingConfig(goal=train.goal, max_epochs=train.max_epochs)
    assert parallel.PoolConfig(train.workers) == parallel.PoolConfig()
    ev = build_parser().parse_args(["evaluate", "--data", "d"])
    assert Protocol(ev.n_pos, ev.n_neg, ev.threshold, ev.protocol_seed) \
        == Protocol()


@pytest.mark.parametrize("mode", ["ocon", "acon"])
def test_train_on_images_without_variance_is_fatal(tmp_path, capsys, mode):
    # Two classes of one and the same 8x8 image leave no eigenface to
    # project on: one error line, exit 1, nothing written.
    image = GrayImage(8, 8, np.full(64, 100, dtype=np.uint8))
    write_dataset([Sample(image, cid, role) for cid in (1, 2)
                   for role in ("train", "train", "test")], tmp_path / "data")
    code, out, err = run_main(capsys, "train", "--data", str(tmp_path / "data"),
                              "--store", store_arg(tmp_path), "--mode", mode,
                              *SPEED)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "no variance" in line
    assert not list(tmp_path.glob("r?"))


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


def repeat_a_class_id(path: Path) -> None:
    """Rewrite an ACON replica's header to list its first class id twice,
    recomputing the checksum so that only the header is wrong."""
    lines = verify(path.read_bytes(), path).split(b"\n")
    ids = lines[0].split()[1:]
    lines[0] = b" ".join([b"ACONW1", ids[0], *ids[:-1]])
    path.write_bytes(frame(b"\n".join(lines)))


def test_evaluate_fails_over_an_acon_header_that_repeats_a_class_id(
        trained, tmp_path, capsys):
    data, roots, intact = trained
    copies = [shutil.copytree(r, tmp_path / r.name) for r in roots]
    repeat_a_class_id(copies[0] / "acon.wts")
    capsys.readouterr()
    assert evaluate_csv(data, copies, "acon",
                        tmp_path / "out.csv") == intact["acon"]
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("warning:") and "acon.wts" in line
    assert "repeats a class id" in line

    repeat_a_class_id(copies[1] / "acon.wts")
    assert main(["evaluate", "--data", str(data), "--store",
                 ":".join(str(r) for r in copies), "--mode", "acon"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("warning:") == 2
    assert captured.err.splitlines()[-1].startswith("error: ")


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


# Each replica donor of damage: the synth flags of its data and the extra
# train flags of its build.
BUILDS = {"another-build": ([*DATASET[:-1], "4"], []),
          "another-width": (DATASET, ["--components", "4"]),
          "another-classes": (["--classes", "3", *DATASET[2:]], [])}


def damage(path: Path, how: str) -> None:
    """Break one artifact or data file: remove it, put a directory in its
    place, cut it to half its length, put bytes that are not UTF-8 at its
    start, set one value to NaN with the checksum recomputed, so that only
    the value is wrong, or put in its place the replica of another build
    (BUILDS): of other data, with its root's eigenspace too; of this data
    at --components 4, a net of another input width; or of a 3-class data
    set, an ACON net of other classes."""
    raw = path.read_bytes()
    if how in BUILDS:
        base = path.parent.parent
        mode = "acon" if path.name == "acon.wts" else "ocon"
        build = base / f"{how}-{mode}"
        if not build.exists():
            flags, extra = BUILDS[how]
            data = base / f"{how}-{mode}-data"
            assert main(["synth", "--out", str(data), *flags]) == 0
            assert run_train(base, data, str(build), "--mode", mode,
                             *extra) == 0
        shutil.copyfile(build / path.name, path)
        if how == "another-build":
            shutil.copyfile(build / "eigenspace.txt",
                            path.parent / "eigenspace.txt")
    elif how == "missing":
        path.unlink()
    elif how == "directory":
        path.unlink()
        path.mkdir()
    elif how == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif how == "binary":
        path.write_bytes(b"\xff\xfe" + raw)
    elif path.name == "eigenspace.txt":        # its last basis value
        body = verify(raw, path)
        path.write_bytes(frame(body[:-9] + np.float64(np.nan).tobytes()
                               + b"\n"))
    else:                                       # its first weight
        lines = verify(raw, path).split(b"\n")
        lines[2] = b" ".join([b"nan", *lines[2].split()[1:]])
        path.write_bytes(frame(b"\n".join(lines)))


def run_main(capsys, *argv):
    """main's exit code, stdout and stderr; an exception escaping main
    fails the test."""
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# Each store case: an artifact, the mode that reads it, what happens to
# it, and in how many roots.
STORE_FAULTS = [(name, mode, how, roots)
                for name, mode in [("eigenspace.txt", "ocon"),
                                   ("class_1.wts", "ocon"),
                                   ("acon.wts", "acon")]
                for how in ["missing", "directory", "truncated", "nan"]
                for roots in ["first", "both"]] + [
    # A root of another build is left out. With every root of another
    # build, no space of the data is stored: that exits 2, as
    # test_evaluate_rejects_an_eigenspace_of_other_inputs checks.
    ("class_1.wts", "ocon", "another-build", "first"),
    ("acon.wts", "acon", "another-build", "first")] + [
    # A net beside this data's space that takes another input width, or
    # scores other classes, is passed over like a corrupt one.
    (name, mode, how, roots)
    for name, mode, how in [("class_1.wts", "ocon", "another-width"),
                            ("acon.wts", "acon", "another-width"),
                            ("acon.wts", "acon", "another-classes")]
    for roots in ["first", "both"]]

# The line that says an artifact is in no root.
UNAVAILABLE = {
    "eigenspace.txt": "error: no valid eigenspace.txt in any store root",
    "class_1.wts": "warning: no valid replica for class 1",
    "acon.wts": "error: no valid replica of acon.wts in any root"}


@pytest.mark.parametrize("name, mode, how, roots", STORE_FAULTS)
def test_store_fault_matrix(trained, tmp_path, capsys, name, mode, how,
                            roots):
    # One damaged replica changes no output byte. With every replica
    # damaged the run exits 1, or 3 when one class's weights are gone,
    # and says so in exactly one error: line. Each damaged replica that
    # is present is named in one warning: skipped replica line.
    data, intact_roots, _ = trained
    args = ["evaluate", "--data", str(data), "--mode", mode, "--store"]
    _, intact, _ = run_main(capsys, *args,
                            ":".join(str(r) for r in intact_roots))
    copies = [shutil.copytree(r, tmp_path / r.name) for r in intact_roots]
    damaged = copies[: 1 if roots == "first" else 2]
    for root in damaged:
        damage(root / name, how)
    code, out, err = run_main(capsys, *args,
                              ":".join(str(r) for r in copies))
    skipped = [line for line in err.splitlines()
               if line.startswith("warning: skipped replica ")]
    present = [] if how in ("missing", "another-build") else damaged
    assert len(skipped) == len(present)
    for line, root in zip(skipped, present):
        assert line.startswith(f"warning: skipped replica {root / name}: ")
    if roots == "first":
        assert (code, out) == (0, intact)
        assert "error:" not in err
        return
    assert code == (3 if name == "class_1.wts" else 1)
    assert sum("error:" in line for line in (out + err).splitlines()) == 1
    assert UNAVAILABLE[name] in err.splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("victim, how", [
    ("manifest.tsv", "missing"), ("manifest.tsv", "directory"),
    ("manifest.tsv", "binary"),
    ("class01_train000.pgm", "missing"),
    ("class01_train000.pgm", "directory"),
    ("class01_train000.pgm", "truncated")])
def test_dataset_fault_matrix(trained, tmp_path, capsys, command, victim,
                              how):
    data, roots, _ = trained
    copy = shutil.copytree(data, tmp_path / "data")
    damage(copy / victim, how)
    store = ":".join(str(r) for r in roots) if command == "evaluate" \
        else store_arg(tmp_path, ("fresh",))
    code, out, err = run_main(capsys, command, "--data", str(copy),
                              "--store", store,
                              *(SPEED if command == "train" else []))
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert str(copy / victim) in line
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("edit, reason", [
    (lambda lines: [], "lists no training images"),
    (lambda lines: ["# no records", "", "#" + lines[0]],
     "lists no training images"),
    (lambda lines: [line for line in lines if line.endswith("\ttest")],
     "has no train records")], ids=["empty", "comments_only", "test_only"])
def test_a_manifest_without_training_images_is_one_error(
        trained, tmp_path, capsys, command, edit, reason):
    # load_manifest alone judges the records: whatever else the manifest
    # lists, no training image is a data fault in both commands.
    data, roots, _ = trained
    copy = shutil.copytree(data, tmp_path / "data")
    manifest = copy / "manifest.tsv"
    lines = edit(manifest.read_text().splitlines())
    manifest.write_text("".join(f"{line}\n" for line in lines))
    store = ":".join(str(r) for r in roots) if command == "evaluate" \
        else store_arg(tmp_path, ("fresh",))
    code, out, err = run_main(capsys, command, "--data", str(copy),
                              "--store", store,
                              *(SPEED if command == "train" else []))
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and reason in line
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_downsample_beyond_an_image_names_the_flag(tmp_path, capsys,
                                                   command):
    # A factor larger than a 4x4 image is the flag's fault: exit 2, one
    # line naming the flag, its value and the first image it exceeds.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "2", "--train",
                 "2", "--test", "1", "--side", "4"]) == 0
    code, out, err = run_main(capsys, command, "--data", str(data),
                              "--store", store_arg(tmp_path),
                              "--downsample", "5")
    assert (code, out) == (2, "")
    assert err == (f"error: --downsample 5 exceeds "
                   f"{data / 'class01_train000.pgm'}, a 4x4 image\n")
    assert not list(tmp_path.glob("r?"))


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_image_given_as_the_manifest_is_one_error(trained, tmp_path,
                                                     capsys, command):
    data, roots, _ = trained
    image = data / "class01_train000.pgm"
    store = ":".join(str(r) for r in roots) if command == "evaluate" \
        else store_arg(tmp_path, ("fresh",))
    code, out, err = run_main(capsys, command, "--data", str(image),
                              "--store", store)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot read manifest {image}: ")
    assert not (tmp_path / "fresh").exists()


def test_evaluate_ocon_without_any_class_weights_is_fatal(trained, tmp_path,
                                                         capsys):
    # Only acon.wts is stored: no class is left to score, so this is no
    # partial failure (exit 3) but the run's, as for a missing acon.wts.
    data, roots, _ = trained
    copies = [shutil.copytree(r, tmp_path / r.name) for r in roots]
    for root in copies:
        for path in root.glob("class_*.wts"):
            path.unlink()
    code, out, err = run_main(capsys, "evaluate", "--data", str(data),
                              "--store", ":".join(str(r) for r in copies))
    assert (code, out) == (1, "")
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_train_stores_this_process_nets_when_a_worker_dies(tmp_path, capsys,
                                                           monkeypatch):
    # At 2 workers, classes 1 and 3 train in a forked process and class 2
    # in this one. The fork dies: its classes fail (exit 3), class 2 is
    # stored as a clean run stores it, and no traceback escapes.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "3",
                 *DATASET[2:]]) == 0
    assert run_train(tmp_path, data, store_arg(tmp_path, ("clean",))) == 0
    parent, real = os.getpid(), parallel.train_group

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(parallel, "train_group", dying)
    code, out, err = run_main(capsys, "train", "--data", str(data),
                              "--store", store_arg(tmp_path), *SPEED,
                              "--workers", "2")
    assert code == 3
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()
            if "training failed" in line] == ["class 1", "class 3"]
    assert out.startswith("class 2: ")
    for root in ("ra", "rb"):
        assert sorted(p.name for p in (tmp_path / root).glob("*.wts")) \
            == ["class_2.wts"]
        for name in ("class_2.wts", "eigenspace.txt"):
            assert (tmp_path / root / name).read_bytes() \
                == (tmp_path / "clean" / name).read_bytes()


def test_train_stores_this_process_nets_when_a_fork_fails(tmp_path, capsys,
                                                          monkeypatch):
    # At 2 workers class 1 was to train in a forked process and class 2 in
    # this one. The fork raises: class 1 fails (exit 3), class 2 is
    # stored, and no traceback escapes.
    data = synth(tmp_path)

    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    code, out, err = run_main(capsys, "train", "--data", str(data),
                              "--store", store_arg(tmp_path), *SPEED,
                              "--workers", "2")
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines() == [f"class 1: training failed: [Errno "
                                f"{errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"]
    assert out.startswith("class 2: ")
    assert sorted(p.name for p in (tmp_path / "ra").glob("*.wts")) \
        == ["class_2.wts"]


def test_train_in_which_no_net_trains_writes_nothing(tmp_path, capsys,
                                                     monkeypatch):
    # Each class's failure is named, then one error line; the store root
    # is not even created, so a fresh store stays empty.
    data = synth(tmp_path)

    def failing(*args):
        raise MemoryError("no room for the stack")

    monkeypatch.setattr(parallel, "train_group", failing)
    code, out, err = run_main(capsys, "train", "--data", str(data),
                              "--store", store_arg(tmp_path), *SPEED)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "class 1: training failed: no room for the stack",
        "class 2: training failed: no room for the stack",
        "error: no network trained; nothing was stored"]
    assert not (tmp_path / "ra").exists() and not (tmp_path / "rb").exists()


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


@pytest.mark.parametrize("first_m", ["6", "40"])
def test_evaluate_keeps_the_first_root_of_two_spaces_of_this_data(
        tmp_path, capsys, monkeypatch, first_m):
    # Roots a and b hold spaces of this data at two m's, so neither is of
    # other inputs: evaluate CRCs the training matrix once, takes a's
    # space and leaves b out. m = 40 asks for more components than the 8
    # training vectors give (7 kept); a space keeps the m it was asked for.
    data = synth(tmp_path)
    for root, m in (("a", first_m), ("b", "4")):
        assert run_train(tmp_path, data, str(tmp_path / root),
                         "--components", m) == 0
    _, alone, _ = run_main(capsys, "evaluate", "--data", str(data),
                           "--store", str(tmp_path / "a"))
    matrices, crc32 = [], zlib.crc32

    def counting(buffer, *start):
        if isinstance(buffer, np.ndarray):
            matrices.append(buffer.shape)
        return crc32(buffer, *start)

    monkeypatch.setattr(zlib, "crc32", counting)
    code, out, err = run_main(capsys, "evaluate", "--data", str(data),
                              "--store", store_arg(tmp_path, ("a", "b")))
    assert (code, out) == (0, alone)
    assert matrices == [(8, 64)]
    header = (tmp_path / "a" / "eigenspace.txt").read_bytes().split(b"\n")[0]
    assert err.splitlines() == [
        f"warning: left out root {tmp_path / 'b'}: it holds no valid "
        f"eigenspace.txt of fingerprint {header.split()[3].decode()}"]


def two_builds(tmp_path) -> Path:
    """Root a trained on one 5-class data set and root b on another, each
    at 20 components; returns a's data set."""
    for seed, root in (("2", "a"), ("1", "b")):
        data = tmp_path / f"data{seed}"
        assert main(["synth", "--out", str(data), "--classes", "5",
                     "--train", "10", "--test", "10", "--seed", seed]) == 0
        assert main(["train", "--data", str(data), "--store",
                     str(tmp_path / root), "--components", "20"]) == 0
    return tmp_path / "data2"


def test_evaluate_reads_no_weights_of_a_root_of_another_space(tmp_path,
                                                              capsys):
    # b's class files were trained on b's own space: once a's class 3 is
    # corrupt, evaluate must not score b's class 3 through a's space.
    data = two_builds(tmp_path)
    flip_byte(tmp_path / "a" / "class_3.wts", 40)
    code, out, err = run_main(capsys, "evaluate", "--data", str(data),
                              "--store", store_arg(tmp_path, ("a", "b")))
    assert code == 3
    rows = {line.split()[0]: line for line in out.splitlines()[2:7]}
    assert rows["3"].endswith("error: weights unavailable")
    assert all(rows[c].endswith(" 100%") for c in "1245")
    assert f"left out root {tmp_path / 'b'}:" in err


def test_train_refuses_a_store_holding_another_space(tmp_path, capsys):
    # Writing this run's space to b would vouch for b's class files, which
    # were trained on b's own space.
    data = two_builds(tmp_path)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, out, err = run_main(capsys, "train", "--mode", "acon", "--data",
                              str(data), "--store",
                              store_arg(tmp_path, ("a", "b")),
                              "--components", "20")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(tmp_path / "b") in line
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == files


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
