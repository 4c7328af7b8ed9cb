import pytest

from facemlp.errors import (
    ChecksumMismatch,
    FormatError,
    InvalidConfig,
    StoreError,
)
from facemlp.store import (
    WeightStore,
    frame,
    read_replicated,
    verify,
    write_replicated,
)

BODY = b"HEADER 1\n0.5 0.25\n"


def read_body(path):
    return verify(path.read_bytes(), path)


def test_frame_round_trip_and_checks():
    raw = frame(BODY)
    assert raw.startswith(BODY) and raw.endswith(b"\n")
    assert verify(raw, "x") == BODY
    with pytest.raises(FormatError):
        verify(BODY, "x")
    with pytest.raises(FormatError, match="malformed checksum trailer"):
        verify(BODY + b"CRC32 checksum\n", "x")
    with pytest.raises(ChecksumMismatch):
        verify(raw.replace(b"0.25", b"0.26"), "x")


def test_store_rejects_one_directory_listed_twice(tmp_path):
    # Two names for one directory would hold one copy, not two replicas.
    (tmp_path / "a").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "a")
    for alias in (tmp_path / "a", tmp_path / "x" / ".." / "a",
                  tmp_path / "link"):
        with pytest.raises(InvalidConfig):
            WeightStore((tmp_path / "a", tmp_path / "b", alias))
    assert len(WeightStore((tmp_path / "a", tmp_path / "b")).roots) == 2


def test_write_replicates_and_leaves_only_the_artifact(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    outcome = write_replicated(store, "art.txt", BODY)
    assert outcome.written == [tmp_path / "a" / "art.txt",
                               tmp_path / "b" / "art.txt"]
    for root in ("a", "b"):
        assert [p.name for p in (tmp_path / root).iterdir()] == ["art.txt"]
        assert (tmp_path / root / "art.txt").read_bytes() == frame(BODY)


def test_failed_replace_removes_its_temp_file(tmp_path):
    # a directory in the target's place makes os.replace fail after the
    # temp file was written
    (tmp_path / "a" / "art.txt").mkdir(parents=True)
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    outcome = write_replicated(store, "art.txt", BODY)
    assert outcome.written == [tmp_path / "b" / "art.txt"]
    assert len(outcome.errors) == 1
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["art.txt"]
    with pytest.raises(StoreError):
        write_replicated(WeightStore((tmp_path / "a",)), "art.txt", BODY)


def test_read_reports_each_skipped_replica(tmp_path):
    roots = [tmp_path / r for r in ("a", "b", "c", "d")]
    store = WeightStore(tuple(roots))
    write_replicated(store, "art.txt", BODY)
    (roots[0] / "art.txt").unlink()
    (roots[1] / "art.txt").write_bytes(frame(BODY).replace(b"0.5", b"0.6"))
    (roots[2] / "art.txt").write_bytes(BODY)
    skipped = []
    assert read_replicated(store, "art.txt", read_body,
                           lambda path, exc: skipped.append((path, exc))) \
        == BODY
    # the missing replica is passed over silently, the bad ones reported
    assert [path for path, _ in skipped] == [roots[1] / "art.txt",
                                             roots[2] / "art.txt"]
    assert isinstance(skipped[0][1], ChecksumMismatch)
    assert isinstance(skipped[1][1], FormatError)


def test_read_returns_none_when_no_replica_reads(tmp_path):
    store = WeightStore((tmp_path / "a", tmp_path / "b"))
    assert read_replicated(store, "art.txt", read_body) is None
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "art.txt").write_bytes(b"garbage")
    assert read_replicated(store, "art.txt", read_body) is None
