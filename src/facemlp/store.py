"""Replicated, checksummed artifact files.

Every stored artifact (a class net, the all-classes net, the eigenspace)
is a body ending in a newline (text for weights, an ASCII header over raw
float64 for the eigenspace) plus one trailer line, `CRC32 <hex>`, the
CRC32 of the body. This module owns that framing, the one write that
puts a framed body in every root of a store, and the one read that fails
over between the replicas. Each artifact keeps only its body's codec.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    ChecksumMismatch,
    FacemlpError,
    FormatError,
    InvalidConfig,
    StoreError,
)


@dataclass(frozen=True)
class WeightStore:
    """Ordered list of replica directories, at least one and no two that
    resolve to the same directory (two names for one directory would
    count one copy twice)."""

    roots: tuple[Path, ...]

    def __post_init__(self):
        roots = tuple(Path(r) for r in self.roots)
        if not roots:
            raise InvalidConfig("store needs at least one root")
        if len({os.path.realpath(r) for r in roots}) < len(roots):
            raise InvalidConfig("store lists one directory as two roots")
        object.__setattr__(self, "roots", roots)


@dataclass(eq=False)
class PersistOutcome:
    written: list[Path] = field(default_factory=list)
    errors: list[StoreError] = field(default_factory=list)


def frame(body: bytes) -> bytes:
    """Append the CRC32 trailer line to a body that ends in a newline."""
    return body + f"CRC32 {zlib.crc32(body):08x}\n".encode("ascii")


def verify(raw: bytes, path: str | Path) -> bytes:
    """Check a framed file's trailer and return the body before it."""
    marker = raw.rfind(b"CRC32 ")
    if marker <= 0 or raw[marker - 1 : marker] != b"\n":
        raise FormatError(f"{path}: missing checksum trailer")
    body = raw[:marker]
    try:
        stated = int(raw[marker + 6 :].split()[0], 16)
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed checksum trailer") from exc
    if zlib.crc32(body) != stated:
        raise ChecksumMismatch(f"{path}: payload does not match checksum")
    return body


def write_replicated(store: WeightStore, filename: str,
                     body: bytes) -> PersistOutcome:
    """Frame body once and write it as filename in every root.

    Each replica goes to a temp file in its root and is renamed over the
    target with os.replace, so a reader sees the old replica or the new
    one, never a partial write. Roots that cannot be written are reported
    as StoreErrors in the outcome. Raises only when no root took the data.
    """
    payload = frame(body)
    outcome = PersistOutcome()
    for root in store.roots:
        target = root / filename
        tmp = root / f".{filename}.{os.getpid()}.tmp"
        try:
            root.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, target)
            outcome.written.append(target)
        except OSError as exc:
            if tmp.exists():
                tmp.unlink()
            outcome.errors.append(StoreError(f"{root}: {exc}"))
    if not outcome.written:
        raise StoreError(
            f"no replica written for {filename}: "
            + "; ".join(str(e) for e in outcome.errors)
        )
    return outcome


def read_each(store: WeightStore, filename: str, read: Callable,
              on_skip: Callable | None = None):
    """Yield (root, replica) for each root in order: filename in that
    root as read decodes it, or None when it has no usable one.

    read(path) reads one replica, verifies its trailer and decodes it,
    raising OSError or a FacemlpError when it cannot. A root without the
    file yields None silently, as a fresh store has none; every other
    replica passed over is reported as on_skip(path, exception).
    """
    for root in store.roots:
        path = root / filename
        replica = None
        if path.exists():
            try:
                replica = read(path)
            except (OSError, FacemlpError) as exc:
                if on_skip is not None:
                    on_skip(path, exc)
        yield root, replica


def read_replicated(store: WeightStore, filename: str, read: Callable,
                    on_skip: Callable | None = None):
    """The first replica of filename, in root order, that read accepts,
    as read_each reads them; no later root is read. Returns None when no
    root holds a usable replica.
    """
    return next((replica for _, replica
                 in read_each(store, filename, read, on_skip)
                 if replica is not None), None)
