"""PCA feature extraction over training image vectors.

The d x d image covariance is never formed: with n training vectors the
n x n Gram matrix of centered vectors has the same nonzero eigenvalues,
and each of its eigenvectors maps to a covariance eigenvector ("eigenface")
through the data matrix. The Gram matrix is eigendecomposed by LAPACK's
symmetric solver through numpy.linalg.eigh.

Eigenvalues are stored on the 1/n covariance scale so persisted spaces are
reproducible regardless of how the caller normalizes. A space carries the
fingerprint of the inputs it was built from, so a stored space is reused
only for the same training matrix and requested component count. Its
file is an ASCII header line over raw little-endian float64 values,
framed and replicated by facemlp.store like the weight files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FileError,
    FormatError,
    InsufficientData,
    InvalidConfig,
)
from .store import WeightStore, verify, write_replicated

DEFAULT_COMPONENTS = 40
EIGENSPACE_FILENAME = "eigenspace.txt"
_MAGIC = "EIGEN2"
NEGLIGIBLE_EIGENVALUE = 1e-12


@dataclass(eq=False)
class Eigenspace:
    """Mean vector plus an orthonormal eigenvector basis.

    mean has one entry per image pixel, so its length is the space's
    dim. basis has shape (dim, m) with one unit-length eigenface per
    column, ordered by descending eigenvalue. fingerprint is fingerprint()
    of the training matrix and the requested m the space was built from.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    fingerprint: str

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def components(self) -> int:
        return self.basis.shape[1]


def eig_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a real symmetric matrix with LAPACK (numpy.linalg.eigh,
    which reads only the lower triangle).

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as orthonormal columns, so that a == V diag(w) V^T within
    rounding. Tied eigenvalues keep LAPACK's relative order.
    """
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def fingerprint(train_vectors, m: int) -> str:
    """Identify an eigenspace build: the CRC32 of the float64 training
    matrix, one row per vector, and the requested m."""
    return f"{zlib.crc32(_matrix(train_vectors)):08x}:{m}"


def _matrix(train_vectors) -> np.ndarray:
    """The vectors as the rows of one C-ordered float64 matrix."""
    if len({np.shape(v) for v in train_vectors}) > 1:
        raise DimensionMismatch("training vectors differ in length")
    return np.ascontiguousarray(train_vectors, dtype=np.float64)


def compute_eigenspace(train_vectors: list[np.ndarray] | np.ndarray,
                       m: int = DEFAULT_COMPONENTS) -> Eigenspace:
    """Build the eigenspace of a training set.

    Centers the vectors, eigendecomposes the n x n Gram matrix, and lifts
    each kept Gram eigenvector to a unit-length eigenface. Keeps
    min(m, n - 1) components, dropping any whose covariance eigenvalue is
    negligible (<= 1e-12); raises InsufficientData when that drops them
    all, as for identical vectors, which have no variance to project on.
    Each basis vector is flipped so its largest-magnitude entry is
    positive, making runs comparable.
    """
    if len(train_vectors) < 2:
        raise InsufficientData("need at least 2 training vectors")
    if m < 1:
        raise InvalidConfig("m must be >= 1")
    data = _matrix(train_vectors)       # (n, d); rejects unequal lengths
    built_from = fingerprint(data, m)   # reads data in place

    n, d = data.shape
    mean = data.mean(axis=0)
    centered = data - mean              # rows are centered vectors

    gram = centered @ centered.T        # (n, n)
    gram_values, gram_vectors = eig_symmetric(gram)
    cov_values = np.maximum(gram_values / n, 0.0)

    keep = min(m, n - 1, int(np.sum(cov_values > NEGLIGIBLE_EIGENVALUE)))
    if not keep:
        raise InsufficientData("training vectors have no variance: every "
                               f"covariance eigenvalue is <= {NEGLIGIBLE_EIGENVALUE:g}")
    basis = np.empty((d, keep))
    for i in range(keep):
        face = centered.T @ gram_vectors[:, i]
        face /= np.linalg.norm(face)
        if face[np.argmax(np.abs(face))] < 0:
            face = -face
        basis[:, i] = face
    return Eigenspace(mean, basis, cov_values[:keep].copy(), built_from)


def project(space: Eigenspace, v: np.ndarray) -> np.ndarray:
    """Project a raw vector to its coefficients in the eigenspace."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != space.dim:
        raise DimensionMismatch(f"expected length {space.dim}, got {v.shape}")
    return space.basis.T @ (v - space.mean)


def encode_eigenspace(space: Eigenspace) -> bytes:
    """The body of an eigenspace file: an ASCII header line with the shape
    and fingerprint, then the mean, the eigenvalues and each basis column
    as raw little-endian float64 (exact by construction), then a newline."""
    header = f"{_MAGIC} {space.dim} {space.components} {space.fingerprint}\n"
    values = np.concatenate([space.mean, space.eigenvalues,
                             space.basis.T.ravel()])
    return header.encode("ascii") + values.astype("<f8").tobytes() + b"\n"


def save_eigenspace(space: Eigenspace, path: str | Path) -> None:
    """Write a space to one file, with the store's checksum trailer."""
    path = Path(path)
    write_replicated(WeightStore((path.parent,)), path.name,
                     encode_eigenspace(space))


def load_eigenspace(path: str | Path, raw: bytes | None = None) -> Eigenspace:
    """Read and checksum-validate a space written by encode_eigenspace;
    the body must hold exactly d + m + m*d finite values and its final
    newline. raw, if given, is the file's bytes, already read."""
    path = Path(path)
    try:
        raw = path.read_bytes() if raw is None else raw
    except OSError as exc:
        raise FileError(f"cannot read eigenspace {path}: {exc}") from exc
    header, _, body = verify(raw, path).partition(b"\n")
    try:
        fields = header.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an {_MAGIC} file") from exc
    if fields[:1] == ["EIGEN1"]:
        raise FormatError(f"{path}: old EIGEN1 text eigenspace; retrain")
    if len(fields) != 4 or fields[0] != _MAGIC:
        raise FormatError(f"{path}: not an {_MAGIC} file")
    try:
        d, m = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed numeric field") from exc
    if d < 1 or m < 1:
        raise FormatError(f"{path}: bad shape {d} x {m}")
    count = d + m + m * d
    if len(body) != 8 * count + 1 or body[-1:] != b"\n":
        raise FormatError(f"{path}: expected {count} values and a newline "
                          f"({8 * count + 1} bytes), found {len(body)} bytes")
    values = np.frombuffer(body, dtype="<f8", count=count).astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value")
    basis = values[d + m :].reshape(m, d).T.copy()
    return Eigenspace(values[:d], basis, values[d : d + m], fields[3])
