"""PCA feature extraction over training image vectors.

The d x d image covariance is never formed: with n training vectors the
n x n Gram matrix of centered vectors has the same nonzero eigenvalues,
and each of its eigenvectors maps to a covariance eigenvector ("eigenface")
through the data matrix. The Gram matrix is eigendecomposed by LAPACK's
symmetric solver through numpy.linalg.eigh.

Eigenvalues are stored on the 1/n covariance scale so persisted spaces are
reproducible regardless of how the caller normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FileError,
    FormatError,
    InsufficientData,
    NotSymmetric,
)

DEFAULT_COMPONENTS = 40
NEGLIGIBLE_EIGENVALUE = 1e-12


@dataclass(eq=False)
class Eigenspace:
    """Mean vector plus an orthonormal eigenvector basis.

    basis has shape (dim, m) with one unit-length eigenface per column,
    ordered by descending eigenvalue.
    """

    dim: int
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def components(self) -> int:
        return self.basis.shape[1]


def eig_symmetric(a: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a real symmetric matrix with LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as orthonormal columns, so that a == V diag(w) V^T within
    rounding. Tied eigenvalues keep LAPACK's relative order. tol must be
    positive; it is validated only, and kept for API compatibility.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric("input must be a square matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.shape[0] and np.max(np.abs(a - a.T)) > 1e-12:
        raise NotSymmetric("matrix is not symmetric within 1e-12")

    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def compute_eigenspace(train_vectors: list[np.ndarray] | np.ndarray,
                       m: int = DEFAULT_COMPONENTS,
                       tol: float = 1e-10) -> Eigenspace:
    """Build the eigenspace of a training set.

    Centers the vectors, eigendecomposes the n x n Gram matrix, and lifts
    each kept Gram eigenvector to a unit-length eigenface. Keeps
    min(m, n - 1) components, dropping any whose covariance eigenvalue is
    negligible (<= 1e-12). Each basis vector is flipped so its
    largest-magnitude entry is positive, making runs comparable.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in train_vectors]
    if len(vectors) < 2:
        raise InsufficientData("need at least 2 training vectors")
    d = vectors[0].shape[0]
    for v in vectors:
        if v.ndim != 1 or v.shape[0] != d:
            raise DimensionMismatch("training vectors differ in length")
    if m < 1:
        raise ValueError("m must be >= 1")

    n = len(vectors)
    data = np.vstack(vectors)           # (n, d)
    mean = data.mean(axis=0)
    centered = data - mean              # rows are centered vectors

    gram = centered @ centered.T        # (n, n)
    gram_values, gram_vectors = eig_symmetric(gram, tol)
    cov_values = np.maximum(gram_values / n, 0.0)

    keep = min(m, n - 1, int(np.sum(cov_values > NEGLIGIBLE_EIGENVALUE)))
    basis = np.empty((d, keep))
    for i in range(keep):
        face = centered.T @ gram_vectors[:, i]
        face /= np.linalg.norm(face)
        if face[np.argmax(np.abs(face))] < 0:
            face = -face
        basis[:, i] = face
    return Eigenspace(d, mean, basis, cov_values[:keep].copy())


def project(space: Eigenspace, v: np.ndarray) -> np.ndarray:
    """Project a raw vector to its coefficients in the eigenspace."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != space.dim:
        raise DimensionMismatch(f"expected length {space.dim}, got {v.shape}")
    return space.basis.T @ (v - space.mean)


def reconstruct(space: Eigenspace, coeffs: np.ndarray) -> np.ndarray:
    """Rebuild a vector from projection coefficients (mean + basis sum)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.shape[0] != space.components:
        raise DimensionMismatch(
            f"expected {space.components} coefficients, got {coeffs.shape}"
        )
    return space.mean + space.basis @ coeffs


def _format_row(values: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in values)


def save_eigenspace(space: Eigenspace, path: str | Path) -> None:
    """Write a space as text: header, mean, eigenvalues, basis columns."""
    lines = [f"EIGEN1 {space.dim} {space.components}", _format_row(space.mean),
             _format_row(space.eigenvalues)]
    for i in range(space.components):
        lines.append(_format_row(space.basis[:, i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_eigenspace(path: str | Path) -> Eigenspace:
    """Read a space written by save_eigenspace."""
    path = Path(path)
    try:
        tokens = path.read_text(encoding="ascii").split()
    except OSError as exc:
        raise FileError(f"cannot read eigenspace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an EIGEN1 file") from exc
    if len(tokens) < 3 or tokens[0] != "EIGEN1":
        raise FormatError(f"{path}: not an EIGEN1 file")
    try:
        d, m = int(tokens[1]), int(tokens[2])
        values = np.array([float(t) for t in tokens[3:]])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed numeric field") from exc
    if d < 1 or m < 1:
        raise FormatError(f"{path}: bad shape {d} x {m}")
    expected = d + m + m * d
    if values.shape[0] != expected:
        raise FormatError(
            f"{path}: expected {expected} values, found {values.shape[0]}"
        )
    mean = values[:d]
    eigenvalues = values[d : d + m]
    basis = values[d + m :].reshape(m, d).T.copy()
    return Eigenspace(d, mean, basis, eigenvalues)
