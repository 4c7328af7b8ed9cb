import numpy as np
import pytest

from facemlp.eigenspace import (
    Eigenspace,
    compute_eigenspace,
    eig_symmetric,
    load_eigenspace,
    project,
    reconstruct,
    save_eigenspace,
)
from facemlp.errors import (
    DimensionMismatch,
    FileError,
    FormatError,
    InsufficientData,
    NotSymmetric,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    return (x + x.T) / 2.0


def test_eig_matches_reference_solver():
    a = random_symmetric(10, seed=4)
    values, vectors = eig_symmetric(a)
    reference = np.sort(np.linalg.eigvalsh(a))[::-1]
    np.testing.assert_allclose(values, reference, atol=1e-10)
    np.testing.assert_allclose(vectors @ np.diag(values) @ vectors.T, a,
                               atol=1e-10)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(10), atol=1e-12)


def test_eig_descending_order():
    values, _ = eig_symmetric(random_symmetric(8, seed=1))
    assert all(values[i] >= values[i + 1] for i in range(7))


def test_eig_identity_and_diagonal():
    values, vectors = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(values, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [0, 2, 1]])


def test_eig_empty_and_scalar():
    values, vectors = eig_symmetric(np.zeros((0, 0)))
    assert values.shape == (0,) and vectors.shape == (0, 0)
    values, vectors = eig_symmetric(np.array([[3.0]]))
    np.testing.assert_array_equal(values, [3.0])
    np.testing.assert_array_equal(np.abs(vectors), [[1.0]])


def test_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetric):
        eig_symmetric(np.zeros((2, 3)))


def test_eig_rejects_bad_tol():
    with pytest.raises(ValueError):
        eig_symmetric(np.eye(2), tol=0.0)


def training_vectors(n, d, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 1, d) for _ in range(n)]


def test_eigenvalues_match_covariance_route():
    vecs = training_vectors(12, 50, seed=2)
    space = compute_eigenspace(vecs, m=6)
    data = np.vstack(vecs)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / len(vecs)
    reference = np.sort(np.linalg.eigvalsh(cov))[::-1][:6]
    np.testing.assert_allclose(space.eigenvalues, reference, rtol=1e-9,
                               atol=1e-12)


def test_basis_is_orthonormal():
    space = compute_eigenspace(training_vectors(15, 40, seed=3), m=10)
    gram = space.basis.T @ space.basis
    np.testing.assert_allclose(gram, np.eye(space.components), atol=1e-12)


def test_basis_sign_convention():
    space = compute_eigenspace(training_vectors(10, 30, seed=7), m=5)
    for i in range(space.components):
        col = space.basis[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_component_count_capped_by_samples():
    # 5 vectors span at most a 4-dimensional centered subspace.
    space = compute_eigenspace(training_vectors(5, 20, seed=0), m=40)
    assert space.components == 4


def test_duplicate_vectors_shrink_rank():
    v = training_vectors(1, 20, seed=1)[0]
    space = compute_eigenspace([v, v, v + 1e-3, v - 1e-3], m=10)
    assert space.components <= 2


def test_rank_deficient_gram_keeps_orthonormal_basis():
    # Four distinct vectors, each three times: the 12 x 12 Gram matrix has
    # rank 3, so nine of its eigenvalues are (repeated) zeros.
    distinct = training_vectors(4, 30, seed=11)
    vecs = [v for v in distinct for _ in range(3)]
    space = compute_eigenspace(vecs, m=10)
    assert space.components == 3
    assert np.all(space.eigenvalues > 1e-12)
    np.testing.assert_allclose(space.basis.T @ space.basis, np.eye(3),
                               atol=1e-12)
    for v in distinct:
        np.testing.assert_allclose(reconstruct(space, project(space, v)), v,
                                   atol=1e-9)


def test_build_is_deterministic():
    vecs = training_vectors(20, 64, seed=12)
    first = compute_eigenspace(vecs, m=10)
    second = compute_eigenspace(vecs, m=10)
    assert first.basis.tobytes() == second.basis.tobytes()
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        compute_eigenspace(training_vectors(1, 10, seed=0), m=2)


def test_ragged_vectors_rejected():
    with pytest.raises(DimensionMismatch):
        compute_eigenspace([np.zeros(4), np.zeros(5)], m=2)


def test_projection_of_mean_is_zero():
    space = compute_eigenspace(training_vectors(9, 25, seed=5), m=6)
    np.testing.assert_allclose(project(space, space.mean),
                               np.zeros(space.components), atol=1e-12)


def test_full_basis_roundtrips_training_vector():
    vecs = training_vectors(8, 30, seed=6)
    space = compute_eigenspace(vecs, m=7)
    assert space.components == 7
    for v in vecs:
        np.testing.assert_allclose(reconstruct(space, project(space, v)), v,
                                   atol=1e-9)


def test_project_dimension_check():
    space = compute_eigenspace(training_vectors(5, 10, seed=0), m=3)
    with pytest.raises(DimensionMismatch):
        project(space, np.zeros(11))
    with pytest.raises(DimensionMismatch):
        reconstruct(space, np.zeros(space.components + 1))


def test_save_load_roundtrip_is_exact(tmp_path):
    space = compute_eigenspace(training_vectors(10, 24, seed=8), m=5)
    path = tmp_path / "space.txt"
    save_eigenspace(space, path)
    loaded = load_eigenspace(path)
    assert loaded.dim == space.dim
    assert np.array_equal(loaded.mean, space.mean)
    assert np.array_equal(loaded.eigenvalues, space.eigenvalues)
    assert np.array_equal(loaded.basis, space.basis)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "space.txt"
    p.write_text("NOPE 3 1\n0 0 0\n1\n1 0 0\n")
    with pytest.raises(FormatError):
        load_eigenspace(p)


def test_load_rejects_wrong_count(tmp_path):
    p = tmp_path / "space.txt"
    p.write_text("EIGEN1 3 1\n0 0 0\n1\n1 0\n")
    with pytest.raises(FormatError):
        load_eigenspace(p)


def test_load_rejects_garbage_number(tmp_path):
    p = tmp_path / "space.txt"
    p.write_text("EIGEN1 2 1\n0 zero\n1\n1 0\n")
    with pytest.raises(FormatError):
        load_eigenspace(p)


@pytest.mark.parametrize("raw", [
    b"\x89PNG\r\n\x1a\n\xff\xfe garbage",
    b"EIGEN1 -2 -2\n",    # the value count checks out: -2 - 2 + 4 == 0
], ids=["not_ascii", "negative_shape"])
def test_load_rejects_undecodable_or_bad_shape(tmp_path, raw):
    p = tmp_path / "space.txt"
    p.write_bytes(raw)
    with pytest.raises(FormatError):
        load_eigenspace(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileError):
        load_eigenspace(tmp_path / "absent.txt")


def test_reconstruction_from_truncated_basis():
    vecs = training_vectors(10, 40, seed=9)
    space3 = compute_eigenspace(vecs, m=3)
    space6 = compute_eigenspace(vecs, m=6)
    v = vecs[0]
    err3 = np.linalg.norm(reconstruct(space3, project(space3, v)) - v)
    err6 = np.linalg.norm(reconstruct(space6, project(space6, v)) - v)
    assert err6 <= err3 + 1e-12
