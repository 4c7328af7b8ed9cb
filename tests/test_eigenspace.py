import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facemlp.eigenspace import (
    Eigenspace,
    compute_eigenspace,
    eig_symmetric,
    encode_eigenspace,
    fingerprint,
    load_eigenspace,
    project,
    reconstruct,
    save_eigenspace,
)
from facemlp.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    FileError,
    FormatError,
    InsufficientData,
)
from facemlp.store import frame


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
    assert loaded.fingerprint == space.fingerprint


def test_fingerprint_names_the_training_matrix_and_m():
    vecs = training_vectors(10, 24, seed=8)
    space = compute_eigenspace(vecs, m=5)
    assert space.fingerprint == fingerprint(vecs, 5)
    assert space.fingerprint != fingerprint(vecs, 4)
    vecs[3] = vecs[3] + 1e-12
    assert space.fingerprint != fingerprint(vecs, 5)


def test_expected_fingerprint_defaults_to_the_requested_m():
    # m = 50 asks for more components than 10 vectors give (9 kept); the
    # space still expects the m it was asked for.
    vecs = training_vectors(10, 24, seed=8)
    space = compute_eigenspace(vecs, m=50)
    assert space.components == 9
    assert space.expected_fingerprint(vecs) == space.fingerprint
    assert space.expected_fingerprint(vecs, 9) == fingerprint(vecs, 9)
    assert space.expected_fingerprint(vecs[1:]) == fingerprint(vecs[1:], 50)


def test_fingerprint_rejects_vectors_of_unequal_length():
    with pytest.raises(DimensionMismatch):
        fingerprint([np.zeros(4), np.zeros(5)], 1)


def write_framed(path, body: bytes):
    path.write_bytes(frame(body))


def f8(*values) -> bytes:
    """Values as the raw little-endian float64 of an eigenspace body."""
    return np.array(values, dtype="<f8").tobytes()


def test_load_verifies_the_checksum_trailer(tmp_path):
    space = compute_eigenspace(training_vectors(6, 12, seed=2), m=3)
    p = tmp_path / "space.txt"
    save_eigenspace(space, p)
    raw = p.read_bytes()
    assert raw.splitlines()[-1].startswith(b"CRC32 ")
    # one flipped bit of the first mean value still decodes to a float of
    # the right count, so only the checksum can catch it
    pos = raw.index(b"\n") + 1
    edited = raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:]
    p.write_bytes(edited)
    with pytest.raises(ChecksumMismatch):
        load_eigenspace(p)
    body = edited[:edited.rindex(b"CRC32 ")]
    write_framed(p, body)
    assert load_eigenspace(p).mean[0] != space.mean[0]
    p.write_bytes(raw[:raw.rindex(b"CRC32 ")])
    with pytest.raises(FormatError):
        load_eigenspace(p)


# The fixtures below carry a valid trailer, so each reaches the check it
# names rather than failing on the checksum.
def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "space.txt"
    write_framed(p, b"NOPE 3 1 0:1\n" + f8(0, 0, 0, 1, 1, 0, 0) + b"\n")
    with pytest.raises(FormatError, match="not an EIGEN2 file"):
        load_eigenspace(p)


def test_load_rejects_wrong_count(tmp_path):
    p = tmp_path / "space.txt"
    write_framed(p, b"EIGEN2 3 1 0:1\n" + f8(0, 0, 0, 1, 1, 0) + b"\n")
    with pytest.raises(FormatError, match="expected 7 values"):
        load_eigenspace(p)


def test_load_rejects_garbage_number(tmp_path):
    p = tmp_path / "space.txt"
    write_framed(p, b"EIGEN2 2 one 0:1\n" + f8(0, 0, 1, 1, 0) + b"\n")
    with pytest.raises(FormatError, match="malformed numeric"):
        load_eigenspace(p)


@pytest.mark.parametrize("raw, reason", [
    (b"\x89PNG\r\n\x1a\n\xff\xfe garbage\n", "not an EIGEN2 file"),
    # the body size checks out: 8 * (-2 - 2 + 4) + 1 == 1
    (b"EIGEN2 -2 -2 0:1\n\n", "bad shape"),
], ids=["not_ascii", "negative_shape"])
def test_load_rejects_undecodable_or_bad_shape(tmp_path, raw, reason):
    p = tmp_path / "space.txt"
    write_framed(p, raw)
    with pytest.raises(FormatError, match=reason):
        load_eigenspace(p)


def small_body() -> bytes:
    space = Eigenspace(3, np.zeros(3), np.eye(3)[:, :1], np.ones(1), "0:1")
    return encode_eigenspace(space)


@pytest.mark.parametrize("body, reason", [
    (small_body()[:-2] + b"\n", "expected 7 values"),
    (small_body()[:-1] + f8(0.5) + b"\n", "expected 7 values"),
    # without its final newline the body no longer ends where the trailer
    # starts
    (small_body()[:-1], "missing checksum trailer"),
    (b"EIGEN1 3 1 0:1\n0 0 0\n1\n1 0 0\n", "old EIGEN1 text eigenspace"),
], ids=["one_byte_short", "one_value_too_long", "no_final_newline",
        "eigen1_text"])
def test_load_rejects_a_malformed_binary_body(tmp_path, body, reason):
    p = tmp_path / "space.txt"
    write_framed(p, body)
    with pytest.raises(FormatError, match=reason):
        load_eigenspace(p)


def test_small_body_is_valid(tmp_path):
    p = tmp_path / "space.txt"
    write_framed(p, small_body())
    assert load_eigenspace(p).basis.tolist() == [[1.0], [0.0], [0.0]]


EDGE_VALUES = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308)
FLOAT64 = st.one_of(st.sampled_from(EDGE_VALUES),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 9), m=st.integers(1, 5),
       crc=st.integers(0, 2**32 - 1))
def test_codec_roundtrip_is_bit_identical(tmp_path_factory, data, d, m, crc):
    def draw(*shape):
        return data.draw(arrays(np.float64, shape, elements=FLOAT64))

    space = Eigenspace(d, draw(d), draw(d, m), draw(m), f"{crc:08x}:{m}")
    p = tmp_path_factory.mktemp("codec") / "space.txt"
    save_eigenspace(space, p)
    loaded = load_eigenspace(p)
    assert (loaded.dim, loaded.components) == (d, m)
    assert loaded.mean.tobytes() == space.mean.tobytes()
    assert loaded.eigenvalues.tobytes() == space.eigenvalues.tobytes()
    assert loaded.basis.tobytes() == space.basis.tobytes()
    assert loaded.fingerprint == space.fingerprint


def test_body_is_header_then_raw_little_endian_float64():
    space = compute_eigenspace(training_vectors(6, 12, seed=2), m=3)
    header, _, values = encode_eigenspace(space).partition(b"\n")
    assert header == f"EIGEN2 12 3 {space.fingerprint}".encode("ascii")
    assert len(values) == 8 * (12 + 3 + 3 * 12) + 1
    assert values.endswith(b"\n")
    assert values[:8] == np.array(space.mean[0], dtype="<f8").tobytes()


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
