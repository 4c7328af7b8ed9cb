import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemlp.errors import (
    FacemlpError,
    FileError,
    InvalidConfig,
    ManifestSyntax,
    TruncatedImage,
    UnsupportedDepth,
    UnsupportedFormat,
)
from facemlp.imageio import (
    GrayImage,
    Sample,
    downsample,
    generate_synthetic,
    load_manifest,
    parse_pgm,
    serialize_pgm,
    to_vector,
    write_dataset,
)


def make_image(width, height, seed=0):
    rng = np.random.default_rng(seed)
    return GrayImage(width, height, rng.integers(0, 256, width * height))


def same_image(a, b) -> bool:
    return ((a.width, a.height) == (b.width, b.height)
            and np.array_equal(a.pixels, b.pixels))


def test_parse_binary_roundtrip():
    img = make_image(7, 5)
    again = parse_pgm(serialize_pgm(img))
    assert same_image(again, img)


def test_parse_ascii_roundtrip():
    img = make_image(4, 6, seed=1)
    again = parse_pgm(serialize_pgm(img, binary=False))
    assert same_image(again, img)


def test_header_comments_and_whitespace():
    data = b"P5 # magic\n# a comment line\n  3\t2 # dims\n255\n" + bytes(6)
    img = parse_pgm(data)
    assert (img.width, img.height) == (3, 2)
    assert img.pixels.sum() == 0


def test_binary_payload_not_comment_stripped():
    # 0x23 is '#'; payload bytes must be taken verbatim.
    data = b"P5\n2 2\n255\n" + bytes([0x23, 0x0A, 0x23, 0x0A])
    img = parse_pgm(data)
    assert list(img.pixels) == [0x23, 0x0A, 0x23, 0x0A]


def test_low_maxval_accepted():
    data = b"P5\n2 1\n100\n" + bytes([0, 100])
    assert list(parse_pgm(data).pixels) == [0, 100]


@pytest.mark.parametrize("data", [
    b"P5\n2 1\n15\n" + bytes([200, 3]),
    b"P2\n2 1\n15\n200 3",
], ids=["P5", "P2"])
def test_sample_above_maxval_rejected(data):
    with pytest.raises(UnsupportedFormat):
        parse_pgm(data)


def test_maxval_must_end_in_one_whitespace_byte():
    # Read from just past "255", this P5 payload would start inside the
    # comment and parse as [99, 10] ("c", "\n").
    with pytest.raises(UnsupportedFormat):
        parse_pgm(b"P5\n2 1\n255#c\n" + bytes([1, 2]))


def test_comment_may_precede_the_raster_delimiter():
    # The comment's own newline is not the delimiter; the next byte is.
    data = b"P5\n2 1\n255#c\n\n" + bytes([1, 2])
    assert list(parse_pgm(data).pixels) == [1, 2]


def test_bad_magic_rejected():
    # The magic is a whole token: "P2P" and "P27" are not P2.
    for data in (b"P6\n1 1\n255\n\x00", b"P2P\n1 2\n255\n243\n88\n",
                 b"P27\n 3 3\n255\n" + b"1 " * 9):
        with pytest.raises(UnsupportedFormat, match="not a P5/P2"):
            parse_pgm(data)


@pytest.mark.parametrize("data, reason", [
    (b"P5\n0 1\n255\n", "non-positive image dimensions"),
    (b"P5\n1 1\n0\n\x00", "maxval must be at least 1")],
    ids=["zero_width", "zero_maxval"])
def test_zero_width_or_maxval_rejected(data, reason):
    with pytest.raises(UnsupportedFormat, match=reason):
        parse_pgm(data)


def test_incomplete_header():
    with pytest.raises(UnsupportedFormat):
        parse_pgm(b"P5\n3 3\n")


def test_sixteen_bit_rejected():
    with pytest.raises(UnsupportedDepth):
        parse_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_binary_payload():
    with pytest.raises(TruncatedImage):
        parse_pgm(b"P5\n4 4\n255\n" + bytes(7))


def test_truncated_ascii_payload():
    with pytest.raises(TruncatedImage):
        parse_pgm(b"P2\n2 2\n255\n1 2 3")


def test_ascii_raster_ends_at_a_comment_or_its_last_sample():
    # Tokens past width x height are not read, whatever they are; a `#`
    # token ends the raster, so one before the last sample truncates it.
    for tail in (b"9 11 x\n", b"9 # note\n"):
        assert parse_pgm(b"P2\n2 1\n255\n7 " + tail).pixels.tolist() == [7, 9]
    with pytest.raises(TruncatedImage, match="expected 2 samples, got 1"):
        parse_pgm(b"P2\n2 1\n255\n7 #9\n")


def test_ascii_sample_over_255():
    with pytest.raises(UnsupportedDepth):
        parse_pgm(b"P2\n2 1\n255\n1 300")


def test_ascii_negative_sample():
    with pytest.raises(UnsupportedFormat):
        parse_pgm(b"P2\n2 1\n255\n-1 3")


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    binary=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_any_image_roundtrips(width, height, binary, seed):
    img = make_image(width, height, seed)
    assert same_image(parse_pgm(serialize_pgm(img, binary=binary)), img)


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
COMMENT = st.binary(max_size=6).map(lambda t: b"#" + t.replace(b"\n", b"") + b"\n")
GAP = st.lists(st.one_of(WHITESPACE, COMMENT), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 5),
    height=st.integers(1, 5),
    binary=st.booleans(),
    gaps=st.lists(GAP, min_size=3, max_size=3),
    comments=st.lists(COMMENT, max_size=3),
    delimiter=WHITESPACE,
)
def test_header_gaps_never_change_the_image(width, height, binary, gaps,
                                            comments, delimiter):
    # Any whitespace and comments between the header tokens, and comments
    # before the delimiter byte, leave the parsed image as it is.
    img = make_image(width, height)
    magic, *tokens, payload = serialize_pgm(img, binary).split(b"\n", 3)
    tokens = tokens[0].split() + tokens[1:]
    data = (magic + b"".join(b"".join(g) + t for g, t in zip(gaps, tokens))
            + b"".join(comments) + delimiter + payload)
    assert same_image(parse_pgm(data), img)


MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(0, 255)),
)


def mutate(data: bytes, kind: str, pos: int, value: int) -> bytes:
    if kind == "insert":
        pos %= len(data) + 1
        return data[:pos] + bytes([value]) + data[pos:]
    if not data:
        return data
    pos %= len(data)
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ value]) + data[pos + 1:]
    return data[:pos]


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    binary=st.booleans(),
    seed=st.integers(0, 2**20),
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
)
def test_mutated_pgm_raises_only_facemlp_errors(width, height, binary, seed,
                                                mutations):
    data = serialize_pgm(make_image(width, height, seed), binary=binary)
    for kind, pos, value in mutations:
        data = mutate(data, kind, pos, value)
    try:
        image = parse_pgm(data)
    except FacemlpError:
        return
    assert image.pixels.dtype == np.uint8
    assert image.pixels.size == image.width * image.height


def test_to_vector_scales_to_unit_interval():
    img = GrayImage(2, 2, np.array([0, 51, 204, 255]))
    np.testing.assert_allclose(to_vector(img),
                               [0.0, 0.2, 0.8, 1.0])


def test_downsample_means_blocks():
    img = GrayImage(4, 2, np.array([10, 20, 30, 40,
                                    50, 60, 70, 80]))
    small = downsample(img, 2)
    assert (small.width, small.height) == (2, 1)
    # block means: (10+20+50+60)/4=35, (30+40+70+80)/4=55
    assert list(small.pixels) == [35, 55]


def test_downsample_factor_one_is_identity():
    img = make_image(3, 3)
    assert downsample(img, 1) is img


def test_downsample_truncates_remainder():
    img = GrayImage(5, 5, np.arange(25))
    small = downsample(img, 2)
    assert (small.width, small.height) == (2, 2)


def test_downsample_bad_factor():
    img = make_image(4, 4)
    with pytest.raises(InvalidConfig):
        downsample(img, 0)
    with pytest.raises(InvalidConfig):
        downsample(img, 9)


def test_image_validation():
    with pytest.raises(ValueError):
        GrayImage(0, 3, np.zeros(0))
    with pytest.raises(ValueError):
        GrayImage(2, 2, np.zeros(3))
    with pytest.raises(ValueError):
        GrayImage(1, 1, np.array([300]))
    with pytest.raises(ValueError):
        Sample(make_image(2, 2), 1, "validation")
    with pytest.raises(ValueError):
        Sample(make_image(2, 2), 0, "train")


def test_dataset_roundtrip(tmp_path):
    samples = generate_synthetic(2, 2, 1, 6, seed=9)
    manifest_path = write_dataset(samples, tmp_path / "data")
    paths, loaded = load_manifest(manifest_path)
    assert len(loaded) == len(samples)
    assert [s.class_id for s in loaded] == [s.class_id for s in samples]
    assert [s.role for s in loaded] == [s.role for s in samples]
    for a, b in zip(loaded, samples):
        assert same_image(a.image, b.image)
    assert len(paths) == 6


def test_write_dataset_names_a_file_it_cannot_write(tmp_path):
    samples = [Sample(make_image(2, 2), 1, "train")]
    for name in ("class01_train000.pgm", "manifest.tsv"):
        out = tmp_path / name.split(".")[0]
        (out / name).mkdir(parents=True)       # a directory is in the way
        with pytest.raises(FileError, match=f"cannot write {out / name}"):
            write_dataset(samples, out)


def _write_manifest(tmp_path, body):
    p = tmp_path / "manifest.tsv"
    p.write_text(body, encoding="utf-8")
    return p


def test_manifest_field_count_error(tmp_path):
    p = _write_manifest(tmp_path, "a.pgm\t1\n")
    with pytest.raises(ManifestSyntax) as err:
        load_manifest(p)
    assert err.value.line == 1


def test_manifest_bad_class(tmp_path):
    for class_id in ("x", "0"):
        p = _write_manifest(tmp_path, f"# header\na.pgm\t{class_id}\ttrain\n")
        with pytest.raises(ManifestSyntax) as err:
            load_manifest(p)
        assert err.value.line == 2


def test_manifest_bad_role(tmp_path):
    p = _write_manifest(tmp_path, "a.pgm\t1\tvalid\n")
    with pytest.raises(ManifestSyntax):
        load_manifest(p)


def test_manifest_duplicate_path(tmp_path):
    # One image is one record, however its path is spelled: read twice,
    # it would be both a training and a test image.
    (tmp_path / "a.pgm").write_bytes(serialize_pgm(make_image(2, 2)))
    for again in ("a.pgm", "./a.pgm", "sub/../a.pgm"):
        p = _write_manifest(tmp_path, f"a.pgm\t1\ttrain\n{again}\t1\ttest\n")
        with pytest.raises(ManifestSyntax, match="duplicate path") as err:
            load_manifest(p)
        assert err.value.line == 2


def test_manifest_test_without_train(tmp_path):
    (tmp_path / "a.pgm").write_bytes(serialize_pgm(make_image(2, 2)))
    p = _write_manifest(tmp_path, "a.pgm\t3\ttest\n")
    with pytest.raises(ManifestSyntax):
        load_manifest(p)


def test_manifest_missing_image(tmp_path):
    p = _write_manifest(tmp_path, "gone.pgm\t1\ttrain\n")
    with pytest.raises(FileError):
        load_manifest(p)


def test_manifest_names_an_image_parse_pgm_rejects(tmp_path):
    (tmp_path / "deep.pgm").write_bytes(b"P5\n1 1\n300\n\x00\x00")
    p = _write_manifest(tmp_path, "deep.pgm\t1\ttrain\n")
    with pytest.raises(UnsupportedDepth) as err:
        load_manifest(p)
    assert str(err.value) == \
        f"{tmp_path / 'deep.pgm'}: maxval 300 exceeds 8-bit range"


def test_manifest_missing_file(tmp_path):
    with pytest.raises(FileError):
        load_manifest(tmp_path / "nope.tsv")


def test_synthetic_is_deterministic():
    a = generate_synthetic(3, 2, 2, 8, seed=5)
    b = generate_synthetic(3, 2, 2, 8, seed=5)
    assert len(a) == len(b) == 12
    for s, t in zip(a, b):
        assert same_image(s.image, t.image)
        assert (s.class_id, s.role) == (t.class_id, t.role)


def test_synthetic_seed_changes_pixels():
    a = generate_synthetic(2, 1, 1, 8, seed=0)
    b = generate_synthetic(2, 1, 1, 8, seed=1)
    assert not same_image(a[0].image, b[0].image)


def test_synthetic_counts_and_order():
    samples = generate_synthetic(2, 3, 2, 8, seed=0)
    layout = [(s.class_id, s.role) for s in samples]
    assert layout == ([(1, "train")] * 3 + [(1, "test")] * 2
                      + [(2, "train")] * 3 + [(2, "test")] * 2)


def test_synthetic_validation():
    with pytest.raises(InvalidConfig):
        generate_synthetic(1, 2, 2, 8, seed=0)
    with pytest.raises(InvalidConfig):
        generate_synthetic(2, 0, 2, 8, seed=0)
    with pytest.raises(InvalidConfig):
        generate_synthetic(2, 2, 2, 3, seed=0)
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        generate_synthetic(2, 2, 2, 8, seed=-1)
