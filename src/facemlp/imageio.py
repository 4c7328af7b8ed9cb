"""PGM ingestion, dataset manifests, and synthetic dataset generation.

Images are 8-bit grayscale rasters read from P5 or P2 PGM files, whose
header one regular expression matches. A tab-separated manifest
(`path<TAB>class_id<TAB>role`) describes a dataset so it stays diffable
and language-neutral. A deterministic synthetic generator is a desk-scale
stand-in for a real face database: per-class prototype images perturbed
by pixel noise and a linear illumination gradient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FacemlpError,
    FileError,
    InvalidConfig,
    ManifestSyntax,
    TruncatedImage,
    UnsupportedDepth,
    UnsupportedFormat,
)

ROLES = ("train", "test")

# Synthetic-generator perturbation scale, in intensity levels.
NOISE_SIGMA = 12.0
GRADIENT_AMPLITUDE = 40.0


@dataclass(eq=False)
class GrayImage:
    """8-bit grayscale raster; pixels are flat row-major uint8."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        px = np.asarray(self.pixels)
        if px.ndim != 1 or px.size != self.width * self.height:
            raise ValueError("pixel count must equal width*height")
        if px.dtype != np.uint8:
            if px.size and (px.min() < 0 or px.max() > 255):
                raise ValueError("pixel values must lie in [0, 255]")
            px = px.astype(np.uint8)
        self.pixels = px


@dataclass(eq=False)
class Sample:
    """One dataset element: an image, its class label, and its split role."""

    image: GrayImage
    class_id: int
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1")


# A PGM header: the magic; width, height and maxval, each ended by
# whitespace, a `#` comment (through its newline) or the data's end;
# comments; one whitespace byte. All but the magic may match empty.
_COMMENT = rb"#[^\n]*(?:\n|\Z)"
_HEADER = re.compile(rb"P([25])(?![^\s#])"
                     + (rb"(?:\s|" + _COMMENT + rb")*([^\s#]*)") * 3
                     + rb"(?:" + _COMMENT + rb")*(\s?)")


def parse_pgm(data: bytes) -> GrayImage:
    """Parse a PGM image from raw bytes.

    Accepts binary P5 and ASCII P2, maxval up to 255, with `#` comments in
    the header, which one pattern matches. The magic number must be
    exactly `P5` or `P2`. maxval must be followed by one whitespace byte,
    which comments (newline included) may precede; for P5 the payload is
    read verbatim after it. A sample above maxval is rejected.
    """
    header = _HEADER.match(data)
    if header is None:
        raise UnsupportedFormat("not a P5/P2 PGM stream")
    magic, *fields, delimiter = header.groups()
    if not fields[-1]:      # the data ended before maxval
        raise UnsupportedFormat("incomplete PGM header")
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise UnsupportedFormat("non-numeric PGM header field") from None
    if width < 1 or height < 1:
        raise UnsupportedFormat("non-positive image dimensions")
    if maxval > 255:
        raise UnsupportedDepth(f"maxval {maxval} exceeds 8-bit range")
    if maxval < 1:
        raise UnsupportedFormat("maxval must be at least 1")
    if not delimiter:
        raise UnsupportedFormat("maxval is not followed by one whitespace byte")

    count, end = width * height, header.end()
    if magic == b"5":
        payload = data[end : end + count]
        if len(payload) < count:
            raise TruncatedImage(f"expected {count} payload bytes, got {len(payload)}")
        pixels = np.frombuffer(payload, dtype=np.uint8)
    else:
        values = []
        for tok in data[end:].split():
            if tok.startswith(b"#") or len(values) == count:
                break
            try:
                values.append(int(tok))
            except ValueError:
                raise UnsupportedFormat(f"bad ASCII sample {tok!r}") from None
        if len(values) < count:
            raise TruncatedImage(f"expected {count} samples, got {len(values)}")
        arr = np.array(values)
        if arr.min() < 0:
            raise UnsupportedFormat("negative ASCII sample")
        if arr.max() > 255:
            raise UnsupportedDepth("ASCII sample exceeds 8-bit range")
        pixels = arr.astype(np.uint8)
    if pixels.max() > maxval:
        raise UnsupportedFormat(f"sample {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(width, height, pixels)


def serialize_pgm(image: GrayImage, binary: bool = True) -> bytes:
    """Serialize an image as P5 (default) or P2 with maxval 255."""
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n255\n"
    if binary:
        return header.encode("ascii") + image.pixels.tobytes()
    rows = image.pixels.reshape(image.height, image.width)
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return (header + body + "\n").encode("ascii")


def to_vector(image: GrayImage) -> np.ndarray:
    """Flatten row-major and scale pixels to [0, 1] by dividing by 255."""
    return image.pixels.astype(np.float64) / 255.0


def downsample(image: GrayImage, factor: int) -> GrayImage:
    """Mean-pool factor x factor blocks; trailing rows/columns are dropped."""
    if factor < 1:
        raise InvalidConfig("downsample factor must be >= 1")
    if factor == 1:
        return image
    w, h = image.width // factor, image.height // factor
    if w < 1 or h < 1:
        raise InvalidConfig("downsample factor exceeds image size")
    grid = image.pixels.reshape(image.height, image.width)[: h * factor, : w * factor]
    blocks = grid.reshape(h, factor, w, factor).astype(np.float64)
    pooled = np.rint(blocks.mean(axis=(1, 3))).astype(np.uint8)
    return GrayImage(w, h, pooled.reshape(-1))


def load_manifest(path: str | Path) -> tuple[list[Path], list[Sample]]:
    """Load a manifest file and every image it references.

    Each non-empty, non-comment line reads `path<TAB>class_id<TAB>role`
    with role in {train, test}. Paths resolve relative to the manifest's
    directory. Returns each record's image path and its Sample, as two
    lists in record order. A FileError for an unreadable or non-UTF-8
    manifest names it; one for an unreadable image and parse_pgm's error
    for a malformed one name the image's path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"cannot read manifest {path}: {exc}") from exc

    records: list[tuple[Path, int, str]] = []
    seen_paths: set[str] = set()
    train_classes: set[int] = set()
    test_lines: list[tuple[int, int]] = []  # (class_id, line) for role=test
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ManifestSyntax("expected 3 tab-separated fields", lineno)
        rel, cid_text, role = (p.strip() for p in parts)
        try:
            class_id = int(cid_text)
        except ValueError:
            raise ManifestSyntax(f"bad class id {cid_text!r}", lineno) from None
        if class_id < 1:
            raise ManifestSyntax(f"class id must be >= 1, got {class_id}", lineno)
        if role not in ROLES:
            raise ManifestSyntax(f"bad role {role!r}", lineno)
        if rel in seen_paths:
            raise ManifestSyntax(f"duplicate path {rel!r}", lineno)
        seen_paths.add(rel)
        if role == "train":
            train_classes.add(class_id)
        else:
            test_lines.append((class_id, lineno))
        records.append((path.parent / rel, class_id, role))

    for class_id, lineno in test_lines:
        if class_id not in train_classes:
            raise ManifestSyntax(f"test class {class_id} has no train records", lineno)

    samples: list[Sample] = []
    for img_path, class_id, role in records:
        try:
            samples.append(Sample(parse_pgm(img_path.read_bytes()),
                                  class_id, role))
        except OSError as exc:
            raise FileError(f"cannot read image {img_path}: {exc}") from exc
        except FacemlpError as exc:     # parse_pgm's, which name no file
            raise type(exc)(f"{img_path}: {exc}") from exc
    return [p for p, _, _ in records], samples


def write_dataset(samples: list[Sample], out_dir: str | Path) -> Path:
    """Write samples as P5 files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileError(f"cannot create {out_dir}: {exc}") from exc
    counters: dict[tuple[int, str], int] = {}
    lines = []
    for sample in samples:
        key = (sample.class_id, sample.role)
        idx = counters.get(key, 0)
        counters[key] = idx + 1
        name = f"class{sample.class_id:02d}_{sample.role}{idx:03d}.pgm"
        try:
            (out_dir / name).write_bytes(serialize_pgm(sample.image))
        except OSError as exc:
            raise FileError(f"cannot write {out_dir / name}: {exc}") from exc
        lines.append(f"{name}\t{sample.class_id}\t{sample.role}")
    manifest_path = out_dir / "manifest.tsv"
    try:
        manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot write {manifest_path}: {exc}") from exc
    return manifest_path


def generate_synthetic(k: int, n_train: int, n_test: int, side: int,
                       seed: int) -> list[Sample]:
    """Generate a deterministic k-class dataset of side x side images.

    Each class gets a seeded random prototype; every sample is the prototype
    plus Gaussian pixel noise (sigma 12 levels) plus a random linear
    illumination gradient (amplitude within 40 levels), clamped to [0, 255].
    The same arguments always reproduce the same bytes. seed must be >= 0.
    """
    if k < 2:
        raise InvalidConfig("need at least 2 classes")
    if n_train < 1 or n_test < 1:
        raise InvalidConfig("need at least 1 train and 1 test sample per class")
    if side < 4:
        raise InvalidConfig("side must be at least 4")
    if seed < 0:
        raise InvalidConfig("seed must be >= 0")

    rng = np.random.default_rng(seed)
    prototypes = [
        rng.integers(0, 256, size=side * side).astype(np.float64) for _ in range(k)
    ]
    ys, xs = np.mgrid[0:side, 0:side]
    xs = (xs / (side - 1) - 0.5).reshape(-1)
    ys = (ys / (side - 1) - 0.5).reshape(-1)

    def perturbed(proto: np.ndarray) -> GrayImage:
        noise = rng.normal(0.0, NOISE_SIGMA, size=side * side)
        ax, ay = rng.uniform(-GRADIENT_AMPLITUDE, GRADIENT_AMPLITUDE, size=2)
        shade = ax * xs + ay * ys
        pixels = np.clip(np.rint(proto + noise + shade), 0, 255).astype(np.uint8)
        return GrayImage(side, side, pixels)

    roles = ["train"] * n_train + ["test"] * n_test
    return [Sample(perturbed(proto), class_id, role)
            for class_id, proto in enumerate(prototypes, start=1)
            for role in roles]
