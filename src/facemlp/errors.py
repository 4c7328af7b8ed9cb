"""Exception taxonomy shared across the package."""


class FacemlpError(Exception):
    """Base class for all errors raised by this package."""


# --- image and manifest ingestion ---

class UnsupportedFormat(FacemlpError):
    """Input bytes are not a PGM variant this package reads."""


class TruncatedImage(FacemlpError):
    """Pixel payload ended before width*height samples were read."""


class UnsupportedDepth(FacemlpError):
    """Sample depth exceeds 8 bits (maxval > 255)."""


class FileError(FacemlpError):
    """A referenced file is missing or unreadable."""


class ManifestSyntax(FacemlpError):
    """A manifest line violates the record grammar."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self._message = message

    def __reduce__(self):
        return type(self), (self._message, self.line)


class InvalidConfig(FacemlpError):
    """Configuration values outside the accepted domain."""


# --- linear algebra and feature extraction ---

class DimensionMismatch(FacemlpError):
    """Vector or matrix dimensions are inconsistent."""


class InsufficientData(FacemlpError):
    """Too few training vectors to build a feature space."""


class FormatError(FacemlpError):
    """A stored artifact file is malformed or lacks its checksum trailer."""


# --- network training ---

class Diverged(FacemlpError):
    """A non-finite MSE; wall_time is the net's time share, as a trace's."""

    def __init__(self, epoch: int, wall_time: float = 0.0):
        super().__init__(f"MSE became non-finite at epoch {epoch}")
        self.epoch = epoch
        self.wall_time = wall_time

    def __reduce__(self):
        return type(self), (self.epoch, self.wall_time)


class WorkerDied(FacemlpError):
    """A forked pool worker died before it sent its bucket's outcomes."""


# --- classifier construction ---

class EmptyClass(FacemlpError):
    """No positive exemplars available for the requested class."""


class NoCounterexamples(FacemlpError):
    """No negative exemplars available for the requested class."""


class InsufficientClasses(FacemlpError):
    """A multi-class task needs at least two distinct classes."""


# --- artifact store ---

class StoreError(FacemlpError):
    """A store root could not take an artifact, or no root holds it."""


class ChecksumMismatch(FacemlpError):
    """A stored artifact's CRC32 trailer does not match its body."""


class WeightsUnavailable(FacemlpError):
    """No replica holds a valid weight file for the class."""

    def __init__(self, class_id: int):
        super().__init__(f"no valid replica for class {class_id}")
        self.class_id = class_id

    def __reduce__(self):
        return type(self), (self.class_id,)


# --- evaluation protocol ---

class ProtocolError(FacemlpError):
    """The test protocol cannot be satisfied for a class."""

    def __init__(self, class_id: int, message: str = "no test exemplars"):
        super().__init__(f"class {class_id}: {message}")
        self.class_id = class_id
        self._message = message

    def __reduce__(self):
        return type(self), (self.class_id, self._message)
