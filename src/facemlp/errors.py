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

class NotSymmetric(FacemlpError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class DimensionMismatch(FacemlpError):
    """Vector or matrix dimensions are inconsistent."""


class InsufficientData(FacemlpError):
    """Too few training vectors to build a feature space."""


class FormatError(FacemlpError):
    """A persisted artifact file is structurally malformed."""


# --- network training ---

class Diverged(FacemlpError):
    """Training produced a non-finite error value."""

    def __init__(self, epoch: int):
        super().__init__(f"MSE became non-finite at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        return type(self), (self.epoch,)


# --- classifier construction ---

class EmptyClass(FacemlpError):
    """No positive exemplars available for the requested class."""


class NoCounterexamples(FacemlpError):
    """No negative exemplars available for the requested class."""


class InsufficientClasses(FacemlpError):
    """A multi-class task needs at least two distinct classes."""


# --- weight persistence ---

class StoreError(FacemlpError):
    """A weight store root could not be written."""


class ChecksumMismatch(FacemlpError):
    """A weight file's CRC32 trailer does not match its payload."""


class WeightsUnavailable(FacemlpError):
    """No replica holds a valid weight file for the class."""

    def __init__(self, class_id: int):
        super().__init__(f"no valid replica for class {class_id}")
        self.class_id = class_id

    def __reduce__(self):
        return type(self), (self.class_id,)


# --- evaluation protocol ---

class UnknownClass(FacemlpError):
    """Class id is not registered with the model under evaluation."""


class ProtocolError(FacemlpError):
    """The test protocol cannot be satisfied for a class."""

    def __init__(self, class_id: int, message: str = "no test exemplars"):
        super().__init__(f"class {class_id}: {message}")
        self.class_id = class_id
        self._message = message

    def __reduce__(self):
        return type(self), (self.class_id, self._message)
