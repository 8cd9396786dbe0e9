"""Exception hierarchy shared across the toolkit.

Every failure a reader or a computation raises on bad input is an
EvrepError, which the CLI maps to exit code 2 (data error); a flag value
outside its domain is mapped to exit code 1 instead. File-format problems
derive from DataFormatError.
"""


class EvrepError(Exception):
    """Base class for all toolkit errors."""


class InvalidParamError(EvrepError, ValueError):
    """A parameter violates its documented domain (e.g. queue depth < 1)."""


class GeometryMismatchError(EvrepError, ValueError):
    """Inputs disagree with the frame geometry (e.g. t_n past the record end)."""


class WindowOutOfOrderError(EvrepError, ValueError):
    """A window does not cover the interval the incremental state expects."""


class DimMismatchError(EvrepError, ValueError):
    """Tensor or weight dimensions do not chain consistently."""


class OffsetOutOfRangeError(EvrepError, ValueError):
    """Crop offset outside the legal range for the resized tensor."""


class DegenerateBoxError(EvrepError, ValueError):
    """Bounding box rasterizes to zero area."""


class EmptyInputError(EvrepError, ValueError):
    """An operation that needs at least one element received none."""


class MissingLevelError(EvrepError, ValueError):
    """Annotations and motion-level assignments do not line up."""


class DataFormatError(EvrepError):
    """Base class for malformed file contents."""


class BadMagicError(DataFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedRecordError(DataFormatError):
    """Binary payload ends mid-record."""


class TruncatedPlaneError(DataFormatError):
    """Flow file ends before both planes are complete."""


class UnsupportedDtypeError(DataFormatError):
    """Tensor file declares a dtype code this reader does not support."""


class NonMonotonicTimestampError(DataFormatError):
    """Event timestamps decrease at the given record index."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"non-monotonic timestamp at record {index}")


class CoordOutOfBoundsError(DataFormatError):
    """Event coordinates fall outside the declared frame geometry."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"coordinate out of bounds at record {index}")


class ParseError(DataFormatError):
    """Text input could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonPositiveSizeError(DataFormatError):
    """Bounding box width or height is not positive."""

    def __init__(self, line: int, message: str | None = None):
        self.line = line
        super().__init__(message or f"line {line}: box width/height must be positive")
