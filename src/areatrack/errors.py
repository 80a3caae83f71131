"""Exception types shared across the package."""


class AreatrackError(Exception):
    """Base class for all package errors."""


class NoValidDepth(AreatrackError):
    """A box has no valid depth pixel, or no 2x2 patch of valid pixels."""


class EmptyRegion(AreatrackError):
    """A box clipped to the image covers zero pixels."""


class OversizedBox(AreatrackError):
    """A box is wider or taller than the image."""


class FoldedRegion(AreatrackError):
    """The signed area of a box's valid depth patches is not positive."""


class TooFewCorrespondences(AreatrackError):
    """Motion fitting needs at least 3 point pairs."""


class SingularTransform(AreatrackError):
    """Motion transform is not invertible."""


class OutOfOrderFrame(AreatrackError):
    """Tracker received frames in non-increasing order."""


class Uninitialized(AreatrackError):
    """Filter operation on a state with no measurement yet."""


class ZeroConfidence(AreatrackError):
    """Confidence must be strictly positive."""


class EmptySeries(AreatrackError):
    """Metric requires at least one element."""


class TooShort(AreatrackError):
    """Metric requires at least two elements."""


class ZeroMean(AreatrackError):
    """Coefficient of variation undefined for a non-positive mean."""


class ObjectiveNonFinite(AreatrackError):
    """Objective returned NaN/inf; carries the offending point."""

    def __init__(self, point, value):
        super().__init__(f"objective non-finite at {point}: {value}")
        self.point = point
        self.value = value


class DegenerateKernel(AreatrackError):
    """All GP training points are identical."""


class PotholeNeverVisible(AreatrackError):
    """A specified pothole is outside the camera view in every frame."""


class FormatError(AreatrackError):
    """Base class for file format errors."""


class BadMagic(FormatError):
    """Unexpected magic token in a binary header."""


class DimensionMismatch(FormatError):
    """Declared dimensions disagree with payload or expectations."""


class TruncatedPayload(FormatError):
    """Binary payload shorter than the header promises."""


class MalformedLine(FormatError):
    """Unparseable record line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ManifestError(FormatError):
    """Invalid or inconsistent sequence manifest."""
